"""Piecewise-exact propagation, Lindblad integration, dephasing-rate fit."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from excitonsim import model, reference
from excitonsim.errors import ConfigError, NumericalValidationError
from excitonsim.model import SystemHamiltonian
from excitonsim.noise import FluctuatorConfig, generate_trajectory

K = 2.0 * math.pi * 2.99792458e-5

NEAR = SystemHamiltonian.near_resonant()
NON = SystemHamiltonian.non_resonant()


def test_exact_propagation_with_zero_noise_matches_closed_form():
    cfg = FluctuatorConfig.uniform(0.0, 2, 125.0)
    shifts = generate_trajectory(cfg, 100, 2.0, seed=1)
    series = reference.exact_trajectory_series(NEAR, shifts, 2.0)
    t = np.arange(101) * 2.0
    p0, p1 = model.analytic_populations(NEAR, t)
    assert np.abs(series[:, 0] - p0).max() < 1e-10
    assert np.abs(series[:, 1] - p1).max() < 1e-10


def test_constant_common_shift_is_a_global_phase():
    shifts = np.full((2, 80), 150.0)
    series = reference.exact_trajectory_series(NEAR, shifts, 2.0)
    t = np.arange(81) * 2.0
    p0, _ = model.analytic_populations(NEAR, t)
    assert np.abs(series[:, 0] - p0).max() < 1e-10


def test_exact_propagate_point_and_errors():
    cfg = FluctuatorConfig.uniform(200.0, 2, 125.0)
    shifts = generate_trajectory(cfg, 50, 2.0, seed=3)
    series = reference.exact_trajectory_series(NEAR, shifts, 2.0)  # up to t = 100 fs
    assert series.shape == (51, 2)
    assert series[-1].sum() == pytest.approx(1.0, abs=1e-12)
    assert np.array_equal(series[:21], reference.exact_trajectory_series(NEAR, shifts[:, :20], 2.0))
    # shifts must be (n_sites, n_steps)
    for wrong in (shifts.T, shifts[:1], shifts[0], shifts[None]):
        with pytest.raises(ValueError, match="shape"):
            reference.exact_trajectory_series(NEAR, wrong, 2.0)


@pytest.mark.parametrize("h", [NEAR, NON], ids=["near", "non"])
def test_lindblad_zero_rate_reduces_to_coherent_oscillation(h):
    t = np.linspace(0.0, 300.0, 151)
    pops = reference.lindblad_populations(h, 0.0, t)
    p0, p1 = model.analytic_populations(h, t)
    assert np.abs(pops[:, 0] - p0).max() < 1e-6
    assert np.abs(pops[:, 1] - p1).max() < 1e-6


def test_energy_basis_coherence_rotates_at_beat_frequency():
    decomp = model.eigendecompose(NEAR)
    t_grid = np.array([0.0, 10.0, 25.0, 40.0])
    series = reference.lindblad_integrate(NEAR, 0.0, t_grid)
    omega = math.sqrt(73504.0) * K
    rho_e0 = decomp.transform @ series[0] @ decomp.transform.T
    for ti, rho in zip(t_grid, series):
        rho_e = decomp.transform @ rho @ decomp.transform.T
        expected = rho_e0[0, 1] * np.exp(-1j * omega * ti)
        assert abs(rho_e[0, 1] - expected) < 1e-5
        # populations in the energy basis stay put
        assert abs(rho_e[0, 0] - rho_e0[0, 0]) < 1e-6


def test_lindblad_preserves_density_matrix_invariants():
    t = np.linspace(0.0, 500.0, 101)
    series = reference.lindblad_integrate(NEAR, 10.0, t)
    assert series.shape == (101, 2, 2)
    for rho in series:  # recomputed here, one matrix at a time
        assert abs(np.trace(rho).real - 1.0) < 1e-9
        assert np.abs(rho - rho.conj().T).max() < 1e-10
        assert np.linalg.eigvalsh(rho).min() >= -1e-8


def valid_stack(n_points: int) -> np.ndarray:
    t = np.linspace(0.0, 200.0, n_points)
    return reference.lindblad_integrate(NEAR, 10.0, t)


@pytest.mark.parametrize(
    "check, broken, message",
    [
        ("finite", np.array([[np.nan, 0.0], [0.0, 1.0]]), "non-finite"),
        ("hermitian", np.array([[0.5, 0.1], [0.2, 0.5]]), "not Hermitian"),
        ("trace", np.array([[0.7, 0.0], [0.0, 0.7]]), "trace drifted"),
        ("positive", np.array([[1.5, 0.0], [0.0, -0.5]]), "lost positivity"),
    ],
)
@pytest.mark.parametrize("k", [0, 7, 40])
def test_stacked_density_check_names_the_first_failing_point(check, broken, message, k):
    stack = valid_stack(41)
    t = np.arange(41) * 5.0
    reference.check_density_matrices(stack, t)
    stack[k] = broken
    with pytest.raises(NumericalValidationError, match=rf"t = {float(t[k])!r} fs .*{message}"):
        reference.check_density_matrices(stack, t)
    stack[-1] = broken  # a later failure does not hide point k
    with pytest.raises(NumericalValidationError, match=rf"t = {float(t[k])!r} fs "):
        reference.check_density_matrices(stack, t)


@st.composite
def density_like_stacks(draw):
    """Hermitian unit-trace stacks of 1-4 matrices, n = 1..4. Each matrix is
    either random, or (n > 1) built from eigenvalues with the lowest a signed
    1e-11..1e-1 from POSITIVITY_TOL, so both verdicts occur near the edge."""
    n = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    stack = []
    for _ in range(draw(st.integers(1, 4))):
        z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        if n == 1 or draw(st.booleans()):
            a = z + z.conj().T
            a /= a.trace().real
        else:
            lowest = reference.POSITIVITY_TOL + draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-11, -1))
            rest = rng.random(n - 1) + 1e-3
            w = np.concatenate(([lowest], rest / rest.sum() * (1.0 - lowest)))
            u, _ = np.linalg.qr(z)
            a = (u * w) @ u.conj().T
            a = (a + a.conj().T) / 2
        stack.append(a)
    return np.array(stack)


@settings(max_examples=300, deadline=None)
@given(density_like_stacks())
def test_positivity_pivots_agree_with_eigvalsh(stack):
    """The pivot test passes a stack exactly when its lowest eigenvalue (from
    LAPACK, here only) clears POSITIVITY_TOL, away from a 1e-12 band."""
    lowest = np.linalg.eigvalsh(stack).min()
    assume(abs(lowest - reference.POSITIVITY_TOL) > 1e-12)
    expected = None if lowest >= reference.POSITIVITY_TOL else "lost positivity"
    assert reference._density_problem(stack) == expected


@pytest.mark.parametrize(
    "rho, expected",
    [
        (np.diag([1.0, 0.0]), None),  # |0><0|: lowest eigenvalue exactly 0
        (np.diag([1.0 + 0.5e-8, -0.5e-8]), None),
        (np.diag([1.0 + 2e-8, -2e-8]), "lost positivity"),
        (np.array([[0.5, 1e200], [1e200, 0.5]]), "lost positivity"),
        (np.array([[0.5, 1e200j], [-1e200j, 0.5]]), "lost positivity"),
        (np.array([[0.4, 1e200, 0.0], [1e200, 0.3, 0.0], [0.0, 0.0, 0.3]], dtype=complex), "lost positivity"),
    ],
)
def test_positivity_check_at_the_tolerance_and_on_overflow(rho, expected):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an overflowing pivot warns nothing
        assert reference._density_problem(rho[None]) == expected


@pytest.mark.parametrize("h", [NEAR, NON], ids=["near", "non"])
def test_liouvillian_slowest_decay_reaches_the_incoherent_rate(h):
    """At large dephasing the Haken-Strobl model transfers incoherently: the
    population difference decays at 4 J^2 gamma / (gamma^2 + Delta^2), all
    in angular units (1/fs)."""
    gamma_thz = 1000.0
    rates = np.sort(-np.linalg.eigvals(reference._liouvillian(h, gamma_thz)).real)
    assert abs(rates[0]) < 1e-12  # the steady state
    m = h.matrix() * model.PHASE_PER_CM1_FS
    gamma = gamma_thz * reference.THZ_TO_INV_FS
    incoherent = 4.0 * m[0, 1] ** 2 * gamma / (gamma**2 + (m[0, 0] - m[1, 1]) ** 2)
    assert rates[1] / incoherent == pytest.approx(1.0, abs=3e-3)


@pytest.mark.parametrize(
    "h, p1_at_optimum, p1_coherent", [(NEAR, 0.4853, 0.4406), (NON, 0.4234, 0.0820)], ids=["near", "non"]
)
def test_dephasing_assisted_transfer_peaks_at_the_detuning(h, p1_at_optimum, p1_coherent):
    """Environment-assisted transfer in the Haken-Strobl model: the site-1
    population averaged over [0, 600] fs is largest near gamma = 2 pi c |Delta|,
    where the dephasing broadens the two site energies into each other, and
    there it exceeds the coherent (gamma = 0) value."""
    t = np.arange(301) * 2.0

    def mean_p1(log_gamma):
        return reference.lindblad_integrate(h, math.exp(log_gamma), t)[:, 1, 1].real.mean()

    # a log scan over 1-1000 THz, then golden section on the best point's neighbours
    scan = np.linspace(math.log(1.0), math.log(1000.0), 121)
    best = int(np.argmax([mean_p1(x) for x in scan]))
    assert 0 < best < scan.size - 1
    a, b = scan[best - 1], scan[best + 1]
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    while b - a > 1e-4:
        c, d = b - invphi * (b - a), a + invphi * (b - a)
        a, b = (a, d) if mean_p1(c) > mean_p1(d) else (c, b)
    optimum_thz = math.exp((a + b) / 2.0)
    delta_cm1 = abs(h.site_energies_cm1[0] - h.site_energies_cm1[1])
    detuning_thz = model.PHASE_PER_CM1_FS * delta_cm1 / reference.THZ_TO_INV_FS
    assert optimum_thz / detuning_thz == pytest.approx(1.0, abs=0.03)
    best_p1 = mean_p1(math.log(optimum_thz))
    coherent_p1 = reference.lindblad_integrate(h, 0.0, t)[:, 1, 1].real.mean()
    assert (best_p1, coherent_p1) == pytest.approx((p1_at_optimum, p1_coherent), abs=1e-4)
    assert best_p1 > coherent_p1


def test_lindblad_integrate_checks_every_point_in_one_call(monkeypatch):
    calls = []
    check = reference.check_density_matrices

    def recording(stack, t_fs=None):
        calls.append((stack.shape, None if t_fs is None else np.array(t_fs)))
        check(stack, t_fs)

    monkeypatch.setattr(reference, "check_density_matrices", recording)
    t = np.arange(301) * 2.0
    series = reference.lindblad_integrate(NEAR, 10.0, t)
    assert series.shape == (301, 2, 2)
    assert len(calls) == 1
    assert calls[0][0] == (301, 2, 2) and np.array_equal(calls[0][1], t)
    # the grid starts at t = 0 with the site-0 excitation itself
    assert np.array_equal(series[0], np.diag([1.0, 0.0]))
    pops = series.diagonal(axis1=1, axis2=2).real
    assert pops[0].tolist() == [1.0, 0.0]
    assert np.array_equal(pops, reference.lindblad_populations(NEAR, 10.0, t))


@pytest.mark.parametrize("h", [NEAR, NON], ids=["near", "non"])
def test_lindblad_relaxes_to_equal_populations(h):
    t = np.array([0.0, 2000.0])
    series = reference.lindblad_integrate(h, 30.0, t)
    assert np.abs(series[-1].diagonal().real - 0.5).max() < 1e-3


def test_strong_dephasing_suppresses_beating():
    t = np.arange(0.0, 601.0, 2.0)
    pops = reference.lindblad_populations(NEAR, 70.0, t)
    p0 = pops[:, 0]
    late = p0[t >= 150.0]
    assert np.abs(late - 0.5).max() < 0.05
    # no coherent rebound: first local minimum never dips below 0.4
    assert p0.min() > 0.4


def test_rk4_step_halving_consistency(monkeypatch):
    t = np.linspace(0.0, 100.0, 51)
    monkeypatch.setattr(reference, "MAX_STEP_FS", 0.5)
    coarse = reference.lindblad_populations(NEAR, 10.0, t)
    monkeypatch.setattr(reference, "MAX_STEP_FS", 0.25)
    fine = reference.lindblad_populations(NEAR, 10.0, t)
    assert np.abs(coarse - fine).max() < 1e-8


@pytest.mark.parametrize("rate", [math.nan, math.inf, -math.inf, -1e-3])
def test_lindblad_model_rejects_rates_that_are_not_finite_and_non_negative(rate):
    for wrapper in (reference.lindblad_integrate, reference.lindblad_populations):
        with pytest.raises(ValueError, match=f"finite and >= 0, got {rate!r}"):
            wrapper(NEAR, rate, np.array([0.0, 10.0]))


def test_rk4_step_too_large_reported(monkeypatch):
    t = np.array([0.0, 400.0])
    monkeypatch.setattr(reference, "MAX_STEP_FS", 20.0)
    with pytest.raises(NumericalValidationError):
        reference.lindblad_populations(NEAR, 400.0, t)


# Several distinct spacings, a first point above 0, and spans that are not
# multiples of the default 0.5 fs step, so every span gets its own propagator.
UNEVEN_GRID = np.array([0.7, 3.0, 4.1, 10.0, 10.3, 17.55, 40.0, 41.25, 100.0, 160.9, 300.0])
ORACLE_RATES_THZ = (0.0, 10.0, 70.0, 300.0)


def exact_lindblad_populations(h_cm1: np.ndarray, rate_thz: float, t_fs: np.ndarray) -> np.ndarray:
    """Site populations from |0><0| by exact exponentiation of the generator.

    Built here, not from the package: the commutator with H plus decay of every
    off-diagonal element of rho at the dephasing rate, on row-major vec(rho),
    exponentiated through the generator's eigendecomposition.
    """
    n = h_cm1.shape[0]
    h = h_cm1 * K
    eye = np.eye(n)
    gen = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    gen -= np.diag(rate_thz * 1e-3 * (1.0 - eye.reshape(-1)))
    w, v = np.linalg.eig(gen)
    rho0 = np.zeros(n * n, dtype=complex)
    rho0[0] = 1.0
    vecs = (v * np.linalg.solve(v, rho0)) @ np.exp(np.outer(w, t_fs))
    return vecs[:: n + 1].real.T


def literal_rk4_populations(gen: np.ndarray, t_fs: np.ndarray, max_step_fs: float) -> np.ndarray:
    """Two-site populations from |0><0| at t = 0, by classical RK4 stepped
    one sub-step at a time with the package's sub-step rule."""
    v = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    out = []
    prev = 0.0
    for ti in t_fs:
        n_sub = max(1, math.ceil((ti - prev) / max_step_fs - 1e-12))
        step = (ti - prev) / n_sub
        for _ in range(n_sub):
            k1 = gen @ v
            k2 = gen @ (v + 0.5 * step * k1)
            k3 = gen @ (v + 0.5 * step * k2)
            k4 = gen @ (v + step * k3)
            v = v + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        prev = ti
        out.append(v[[0, 3]].real)
    return np.array(out)


@pytest.mark.parametrize("rate", ORACLE_RATES_THZ)
def test_lindblad_populations_match_exact_exponential(rate):
    pops = reference.lindblad_populations(NEAR, rate, UNEVEN_GRID)
    exact = exact_lindblad_populations(NEAR.matrix(), rate, UNEVEN_GRID)
    assert np.abs(pops - exact).max() < 1e-7


# Grids with runs of equal spacing, which are filled by repeated squaring of
# the propagator: uniform from 0; a first point above 0, then a uniform run;
# and a run, a run of another spacing, then the first spacing again. Every
# value is a multiple of 0.25, so the spacings within a run are exactly equal.
UNIFORM_GRID = np.arange(301) * 2.0
OFFSET_GRID = 0.75 + np.arange(200) * 1.5
RETURNING_GRID = np.concatenate(
    [np.arange(51) * 2.0, 100.0 + np.arange(1, 38) * 0.5, 118.5 + np.arange(1, 41) * 2.0]
)
ORACLE_GRIDS = (UNEVEN_GRID, UNIFORM_GRID, OFFSET_GRID, RETURNING_GRID)


@pytest.mark.parametrize("rate", ORACLE_RATES_THZ)
def test_lindblad_propagator_is_the_rk4_step_loop(rate):
    for grid in ORACLE_GRIDS:
        expected = literal_rk4_populations(reference._liouvillian(NEAR, rate), grid, 0.5)
        pops = reference.lindblad_populations(NEAR, rate, grid)
        assert np.abs(pops - expected).max() < 1e-12
        series = reference.lindblad_integrate(NEAR, rate, grid)
        assert np.abs(series.diagonal(axis1=1, axis2=2).real - expected).max() < 1e-12


def test_oracle_grids_have_the_runs_they_claim():
    runs = [np.unique(np.diff(grid, prepend=0.0), return_counts=True) for grid in ORACLE_GRIDS[1:]]
    assert [s.tolist() for s, _ in runs] == [[0.0, 2.0], [0.75, 1.5], [0.0, 0.5, 2.0]]
    assert [c.tolist() for _, c in runs] == [[1, 300], [1, 199], [1, 37, 90]]


def kron_sum_liouvillian(h_cm1: np.ndarray, rate_thz: float) -> np.ndarray:
    """The Lindblad generator on row-major vec(rho), summed jump by jump:
    L rho L^+ - {L^+ L, rho}/2 for each site projector L = |m><m|."""
    n = h_cm1.shape[0]
    h = h_cm1 * model.PHASE_PER_CM1_FS
    eye = np.eye(n)
    gen = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    rate = rate_thz * 1e-3
    for m in range(n):
        jump = np.zeros((n, n), dtype=complex)
        jump[m, m] = 1.0
        ldl = jump.conj().T @ jump
        gen += rate * (
            np.kron(jump, jump.conj()) - 0.5 * np.kron(ldl, eye) - 0.5 * np.kron(eye, ldl.T)
        )
    return gen


FOUR_SITES = SystemHamiltonian(
    [13000.0, 12900.0, 13050.0, 12800.0],
    [[0.0, 126.0, 5.0, 0.0], [126.0, 0.0, 80.0, 3.0], [5.0, 80.0, 0.0, 60.0], [0.0, 3.0, 60.0, 0.0]],
)


@pytest.mark.parametrize("h", [NEAR, NON, FOUR_SITES], ids=["near", "non", "four_sites"])
@pytest.mark.parametrize("rate", [0.0, 10.0, 300.0])
def test_liouvillian_is_the_projector_jump_kron_sum(h, rate):
    assert np.array_equal(reference._liouvillian(h, rate), kron_sum_liouvillian(h.matrix(), rate))


@pytest.mark.parametrize("h", [NEAR, FOUR_SITES], ids=["near", "four_sites"])
def test_lindblad_integrate_starts_from_the_site0_excitation(h):
    t = np.array([0.0, 1.0, 50.0])
    series = reference.lindblad_integrate(h, 10.0, t)
    rho0 = np.zeros((h.n_sites, h.n_sites))
    rho0[0, 0] = 1.0
    assert series.shape == (3, h.n_sites, h.n_sites)
    assert np.array_equal(series[0], rho0)
    pops = reference.lindblad_populations(h, 10.0, t)
    assert np.array_equal(series.diagonal(axis1=1, axis2=2).real, pops)


def test_fit_round_trip_recovers_known_rate():
    t = np.arange(0.0, 601.0, 2.0)
    synthetic = reference.lindblad_populations(NEAR, 10.0, t)
    fit = reference.fit_dephasing_rate(t, synthetic, NEAR)
    assert abs(fit.gamma_deph_thz - 10.0) < 0.5
    assert fit.residual_rms < 1e-4


def test_fit_on_coherent_series_returns_tiny_rate():
    t = np.arange(0.0, 401.0, 2.0)
    p0, p1 = model.analytic_populations(NEAR, t)
    fit = reference.fit_dephasing_rate(t, np.column_stack([p0, p1]), NEAR)
    assert fit.gamma_deph_thz < 0.2


def test_fit_input_validation():
    t = np.arange(0.0, 601.0, 2.0)
    pops = reference.lindblad_populations(NEAR, 5.0, t)
    short = t[t < 150.0]  # less than two beating periods
    with pytest.raises(ConfigError, match="beating periods"):
        reference.fit_dephasing_rate(short, pops[: short.size], NEAR)
    bad = pops.copy()
    bad[3, 0] = np.nan
    with pytest.raises(ValueError):
        reference.fit_dephasing_rate(t, bad, NEAR)


def test_fit_rejects_populations_outside_the_unit_interval():
    t = np.arange(0.0, 601.0, 2.0)
    pops = reference.lindblad_populations(NEAR, 5.0, t)
    for value in (1e200, -1e200, 1.001, -1e-3):
        bad = pops.copy()
        bad[7, 1] = value
        with pytest.raises(ConfigError, match=r"\[0, 1\]"):
            reference.fit_dephasing_rate(t, bad, NEAR)
    # rounding-level strays, like those of a CSV written as 1 - p, still fit
    near = pops.copy()
    near[0] = [1.0 + 2.2e-16, -2.2e-16]
    fit = reference.fit_dephasing_rate(t, near, NEAR)
    assert abs(fit.gamma_deph_thz - 5.0) < 0.5


def test_fit_reports_unbracketed_minimum():
    # a frozen series is matched ever better by ever larger rates (Zeno limit)
    t = np.arange(0.0, 601.0, 2.0)
    frozen = np.column_stack([np.ones_like(t), np.zeros_like(t)])
    with pytest.raises(NumericalValidationError, match="bracket"):
        reference.fit_dephasing_rate(t, frozen, NEAR)


def test_stacked_rates_equal_each_rate_alone():
    gens = np.stack([reference._liouvillian(NEAR, rate) for rate in ORACLE_RATES_THZ])
    for grid in ORACLE_GRIDS:
        t, runs = reference._spacing_runs(grid)
        stacked = reference._integrate_populations(gens, t, runs, slice(-1, None))
        assert stacked.shape == (len(ORACLE_RATES_THZ), grid.size, 2, 2)
        for rate, rho in zip(ORACLE_RATES_THZ, stacked):
            pops = rho.diagonal(axis1=1, axis2=2).real
            assert np.array_equal(pops, reference.lindblad_populations(NEAR, rate, grid))
            assert np.array_equal(rho, reference.lindblad_integrate(NEAR, rate, grid))


def one_rate_at_a_time_fit(t, p, h, evaluated=None):
    """The fit's log-rate scan and golden-section search, with every rate
    integrated alone by ``lindblad_populations``; the log-rates go to
    ``evaluated`` in evaluation order. It integrates no density matrices,
    so its ``rho`` is None."""
    evaluations = 0

    def objective(log_gamma):
        nonlocal evaluations
        evaluations += 1
        if evaluated is not None:
            evaluated.append(log_gamma)
        pops = reference.lindblad_populations(h, math.exp(log_gamma), t)
        return float(((pops - p) ** 2).sum())

    grid = np.linspace(math.log(reference.BRACKET_THZ[0]), math.log(reference.BRACKET_THZ[1]), 17)
    values = [objective(x) for x in grid]
    best = int(np.argmin(values))
    assert best < len(grid) - 1, "oracle found no bracket"
    a, b = grid[max(best - 1, 0)], grid[best + 1]
    c, d = b - reference._INVPHI * (b - a), a + reference._INVPHI * (b - a)
    fc, fd = objective(c), objective(d)
    while b - a > reference.LOG_TOL:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - reference._INVPHI * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + reference._INVPHI * (b - a)
            fd = objective(d)
    log_best = c if fc < fd else d
    return reference.FitResult(math.exp(log_best), math.sqrt(min(fc, fd) / p.size), evaluations, None)


def refit_style_series(rate_thz: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact populations on the dephasing command's 2-fs grid plus Gaussian
    noise the size of one 5000-shot point, as the refit benchmark writes."""
    t = np.arange(301) * 2.0
    p0 = exact_lindblad_populations(NEAR.matrix(), rate_thz, t)[:, 0]
    rng = np.random.default_rng(int(rate_thz * 100))
    noisy = np.clip(p0 + rng.normal(size=t.size) * np.sqrt(np.clip(p0 * (1.0 - p0), 0.0, None) / 5000), 0.0, 1.0)
    return t, np.column_stack([noisy, 1.0 - noisy])


def coherent_series() -> tuple[np.ndarray, np.ndarray]:
    """The series of test_fit_on_coherent_series_returns_tiny_rate, which
    fits at the lower bracket edge."""
    t = np.arange(0.0, 401.0, 2.0)
    return t, np.column_stack(model.analytic_populations(NEAR, t))


@pytest.mark.parametrize("rate", [0.71, 6.39, 34.77, 70.96, "coherent"])
def test_fit_equals_one_rate_at_a_time_golden_section(monkeypatch, rate):
    t, p = coherent_series() if rate == "coherent" else refit_style_series(rate)
    evaluated = []
    expected = one_rate_at_a_time_fit(t, p, NEAR, evaluated=evaluated)
    stacks = []
    integrate = reference._integrate_populations

    def recording(gens, *args):
        rho = integrate(gens, *args)
        stacks.append((gens, rho.diagonal(axis1=2, axis2=3).real))
        return rho

    monkeypatch.setattr(reference, "_integrate_populations", recording)
    fit = reference.fit_dephasing_rate(t, p, NEAR)
    assert fit == expected
    # the same generators in the same order, each with its populations alone
    gens = np.concatenate([g for g, _ in stacks])
    pops = np.concatenate([q for _, q in stacks])
    assert len(gens) == len(evaluated) == fit.n_evaluations
    for x, gen, q in zip(evaluated, gens, pops):
        assert np.array_equal(gen, reference._liouvillian(NEAR, math.exp(x)))
        assert np.array_equal(q, reference.lindblad_populations(NEAR, math.exp(x), t))
    # the density matrices of the returned rate, as that rate alone gives them
    assert np.array_equal(fit.rho, reference.lindblad_integrate(NEAR, fit.gamma_deph_thz, t))
    if rate == "coherent":  # at the lower edge the search starts one grid step wide
        assert fit.gamma_deph_thz < 0.2 and fit.n_evaluations == 33
    else:
        assert abs(fit.gamma_deph_thz / rate - 1.0) < 0.05 and fit.n_evaluations == 34


def test_fit_checks_each_batch_in_one_call(monkeypatch):
    calls = []
    check = reference.check_density_matrices

    def recording(stack, t_fs=None):
        if t_fs is not None:  # not the initial state's own check
            calls.append((stack.shape, np.array(t_fs)))
        check(stack, t_fs)

    t, p = refit_style_series(6.39)
    monkeypatch.setattr(reference, "check_density_matrices", recording)
    fit = reference.fit_dephasing_rate(t, p, NEAR)
    # the scan's 17 last points, the opening pair, then one per golden step
    assert [shape for shape, _ in calls] == [(17, 2, 2), (2, 2, 2)] + [(1, 2, 2)] * 15
    assert sum(shape[0] for shape, _ in calls) == fit.n_evaluations
    assert all((times == t[-1]).all() for _, times in calls)


@pytest.mark.parametrize(
    "spacing, failing",
    # 12 fs: the two upper scan rates drift, the 293-THz rate by less than
    # the 500-THz one; 10 fs: 293 THz passes the drift check but loses
    # positivity at the last point, before 500 THz drifts
    [(12.0, "trace drifted by"), (10.0, "lost positivity")],
)
def test_batched_fit_reports_the_first_failing_rate(monkeypatch, spacing, failing):
    t = np.arange(0.0, 601.0, spacing)
    p = reference.lindblad_populations(NEAR, 6.0, t)
    monkeypatch.setattr(reference, "MAX_STEP_FS", spacing)
    with pytest.raises(NumericalValidationError) as expected:
        one_rate_at_a_time_fit(t, p, NEAR)
    assert failing in str(expected.value)
    with pytest.raises(NumericalValidationError) as batched:
        reference.fit_dephasing_rate(t, p, NEAR)
    assert str(batched.value) == str(expected.value)
    with pytest.raises(NumericalValidationError) as upper:
        reference.lindblad_populations(NEAR, 500.0, t)
    assert str(upper.value) != str(expected.value)
