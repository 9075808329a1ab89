"""Hamiltonians, eigendecomposition, closed-form populations, resources."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from excitonsim import model
from excitonsim.errors import ConfigError
from excitonsim.model import SystemHamiltonian

K = 2.0 * math.pi * 2.99792458e-5


def test_phase_constant_matches_quoted_value():
    assert model.PHASE_PER_CM1_FS == pytest.approx(1.8836515673e-4, abs=1e-13)


def test_hamiltonian_validation():
    with pytest.raises(ValueError):
        SystemHamiltonian([1.0, 2.0, 3.0], np.zeros((3, 3)))  # not a power of two
    with pytest.raises(ValueError):
        SystemHamiltonian([1.0, 2.0], [[0.0, 1.0], [2.0, 0.0]])  # asymmetric
    with pytest.raises(ValueError):
        SystemHamiltonian([1.0, 2.0], [[1.0, 0.0], [0.0, 0.0]])  # diagonal coupling


def test_eigendecompose_diagonal_case():
    h = SystemHamiltonian.two_site(13000.0, 12900.0, 0.0)
    decomp = model.eigendecompose(h)
    assert np.allclose(decomp.energies_cm1, [13000.0, 12900.0])
    assert np.allclose(decomp.transform, np.eye(2))


@pytest.mark.parametrize("n", [2, 4])
def test_eigensystem_is_read_only_and_computed_once(n):
    eps = 12500.0 + 100.0 * np.arange(n)
    j = np.full((n, n), 80.0)
    np.fill_diagonal(j, 0.0)
    h = SystemHamiltonian(eps, j)
    decomp = model.eigendecompose(h)
    for arr in decomp:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0
    assert h.eigensystem is h.eigensystem
    for cached, fresh in zip(h.eigensystem, decomp):
        assert np.array_equal(cached, fresh)
    assert h.eigensystem._fields == ("energies_cm1", "transform")


@pytest.mark.parametrize(
    "h,omega",
    [
        (SystemHamiltonian.near_resonant(), math.sqrt(73504.0)),
        (SystemHamiltonian.non_resonant(), math.sqrt(429696.0)),
    ],
)
def test_eigendecompose_builtin_presets(h, omega):
    decomp = model.eigendecompose(h)
    mean = h.site_energies_cm1.mean()
    assert decomp.energies_cm1[0] == pytest.approx(mean + omega / 2, abs=1e-9)
    assert decomp.energies_cm1[1] == pytest.approx(mean - omega / 2, abs=1e-9)
    assert decomp.energies_cm1[0] - decomp.energies_cm1[1] == pytest.approx(omega, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 4]))
def test_reconstruction_property(seed, n):
    rng = np.random.default_rng(seed)
    eps = rng.uniform(-500.0, 500.0, n) + 12500.0
    j = rng.uniform(-200.0, 200.0, (n, n))
    j = 0.5 * (j + j.T)
    np.fill_diagonal(j, 0.0)
    h = SystemHamiltonian(eps, j)
    decomp = model.eigendecompose(h)
    t, e = decomp.transform, decomp.energies_cm1
    assert np.abs(t.T @ np.diag(e) @ t - h.matrix()).max() < 1e-9
    assert np.abs(t @ t.T - np.eye(n)).max() < 1e-10
    assert (np.diff(e) <= 1e-12).all()
    # independent eigenvalue oracle
    assert np.abs(np.sort(e) - np.linalg.eigvalsh(h.matrix())).max() < 1e-8


def test_mixing_angle_limits():
    assert model.mixing_angle(SystemHamiltonian.two_site(13000.0, 12900.0, 0.0)) == 0.0
    assert model.mixing_angle(SystemHamiltonian.two_site(12900.0, 12900.0, 126.0)) == pytest.approx(
        math.pi / 2
    )
    with pytest.raises(ValueError):
        model.mixing_angle(SystemHamiltonian(np.full(4, 1.0), np.zeros((4, 4))))


def test_analytic_populations_initial_and_peak():
    h = SystemHamiltonian.near_resonant()
    p0, p1 = model.analytic_populations(h, 0.0)
    assert (p0, p1) == (1.0, 0.0)
    half = model.beating_period(h) / 2
    _, p1_half = model.analytic_populations(h, half)
    assert p1_half == pytest.approx(4 * 126.0**2 / 73504.0, abs=1e-9)
    assert p1_half == pytest.approx(0.8640, abs=5e-5)
    _, p1_non = model.analytic_populations(
        SystemHamiltonian.non_resonant(), model.beating_period(SystemHamiltonian.non_resonant()) / 2
    )
    assert p1_non == pytest.approx(4 * 132.0**2 / 429696.0, abs=1e-9)
    assert p1_non == pytest.approx(0.1622, abs=5e-5)


@settings(max_examples=40, deadline=None)
@given(st.floats(-5000.0, 5000.0, allow_nan=False), st.floats(0.0, 400.0, allow_nan=False))
def test_populations_invariant_under_energy_offset(shift, t):
    h = SystemHamiltonian.near_resonant()
    shifted = SystemHamiltonian.two_site(13000.0 + shift, 12900.0 + shift, 126.0)
    base = model.analytic_populations(h, t)
    moved = model.analytic_populations(shifted, t)
    assert base[0] == pytest.approx(moved[0], abs=1e-12)
    assert base[1] == pytest.approx(moved[1], abs=1e-12)


def test_populations_match_matrix_exponential_oracle():
    scipy_linalg = pytest.importorskip("scipy.linalg")
    for h in (SystemHamiltonian.near_resonant(), SystemHamiltonian.non_resonant()):
        hm = h.matrix() * K
        worst = 0.0
        for t in np.linspace(0.0, 300.0, 300):
            u = scipy_linalg.expm(-1j * hm * t)
            psi = u[:, 0]
            p0, p1 = model.analytic_populations(h, t)
            worst = max(worst, abs(abs(psi[0]) ** 2 - p0), abs(abs(psi[1]) ** 2 - p1))
        assert worst < 1e-9


def test_peak_amplitude_at_half_period():
    h = SystemHamiltonian.non_resonant()
    period = model.beating_period(h)
    _, p1 = model.analytic_populations(h, period / 2)
    omega = math.sqrt(429696.0)
    assert abs(p1 - 4 * 132.0**2 / omega**2) < 1e-9


def test_beating_periods():
    assert model.beating_period(SystemHamiltonian.near_resonant()) == pytest.approx(
        2 * math.pi / (math.sqrt(73504.0) * K), abs=1e-9
    )
    assert model.beating_period(SystemHamiltonian.near_resonant()) == pytest.approx(123.03, abs=0.01)
    assert model.beating_period(SystemHamiltonian.non_resonant()) == pytest.approx(50.89, abs=0.01)
    equal = SystemHamiltonian.two_site(12900.0, 12900.0, 126.0)
    assert model.beating_period(equal) == pytest.approx(2 * math.pi / (252.0 * K), abs=1e-9)
    with pytest.raises(ConfigError, match="no beating period"):
        model.beating_period(SystemHamiltonian.two_site(12900.0, 12900.0, 0.0))


@pytest.mark.parametrize("name", ["mixing_angle", "analytic_populations", "beating_period"])
def test_closed_forms_refuse_chains_of_more_than_two_sites(name):
    couplings = np.diag([126.0] * 3, 1) + np.diag([126.0] * 3, -1)
    chain = SystemHamiltonian([13000.0, 12900.0, 13000.0, 12900.0], couplings)
    args = (chain, 0.0) if name == "analytic_populations" else (chain,)
    with pytest.raises(ValueError, match=f"^{name} is defined for two-site chains$"):
        getattr(model, name)(*args)
    # the Jacobi branch serves the same chain
    assert model.eigendecompose(chain).energies_cm1.shape == (4,)


def test_estimate_resources_two_sites():
    report = model.estimate_resources(2, fluctuators_per_site=1, t_fs=800.0, dt_fs=2.0)
    assert report["qubits"] == 2
    assert report["register_qubits"] == 2
    assert report["iterations"] == 400
    assert report["per_iteration"]["PauliX"] == 4
    assert report["per_iteration"]["ControlledRotZ"] == 4
    assert report["per_iteration"]["RotY"] == 2
    assert report["total"]["PauliX"] == 1600


def test_estimate_resources_grows_with_chain():
    small = model.estimate_resources(2, 1, 100.0, 2.0)
    large = model.estimate_resources(4, 1, 100.0, 2.0)
    assert large["qubits"] == 4
    assert large["register_qubits"] == 3
    gate_total = lambda rep: sum(rep["per_iteration"].values())
    assert gate_total(large) > gate_total(small)
    assert large["asymptotic"]["coherent gates = O(N^2 log2^2 N)"] > small["asymptotic"][
        "coherent gates = O(N^2 log2^2 N)"
    ]


def test_estimate_resources_rejects_bad_input():
    with pytest.raises(ConfigError):
        model.estimate_resources(3)
    with pytest.raises(ConfigError):
        model.estimate_resources(2, 1, 801.0, 2.0)
    # an infinite step would give zero iterations and a report that is not JSON
    for dt_fs in (math.inf, math.nan, 0.0, -2.0):
        with pytest.raises(ConfigError, match="dt_fs must be finite and positive"):
            model.estimate_resources(2, 1, 0.0, dt_fs)
