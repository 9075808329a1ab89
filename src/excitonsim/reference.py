"""Classical reference solutions used to validate the circuit pipeline.

Three independent routes:

* exact_trajectory_series: for fixed per-site energy shifts at each step
  (a telegraph-noise trajectory from ``noise.generate_trajectory``) the
  total Hamiltonian is constant within each step, so the exact populations
  on the iteration grid follow from products of dense matrix exponentials
  (no Trotter error).
* lindblad_integrate: pure-dephasing master equation with one projector
  jump operator per site and a single rate gamma_deph, integrated by
  classical fixed-step RK4 on the vectorized generator. Because the
  generator is constant, the RK4 steps between two grid points fold into one
  propagator matrix (the step's degree-4 Taylor polynomial, raised to the
  number of sub-steps), built once per distinct grid spacing and cached for
  the call; a run of equally spaced points is then filled by repeated
  squaring of that propagator, a handful of matrix products per run.
* fit_dephasing_rate: least-squares match of the Lindblad populations to an
  ensemble time series, golden-section search over log(gamma_deph); the
  rates of its bracket scan are integrated as one stack of generators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from excitonsim.errors import ConfigError, NumericalValidationError
from excitonsim.model import PHASE_PER_CM1_FS, SystemHamiltonian, beating_period

THZ_TO_INV_FS = 1e-3

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-9
POSITIVITY_TOL = -1e-8
# how far an ensemble population handed to the fit may stray outside [0, 1]
POPULATION_TOL = 1e-6

# largest RK4 sub-step of the Lindblad integration
MAX_STEP_FS = 0.5
# the fit's scan integrates SCAN_RATES log-spaced rates over this range as one
# stack; its golden-section search stops once the bracket is this narrow in log(gamma)
BRACKET_THZ = (0.1, 500.0)
SCAN_RATES = 17
LOG_TOL = 1e-3


def fit_bytes_per_point(n_sites: int) -> int:
    """Bytes per time point at the fit's peak: SCAN_RATES complex128 density matrices and their trace drifts."""
    return SCAN_RATES * (16 * n_sites**2 + 16)


def _density_problem(stack: np.ndarray) -> str | None:
    """The first of the four checks that some matrix of the stack fails, or None."""
    if not np.isfinite(stack).all():
        return "has non-finite entries"
    if not np.abs(stack - stack.conj().swapaxes(1, 2)).max() <= HERMITICITY_TOL:
        return "is not Hermitian"
    trace = stack.diagonal(axis1=1, axis2=2).sum(axis=1)
    drift = np.abs(trace.real - 1.0)
    if not drift.max() <= TRACE_TOL:
        return f"has its trace drifted to {trace[np.argmax(drift)]!r}"
    # every entry is finite here. Elimination on stack - POSITIVITY_TOL * I
    # keeps every pivot > 0 exactly when each eigenvalue clears the
    # tolerance; pivots, not eigvalsh, so that no run maps LAPACK's code
    # pages (0.7 MiB of resident memory). An overflowed pivot is -inf or nan.
    n = stack.shape[-1]
    a = stack - POSITIVITY_TOL * np.eye(n)
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(n):
            d = a[:, j, j].real
            if not (d > 0).all():
                return "lost positivity"
            if j + 1 < n:
                a[:, j + 1 :, j + 1 :] -= a[:, j + 1 :, j, None] * (a[:, None, j, j + 1 :] / d[:, None, None])
    return None


def check_density_matrices(stack: np.ndarray, t_fs) -> None:
    """NumericalValidationError unless every matrix of an (n_points, n, n)
    stack is finite, Hermitian, of unit trace and (tolerantly) positive.

    Each check runs once over the whole stack. The error names the first
    failing point by its time in ``t_fs`` (one per point)."""
    if _density_problem(stack) is None:
        return
    for k in range(len(stack)):
        problem = _density_problem(stack[k : k + 1])
        if problem is not None:
            break
    raise NumericalValidationError(f"density matrix at t = {float(t_fs[k])!r} fs {problem}")


def _generator_parts(h: SystemHamiltonian) -> tuple[np.ndarray, np.ndarray]:
    """The Liouvillian on row-major vec(rho) is coherent + rate * dephasing.

    coherent is -i[H, .]; with one projector jump |m><m| per site, the
    dissipator leaves populations alone and damps each coherence rho_ij
    (i != j) at the full rate, so dephasing is diag(-(1 - delta_ij))."""
    n = h.n_sites
    eye = np.eye(n)
    h_rad = h.matrix() * PHASE_PER_CM1_FS
    coherent = -1j * (np.kron(h_rad, eye) - np.kron(eye, h_rad.T))
    dephasing = np.diag(eye.reshape(-1) - 1.0)
    return coherent, dephasing


def _liouvillian(h: SystemHamiltonian, gamma_deph_thz: float) -> np.ndarray:
    """Generator of the site-projector dephasing model (jump operators
    |m><m|, rate in THz) on row-major vec(rho), in 1/fs."""
    if not (math.isfinite(gamma_deph_thz) and gamma_deph_thz >= 0):
        raise ValueError(f"gamma_deph_thz must be finite and >= 0, got {gamma_deph_thz!r}")
    coherent, dephasing = _generator_parts(h)
    return coherent + (gamma_deph_thz * THZ_TO_INV_FS) * dephasing


def _rk4_propagator(gens: np.ndarray, span_fs: float) -> np.ndarray:
    """Matrices that advance vec(rho) by span_fs under each generator of a
    (G, n^2, n^2) stack: n_sub classical RK4 steps of at most MAX_STEP_FS.

    On a constant generator one RK4 step of size h is exactly the degree-4
    Taylor polynomial of A = h*gen, so the span is that polynomial to the
    n_sub-th power (an exponential of gen would be more accurate but would
    not be this integrator, and would move the reported populations).
    """
    n_sub = max(1, math.ceil(span_fs / MAX_STEP_FS - 1e-12))
    a = (span_fs / n_sub) * gens
    a2 = a @ a
    step = np.eye(gens.shape[-1]) + a + a2 / 2.0 + (a2 @ a) / 6.0 + (a2 @ a2) / 24.0
    return np.linalg.matrix_power(step, n_sub)


def _spacing_runs(t_grid_fs) -> tuple[np.ndarray, list[tuple[int, int, float]]]:
    """The validated time grid and its runs of equal spacing, as (a, b, span)
    for the points [a, b). A grid from t = 0 leaves its first point, the
    initial state itself, out of every run."""
    t = np.asarray(t_grid_fs, dtype=np.float64)
    if t.ndim != 1 or t.size == 0:
        raise ConfigError("time grid must be a non-empty 1-d array")
    spans = np.diff(t, prepend=0.0)
    if not ((spans[1:] > 0).all() and t[0] >= 0):
        raise ConfigError("time grid must be strictly increasing and non-negative")
    if not t[-1] < 2.0**53 * MAX_STEP_FS:
        raise ConfigError("time grid needs more than 2^53 RK4 sub-steps")
    first = int(spans[0] == 0.0)
    bounds = sorted({first, t.size, *(np.flatnonzero(spans[1:] != spans[:-1]) + 1).tolist()})
    return t, [(a, b, float(spans[a])) for a, b in zip(bounds, bounds[1:])]


def _integrate_populations(
    gens: np.ndarray,
    t: np.ndarray,
    runs: list[tuple[int, int, float]],
    checked: slice,
) -> np.ndarray:
    """Shared stepping core: rho at every grid point for each generator of a
    (G, n^2, n^2) stack, shape (G, n_points, n, n), from the site-0
    excitation |0><0|, the initial state of every caller.

    The grid (from ``_spacing_runs``) is walked in runs of equal spacing, with
    one RK4 propagator P per distinct spacing. A run of L points is filled by
    repeated squaring: with the first m points of the run known, the next m
    are those points times P^m, and P^2m = P^m P^m, so a run costs
    ceil(log2 L) products. Each generator's products are those of a stack of
    one, so its result does not depend on the rest of the stack.

    Each generator is checked as a call of its own would be, in stack order:
    its trace drift at every point, then the density checks at the points
    ``checked`` selects. The first generator that fails is reported."""
    n = math.isqrt(gens.shape[-1])
    v = np.zeros(n * n, dtype=np.complex128)
    v[0] = 1.0  # vec(|0><0|)
    out = np.empty((len(gens), t.size, v.size), dtype=np.complex128)
    out[:, : int(t[0] == 0.0)] = v  # a grid from t = 0 starts with |0><0| itself
    propagators: dict[float, np.ndarray] = {}
    # a step too large for RK4 overflows; the trace check below reports it
    with np.errstate(over="ignore", invalid="ignore"):
        for a, b, span in runs:
            prop = propagators.get(span)
            if prop is None:
                prop = propagators[span] = _rk4_propagator(gens, span)
            out[:, a] = (prop @ (out[:, a - 1, :, None] if a else v[:, None]))[..., 0]
            filled = 1
            while filled < b - a:
                m = min(filled, b - a - filled)
                np.matmul(out[:, a : a + m], prop.swapaxes(1, 2), out=out[:, a + filled : a + filled + m])
                filled += m
                if filled < b - a:
                    prop = prop @ prop
        # the generator keeps the trace, so an unstable step shows in the real diagonal
        drift = np.einsum("gpi->gp", out[..., :: n + 1].real)
        drift -= 1.0
        drift = np.abs(drift, out=drift).max(axis=1)
    failed = np.flatnonzero(~(drift <= 1e-6))
    n_ok = int(failed[0]) if failed.size else len(gens)
    stack = out.reshape(len(gens), t.size, n, n)
    if n_ok:
        check_density_matrices(stack[:n_ok, checked].reshape(-1, n, n), np.tile(t[checked], n_ok))
    if failed.size:
        raise NumericalValidationError(
            f"integration step too large: trace drifted by {drift[n_ok]:.3e}"
        )
    return stack


def lindblad_integrate(h: SystemHamiltonian, gamma_deph_thz: float, t_grid_fs) -> np.ndarray:
    """Density matrices from |0><0| on the grid, shape (n_points, n, n);
    every point is invariant-checked, all in one call."""
    t, runs = _spacing_runs(t_grid_fs)
    return _integrate_populations(_liouvillian(h, gamma_deph_thz)[None], t, runs, slice(None))[0]


def lindblad_populations(h: SystemHamiltonian, gamma_deph_thz: float, t_grid_fs) -> np.ndarray:
    """Site populations from |0><0|, shape (n_points, n_sites). The same
    integrator as ``lindblad_integrate``, with the invariants checked only
    at the last point, as the fit checks each of its rates."""
    t, runs = _spacing_runs(t_grid_fs)
    rho = _integrate_populations(_liouvillian(h, gamma_deph_thz)[None], t, runs, slice(-1, None))[0]
    return rho.diagonal(axis1=1, axis2=2).real


def exact_trajectory_series(h: SystemHamiltonian, shifts_cm1, dt_fs: float) -> np.ndarray:
    """Piecewise-exact populations on the iteration grid, (n_steps+1, n_sites),
    for per-site energy shifts of shape (n_sites, n_steps) in cm^-1.

    Within each step the full Hamiltonian (chain + fluctuator shifts) is
    constant, so each step is a dense eigh-based matrix exponential; the only
    approximation anywhere is measurement statistics, which this bypasses.
    """
    shifts = np.asarray(shifts_cm1, dtype=np.float64)
    if shifts.ndim != 2 or shifts.shape[0] != h.n_sites:
        raise ValueError(f"shifts must have shape ({h.n_sites}, n_steps), got {shifts.shape}")
    n_steps = shifts.shape[1]
    h_site = h.matrix()
    psi = np.zeros(h.n_sites, dtype=np.complex128)
    psi[0] = 1.0
    out = np.empty((n_steps + 1, h.n_sites), dtype=np.float64)
    out[0] = np.abs(psi) ** 2
    cache: dict = {}
    for i in range(n_steps):
        key = shifts[:, i].tobytes()
        u = cache.get(key)
        if u is None:
            total = h_site + np.diag(shifts[:, i])
            w, vecs = np.linalg.eigh(total)
            u = (vecs * np.exp(-1j * w * PHASE_PER_CM1_FS * dt_fs)) @ vecs.conj().T
            cache[key] = u
        psi = u @ psi
        out[i + 1] = np.abs(psi) ** 2
    return out


@dataclass(frozen=True)
class FitResult:
    gamma_deph_thz: float
    residual_rms: float
    n_evaluations: int
    # density matrices of the fitted rate on the series' grid, (n_points, n, n),
    # checked only at the last point, as every rate the fit evaluates is
    rho: np.ndarray = field(repr=False, compare=False)


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def check_fit_span(h: SystemHamiltonian, span_fs: float) -> None:
    """ConfigError unless a series spanning ``span_fs`` covers the two
    beating periods of ``h`` that the fit needs; a chain without a beating
    period is one too."""
    need = 2.0 * beating_period(h)
    if span_fs < need:
        raise ConfigError(
            f"a series of {span_fs:.6g} fs is shorter than the two beating periods "
            f"({need:.6g} fs) the dephasing-rate fit needs"
        )


def fit_dephasing_rate(t_fs, populations, h: SystemHamiltonian) -> FitResult:
    """Dephasing rate whose Lindblad populations best match the series,
    with the density matrices of that rate.

    Scans a log-spaced grid over BRACKET_THZ to bracket the minimum of the
    summed squared deviation, then refines by golden-section search in log
    space to LOG_TOL. A minimum pushed against the upper bracket edge is a
    NumericalValidationError; the lower edge is a legitimate answer for
    effectively coherent series. A series of the wrong shape, with
    non-finite values or populations outside [0, 1], that ``check_fit_span``
    refuses or on a grid that is not strictly increasing from t >= 0, is a
    ConfigError.
    """
    t = np.asarray(t_fs, dtype=np.float64)
    p = np.asarray(populations, dtype=np.float64)
    if p.ndim != 2 or p.shape[0] != t.size or p.shape[1] != h.n_sites:
        raise ConfigError("populations must have shape (len(t_fs), n_sites)")
    if not (np.isfinite(t).all() and np.isfinite(p).all()):
        raise ConfigError("non-finite values in the ensemble series")
    check_fit_span(h, t[-1] - t[0] if t.size else 0.0)

    worst = float(p.flat[np.argmax(np.abs(p - 0.5))])
    if not abs(worst - 0.5) <= 0.5 + POPULATION_TOL:
        raise ConfigError(f"ensemble populations must lie in [0, 1], got {worst!r}")

    # the generator is coherent + rate * dephasing; both parts and the
    # grid's runs are built once per fit
    coherent, dephasing = _generator_parts(h)
    t, runs = _spacing_runs(t)
    evaluations = 0

    # summed squared deviation and density matrices at each log-rate, all
    # integrated as one stack
    def objectives(log_gammas) -> tuple[list[float], np.ndarray]:
        nonlocal evaluations
        evaluations += len(log_gammas)
        # math.exp, not np.exp: the two differ in the last bit for some rates
        rates = np.array([math.exp(x) * THZ_TO_INV_FS for x in log_gammas])
        rhos = _integrate_populations(coherent + rates[:, None, None] * dephasing, t, runs, slice(-1, None))
        pops = rhos.diagonal(axis1=2, axis2=3).real
        return [float(((q - p) ** 2).sum()) for q in pops], rhos

    lo, hi = BRACKET_THZ
    grid = np.linspace(math.log(lo), math.log(hi), SCAN_RATES)
    values, _ = objectives(grid)
    best = int(np.argmin(values))
    if best == len(grid) - 1:
        raise NumericalValidationError(
            "dephasing-rate fit: failed to bracket a minimum: best dephasing rate at the upper bound"
        )
    a = grid[max(best - 1, 0)]
    b = grid[best + 1]

    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    (fc, fd), (rho_c, rho_d) = objectives([c, d])
    while b - a > LOG_TOL:
        if fc < fd:
            b, d, fd, rho_d = d, c, fc, rho_c
            c = b - _INVPHI * (b - a)
            (fc,), (rho_c,) = objectives([c])
        else:
            a, c, fc, rho_c = c, d, fd, rho_d
            d = a + _INVPHI * (b - a)
            (fd,), (rho_d,) = objectives([d])
    log_best, sse, rho = (c, fc, rho_c) if fc < fd else (d, fd, rho_d)
    rms = math.sqrt(sse / p.size)
    return FitResult(math.exp(log_best), rms, evaluations, rho)
