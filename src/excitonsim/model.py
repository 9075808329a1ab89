"""Exciton-chain Hamiltonians, units, eigendecomposition, closed-form dynamics.

Energies live in cm^-1 and times in fs throughout the package; the single
bridge between them is PHASE_PER_CM1_FS = 2*pi*c, the accumulated phase in
rad per fs per cm^-1. Populations of a two-site chain prepared with the
excitation on site 0 follow

    P1(t) = (4 J^2 / Omega^2) * sin^2(Omega~ t / 2),   Omega = sqrt(w^2 + 4 J^2)

with w = eps1 - eps0 and Omega~ = Omega * PHASE_PER_CM1_FS; this is the
independent reference the circuit path is checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from excitonsim.errors import ConfigError

SPEED_OF_LIGHT_CM_PER_FS = 2.99792458e-5
PHASE_PER_CM1_FS = 2.0 * math.pi * SPEED_OF_LIGHT_CM_PER_FS
_DIVISIBILITY_RTOL = 1e-9
# _jacobi_eigh's sweep limit, and its off-diagonal tolerance relative to the largest entry
_JACOBI_SWEEPS = 50
_JACOBI_TOL = 1e-14


def exact_steps(span: float, step: float, what: str, least: int = 0) -> int:
    """The whole number (at least ``least``) of steps in ``span``, else a
    ConfigError naming ``what`` and the nearest step that divides it."""
    if not math.isfinite(span / step):
        raise ConfigError(
            f"{what}: {span} over a step of {step} does not give a finite step count"
        )
    n = int(round(span / step))
    if n < least or abs(n * step - span) > _DIVISIBILITY_RTOL * max(abs(span), step):
        raise ConfigError(
            f"{what}: {span} is not an integer multiple of {step} (nearest dividing step: {span / max(1, n)})"
        )
    return n


def _as_readonly(a, dtype=np.float64):
    arr = np.array(a, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class SystemHamiltonian:
    """N-site exciton Hamiltonian in the site basis (cm^-1).

    site_energies_cm1: first-excited-state energy per molecule.
    couplings_cm1: symmetric electronic couplings, zero diagonal.
    N must be a power of two so sites map onto qubit basis states.
    """

    site_energies_cm1: np.ndarray
    couplings_cm1: np.ndarray

    def __post_init__(self):
        eps = _as_readonly(self.site_energies_cm1)
        j = _as_readonly(self.couplings_cm1)
        n = eps.size
        if eps.ndim != 1 or n < 2:
            raise ConfigError("need a 1-d array of at least two site energies")
        if n & (n - 1):
            raise ConfigError(f"n_sites must be a power of two, got {n}")
        if j.shape != (n, n):
            raise ConfigError("couplings must be an n_sites x n_sites matrix")
        if not (np.isfinite(eps).all() and np.isfinite(j).all()):
            raise ConfigError("non-finite Hamiltonian entry")
        if np.abs(j - j.T).max() > 1e-9:
            raise ConfigError("couplings must be symmetric")
        if np.abs(np.diag(j)).max() > 0:
            raise ConfigError("couplings must have a zero diagonal")
        object.__setattr__(self, "site_energies_cm1", eps)
        object.__setattr__(self, "couplings_cm1", j)

    @property
    def n_sites(self) -> int:
        return self.site_energies_cm1.size

    @property
    def n_system_qubits(self) -> int:
        return self.n_sites.bit_length() - 1

    def matrix(self) -> np.ndarray:
        return np.diag(self.site_energies_cm1) + self.couplings_cm1

    @cached_property
    def eigensystem(self) -> "EigenDecomposition":
        """``eigendecompose(self)``, computed once: the Hamiltonian is immutable."""
        return eigendecompose(self)

    @classmethod
    def two_site(cls, eps0: float, eps1: float, coupling: float) -> "SystemHamiltonian":
        return cls([eps0, eps1], [[0.0, coupling], [coupling, 0.0]])

    @classmethod
    def near_resonant(cls) -> "SystemHamiltonian":
        return cls.two_site(13000.0, 12900.0, 126.0)

    @classmethod
    def non_resonant(cls) -> "SystemHamiltonian":
        return cls.two_site(12900.0, 12300.0, 132.0)


@dataclass(frozen=True, eq=False)
class EigenDecomposition:
    """Energies sorted descending; transform rows are the matching eigenvectors.

    Satisfies transform.T @ diag(energies) @ transform == H.
    """

    energies_cm1: np.ndarray
    transform: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "energies_cm1", _as_readonly(self.energies_cm1))
        object.__setattr__(self, "transform", _as_readonly(self.transform))


def _jacobi_eigh(a: np.ndarray):
    """Cyclic Jacobi diagonalization of a small real symmetric matrix.

    Returns (eigenvalues, V) with columns of V the eigenvectors, unsorted.
    Not np.linalg.eigh: LAPACK's code pages measured +0.9 MiB of peak RSS.
    """
    a = a.astype(np.float64).copy()
    n = a.shape[0]
    v = np.eye(n)
    scale = max(np.abs(a).max(), 1.0)
    for _ in range(_JACOBI_SWEEPS):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                off = max(off, abs(a[p, q]))
                if abs(a[p, q]) <= _JACOBI_TOL * scale:
                    continue
                # rotation angle zeroing a[p, q]
                theta = 0.5 * math.atan2(2.0 * a[p, q], a[p, p] - a[q, q])
                c, s = math.cos(theta), math.sin(theta)
                rp, rq = a[:, p].copy(), a[:, q].copy()
                a[:, p] = c * rp + s * rq
                a[:, q] = -s * rp + c * rq
                rp, rq = a[p, :].copy(), a[q, :].copy()
                a[p, :] = c * rp + s * rq
                a[q, :] = -s * rp + c * rq
                a[p, q] = a[q, p] = 0.0
                vp, vq = v[:, p].copy(), v[:, q].copy()
                v[:, p] = c * vp + s * vq
                v[:, q] = -s * vp + c * vq
        if off <= _JACOBI_TOL * scale:
            break
    return np.diag(a).copy(), v


def _two_site(h: SystemHamiltonian, name: str) -> tuple[float, float, float, float]:
    """eps0, eps1, J and Omega = hypot(eps0 - eps1, 2J) of a two-site chain;
    a ConfigError saying that ``name`` is defined for two-site chains else."""
    if h.n_sites != 2:
        raise ConfigError(f"{name} is defined for two-site chains")
    eps0, eps1 = h.site_energies_cm1
    j = h.couplings_cm1[0, 1]
    return eps0, eps1, j, math.hypot(eps0 - eps1, 2.0 * j)


def eigendecompose(h: SystemHamiltonian) -> EigenDecomposition:
    """Diagonalize by Jacobi iteration, for every chain length."""
    w, v = _jacobi_eigh(h.matrix())
    # not np.argsort: its first call maps numpy's sort kernels, +0.25 MiB of RSS
    order = sorted(range(w.size), key=w.__getitem__)[::-1]
    return EigenDecomposition(w[order], v[:, order].T)


def mixing_angle(h: SystemHamiltonian) -> float:
    """Basis-rotation angle for the two-site circuit, atan2(2J, eps0 - eps1).

    RotY(theta) with this angle carries the site basis into the phase-gate
    basis of the evolution circuits; populations produced that way match
    analytic_populations exactly.
    """
    eps0, eps1, j, _ = _two_site(h, "mixing_angle")
    return math.atan2(2.0 * j, eps0 - eps1)


def analytic_populations(h: SystemHamiltonian, t_fs):
    """Closed-form (P0, P1) for a two-site chain prepared in site 0.

    Accepts scalar or array times; depends only on eps0 - eps1 and J, so it
    is invariant under a constant energy shift.
    """
    _, _, j, omega = _two_site(h, "analytic_populations")
    t = np.asarray(t_fs, dtype=np.float64)
    if omega * omega == 0.0:  # a splitting too small to square never beats
        p1 = np.zeros_like(t)
    else:
        amp = 4.0 * j * j / (omega * omega)
        p1 = amp * np.sin(0.5 * omega * PHASE_PER_CM1_FS * t) ** 2
    return 1.0 - p1, p1


def beating_period(h: SystemHamiltonian) -> float:
    """Period 2*pi / (Omega * PHASE_PER_CM1_FS) of the population beating."""
    omega = _two_site(h, "beating_period")[3]
    if omega * PHASE_PER_CM1_FS == 0.0:
        raise ConfigError("degenerate uncoupled system has no beating period")
    return 2.0 * math.pi / (omega * PHASE_PER_CM1_FS)


def estimate_resources(
    n_sites: int, fluctuators_per_site: int = 1, t_fs: float = 0.0, dt_fs: float = 1.0
) -> dict:
    """Qubit count, iteration count and per-iteration gate tallies, as a
    JSON-ready dict.

    The qubit figure follows the algorithm's 2*log2(N) accounting;
    register_qubits is what the simulator allocates (log2(N) system qubits
    plus one reused ancilla). ControlledRotZ is the paper's one gate per
    energy and per fluctuator, N*(1 + F); the simulator applies a site's
    commuting fluctuator gates as one. RotZ and ControlledNot belong to the
    paper's gate set; no circuit here uses them, so their tallies are zero.
    """
    if n_sites < 2 or n_sites & (n_sites - 1):
        raise ConfigError(f"n_sites must be a power of two >= 2, got {n_sites}")
    if fluctuators_per_site < 1:
        raise ConfigError("fluctuators_per_site must be >= 1")
    if not 0 < dt_fs < math.inf:
        raise ConfigError(f"dt_fs must be finite and positive, got {dt_fs}")
    if t_fs < 0:
        raise ConfigError("t_fs must be non-negative")
    iterations = exact_steps(t_fs, dt_fs, "t_fs")
    q = n_sites.bit_length() - 1
    f = fluctuators_per_site
    # X gates select each basis state before/after its controlled rotation:
    # summed over all N states of q bits, half the bits are zero.
    per_iteration = {
        "PauliX": 2 * n_sites * q,
        "ControlledRotZ": n_sites * (1 + f),
        "RotY": 2 if n_sites == 2 else 0,
        "RotZ": 0,
        "ControlledNot": 0,
        "DenseUnitary": 0 if n_sites == 2 else 2,
    }
    total = {kind: count * iterations for kind, count in per_iteration.items()}
    asymptotic = {
        "qubits = 2 log2 N": 2 * q,
        "coherent gates = O(N^2 log2^2 N)": n_sites**2 * q**2,
        "gates per run = O((t/dt) N (log2 N + F))": iterations * n_sites * (q + f),
    }
    return {
        "n_sites": n_sites,
        "fluctuators_per_site": f,
        "t_fs": float(t_fs),
        "dt_fs": float(dt_fs),
        "iterations": iterations,
        "qubits": 2 * q,
        "register_qubits": q + 1,
        "per_iteration": per_iteration,
        "total": total,
        "asymptotic": asymptotic,
    }
