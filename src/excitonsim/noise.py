"""Bi-stable fluctuator trajectories and the stochastic ensemble simulation.

Each site couples to F independent telegraph fluctuators. A fluctuator holds
a value xi in {+1/2, -1/2}; at iteration 0 and at every switch interval
a = waiting_time / dt it is re-drawn by a fair coin (so it may repeat, and
constant-energy stretches have geometrically distributed length). The site
energy shift is g * sum of its fluctuators' values.

Seeding: run r derives its streams from SeedSequence([master_seed, r]), so
a run's results do not depend on which other runs share its block.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from excitonsim.circuits import build_iteration_circuit, coherent_angle
from excitonsim.errors import ConfigError, NumericalValidationError
from excitonsim.model import PHASE_PER_CM1_FS, SystemHamiltonian, exact_steps
from excitonsim.qcore import NORM_TOL, _execute_packed

# probability an iteration circuit may move out of the ancilla-|1> half
_LEAK_TOL = 1e-12
# numpy's multinomial sampler counts in int64
MAX_SHOTS = np.iinfo(np.int64).max
# what a command holds that does not grow with runs or points (the config,
# the circuits, the fit's propagators, lazy imports): measured under 0.2 MiB
FIXED_BYTES = 2**18


def _physical_memory_bytes() -> int:
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):  # no sysconf: no bound but numpy's
        return np.iinfo(np.intp).max


def check_memory(need: int, what: str) -> None:
    """ConfigError if ``need`` bytes for ``what`` would not fit in physical memory."""
    have = _physical_memory_bytes()
    if need > have:
        raise ConfigError(
            f"{what}: {need / 2**30:.3g} GiB needed, more than the {have / 2**30:.3g} GiB of memory"
        )


def _compile_bytes(n_sites: int) -> int:
    """Peak bytes per pattern of ``_step_unitaries``, in a gate: the (2D, D) complex128
    register (D = n_sites), the gate's temporaries (1.5 registers for a two-site RotY
    before numpy elides one, 1 + 1/D for a DenseUnitary) and each site's float64 angle."""
    block = 32 * n_sites * n_sites
    return block + (3 * block // 2 if n_sites == 2 else block + block // n_sites) + 8 * n_sites


def check_ensemble_memory(noise_cfg: "FluctuatorConfig", ens: "EnsembleConfig") -> None:
    """ConfigError if the ensemble's peak would not fit in physical memory.

    Its phases peak one after another: the draw (one run's int64 sign bits,
    and every run's keys of n_sites counts per interval in the smallest dtype
    that holds F, with the copies and int64 indices np.unique makes), the
    compile (``_compile_bytes`` for each of at most (F + 1)^n_sites patterns)
    and the steps (each pattern's step unitary, the float64 shot frequencies,
    and per point the mean, its error and one run's counts). The pattern sums
    and the int32 pattern index outlive the draw, and each run holds a seed
    sequence and state."""
    f, n = noise_cfg.fluctuators_per_site, noise_cfg.n_sites
    n_points = ens.n_steps + 1
    n_intervals = max(-(-ens.n_steps // noise_cfg.switch_interval_steps(ens.dt_fs)), 1)
    keys = ens.runs * n_intervals
    n_patterns = min((f + 1) ** n, keys)
    draw = n * (f + 1) * n_intervals * 8 + keys * (3 * n * np.min_scalar_type(f).itemsize + 32)
    compile_ = n_patterns * _compile_bytes(n)
    steps = n_patterns * 16 * n * n + ens.runs * n_points * 8 * n + n_points * 8 * (4 * n + 1)
    held = n_patterns * 8 * n + keys * 4 + ens.runs * (1024 + 32 * n * n) + FIXED_BYTES
    check_memory(
        max(draw, compile_, steps) + held,
        f"runs={ens.runs} with {f} fluctuators per site "
        "(per-run frequencies, pattern keys and step unitaries)",
    )


def check_phase_angles(h: SystemHamiltonian, noise_cfg: "FluctuatorConfig", dt_fs: float) -> None:
    """ConfigError if an iteration circuit's phase angles could overflow the
    float range. The bound is the largest summed fluctuator angle,
    F * max(g) * 2 pi c * dt, plus the largest coherent angle at dt."""
    f, g = noise_cfg.fluctuators_per_site, float(noise_cfg.strengths_cm1.max())
    if not math.isfinite(f * g * (PHASE_PER_CM1_FS * dt_fs) + coherent_angle(h, dt_fs)):
        raise ConfigError(
            f"strength_cm1={g}, fluctuators_per_site={f} and dt_fs={dt_fs} overflow a phase angle"
        )


@dataclass(frozen=True, eq=False)
class FluctuatorConfig:
    """Telegraph-noise parameters: per-site strength g (cm^-1), switch rate
    gamma (THz), fluctuators per site."""

    strengths_cm1: np.ndarray
    switching_rate_thz: float
    fluctuators_per_site: int = 1

    def __post_init__(self):
        g = np.atleast_1d(np.asarray(self.strengths_cm1, dtype=np.float64))
        if g.ndim != 1 or g.size < 1 or (g < 0).any() or not np.isfinite(g).all():
            raise ConfigError("strengths_cm1 must be non-negative and finite")
        if not self.switching_rate_thz > 0:
            raise ConfigError("switching_rate_thz must be positive")
        if self.fluctuators_per_site < 1:
            raise ConfigError("fluctuators_per_site must be >= 1")
        g.setflags(write=False)
        object.__setattr__(self, "strengths_cm1", g)

    @classmethod
    def uniform(cls, strength_cm1, n_sites, switching_rate_thz, fluctuators_per_site=1):
        return cls(
            np.full(n_sites, float(strength_cm1)),
            switching_rate_thz,
            fluctuators_per_site,
        )

    @property
    def n_sites(self) -> int:
        return self.strengths_cm1.size

    @property
    def waiting_time_fs(self) -> float:
        return 1e3 / self.switching_rate_thz

    def switch_interval_steps(self, dt_fs: float) -> int:
        """Iterations per fluctuator interval; dt must divide the waiting time."""
        if dt_fs <= 0:
            raise ConfigError("dt_fs must be positive")
        return exact_steps(self.waiting_time_fs, dt_fs, "the fluctuator waiting time (fs)", least=1)


def generate_trajectory(config: FluctuatorConfig, n_iterations: int, dt_fs: float, seed) -> np.ndarray:
    """Per-site energy shifts (cm^-1) of an n_iterations-step trajectory,
    shape (n_sites, n_iterations); deterministic in the seed.

    Each (site, fluctuator, interval) draws a fair-coin bit b and holds the
    value b - 1/2; a site's shift is g times the sum of its fluctuators'
    values, held for each step of the interval.
    """
    if n_iterations < 0:
        raise ValueError("n_iterations must be non-negative")
    a = config.switch_interval_steps(dt_fs)
    n_intervals = max(-(-n_iterations // a), 1)
    bits = np.random.default_rng(seed).integers(
        0, 2, size=(config.n_sites, config.fluctuators_per_site, n_intervals)
    )
    shifts = config.strengths_cm1[:, None] * (bits - 0.5).sum(axis=1)
    return np.repeat(shifts, a, axis=1)[:, :n_iterations]


@dataclass(frozen=True, eq=False)
class EnsembleConfig:
    """Monte Carlo controls: runs, shots per time point, step, horizon, seed."""

    runs: int
    shots: int
    dt_fs: float
    t_max_fs: float
    master_seed: int

    def __post_init__(self):
        if self.runs < 1:
            raise ConfigError("runs must be >= 1")
        if not 1 <= self.shots <= MAX_SHOTS:
            raise ConfigError(f"shots must be between 1 and {MAX_SHOTS}")
        if self.dt_fs <= 0:
            raise ConfigError("dt_fs must be positive")
        if self.t_max_fs < 0:
            raise ConfigError("t_max_fs must be non-negative")
        if self.master_seed < 0:
            raise ConfigError("master_seed must be non-negative")
        self.n_steps  # validates divisibility

    @property
    def n_steps(self) -> int:
        return exact_steps(self.t_max_fs, self.dt_fs, "t_max_fs")

    def time_grid_fs(self) -> np.ndarray:
        return np.arange(self.n_steps + 1) * self.dt_fs


@dataclass(eq=False)
class EnsembleResult:
    """Across-run mean of shot frequencies with standard errors."""

    t_fs: np.ndarray
    p_mean: np.ndarray
    p_stderr: np.ndarray


def _step_unitaries(
    h: SystemHamiltonian,
    noise_cfg: FluctuatorConfig,
    dt_fs: float,
    patterns: np.ndarray,
) -> np.ndarray:
    """System unitary of each pattern's iteration circuit, (P, D, D).

    The (P, n_sites) per-site sums differ only in the fluctuator gates'
    angles, so one circuit built over all of them runs in one execution on
    a (2D, P, D) block: column m of pattern p starts as |m>_sys (x) |1>_anc.
    It must leave the ancilla in |1>, so its |0> half is checked to stay empty.
    """
    n_sys = h.n_system_qubits
    dim = 1 << n_sys
    circuit = build_iteration_circuit(h, dt_fs, patterns, noise_cfg.strengths_cm1)
    amps = np.zeros((2 * dim, len(patterns), dim), dtype=np.complex128)
    amps[dim:] = np.eye(dim)[:, None, :]
    amps = _execute_packed(amps, n_sys + 1, circuit.packed())
    leak = (amps[:dim].real ** 2 + amps[:dim].imag ** 2).sum(axis=0)
    leaked = np.argwhere(~(leak <= _LEAK_TOL))
    if leaked.size:
        p, m = leaked[0]
        raise NumericalValidationError(
            f"fluctuator sums {patterns[p].tolist()}: basis state {m} leaked "
            f"{float(leak[p, m])!r} into the ancilla-|0> half"
        )
    return np.ascontiguousarray(amps[dim:].transpose(1, 0, 2))


def _sign_patterns(
    noise_cfg: FluctuatorConfig, ens: EnsembleConfig, run_indices: range
) -> tuple[np.ndarray, np.ndarray, list]:
    """Distinct per-site fluctuator sums of a block of runs, and where each run uses them.

    Returns ``patterns`` (P, n_sites), each site's sum of its fluctuators'
    +-1/2 values, sorted lexicographically; ``pattern_index`` (runs,
    intervals), so that run k holds ``patterns[pattern_index[k, i // interval]]``
    at step i; and each run's shot seed. Run r draws its interval bits from
    the first child of SeedSequence([master_seed, r]) with the same
    ``integers`` call as ``generate_trajectory``, so a site's sum times g
    is that function's shift. Each interval's bits are counted per
    site in the smallest unsigned dtype that holds F, big-endian, and one
    interval's row of counts is one void item, so the 1-D sort that finds
    the distinct items orders them as the rows of sums (count - F/2) sort.
    """
    interval = noise_cfg.switch_interval_steps(ens.dt_fs)
    n_intervals = -(-ens.n_steps // interval)
    n_sites = noise_cfg.n_sites
    f = noise_cfg.fluctuators_per_site
    key_dtype = np.min_scalar_type(f).newbyteorder(">")
    counts = np.empty((len(run_indices), n_intervals, n_sites), dtype=key_dtype)
    shot_seeds = []
    for k, r in enumerate(run_indices):
        # the two children .spawn(2) would make, without hashing the parent
        traj_ss, shot_ss = (
            np.random.SeedSequence([ens.master_seed, r], spawn_key=(i,)) for i in (0, 1)
        )
        shot_seeds.append(shot_ss)
        # no name keeps a run's bits, so one run's are held at a time
        rng = np.random.default_rng(traj_ss)
        counts[k] = rng.integers(0, 2, size=(n_sites, f, max(n_intervals, 1))).sum(axis=1)[:, :n_intervals].T
    width = n_sites * key_dtype.itemsize
    codes, inverse = np.unique(
        counts.view(np.dtype((np.void, width))).reshape(-1), return_inverse=True
    )
    patterns = codes.view(key_dtype).reshape(-1, n_sites) - f / 2
    pattern_index = inverse.astype(np.int32).reshape(len(run_indices), n_intervals)
    return patterns, pattern_index, shot_seeds


def _run_frequencies(
    h: SystemHamiltonian,
    noise_cfg: FluctuatorConfig,
    ens: EnsembleConfig,
    run_indices: range,
) -> np.ndarray:
    """Shot frequencies for a block of runs, shape (runs, n_steps + 1, n_sites).

    The block's distinct per-site fluctuator sums are compiled to their
    step unitaries through one circuit, and all runs advance together: each
    run's step unitary is gathered once per switch interval and applied once
    per step. Run r draws its trajectory and its shots from the two children
    of SeedSequence([master_seed, r]), so a run's frequencies do not depend
    on which block it is in.
    """
    n_steps = ens.n_steps
    n_runs = len(run_indices)
    interval = noise_cfg.switch_interval_steps(ens.dt_fs)
    patterns, pattern_index, shot_seeds = _sign_patterns(noise_cfg, ens, run_indices)
    unitaries = _step_unitaries(h, noise_cfg, ens.dt_fs, patterns)

    states = np.zeros((n_runs, 1 << h.n_system_qubits), dtype=np.complex128)
    states[:, 0] = 1.0
    probs = np.empty((n_runs, n_steps + 1, h.n_sites), dtype=np.float64)
    probs[:, 0] = states.real**2 + states.imag**2
    for j, start in enumerate(range(0, n_steps, interval)):
        step = unitaries[pattern_index[:, j]]
        for i in range(start, min(start + interval, n_steps)):
            states = np.einsum("rij,rj->ri", step, states)
            probs[:, i + 1] = states.real**2 + states.imag**2

    norm2 = probs[:, -1].sum(axis=1)
    drifted = np.flatnonzero(~(np.abs(norm2 - 1.0) <= NORM_TOL))
    if drifted.size:
        k = drifted[0]
        raise NumericalValidationError(
            f"run {run_indices[k]}: norm^2 drifted to {float(norm2[k])!r}"
        )

    # the probabilities are overwritten in place by each run's frequencies
    for run, shot_ss in zip(probs, shot_seeds):
        run /= run.sum(axis=1, keepdims=True)
        counts = np.random.default_rng(shot_ss).multinomial(ens.shots, run)
        np.divide(counts, ens.shots, out=run)
    return probs


def run_ensemble(
    h: SystemHamiltonian,
    noise_cfg: FluctuatorConfig,
    ens: EnsembleConfig,
    workers: int = 1,
) -> EnsembleResult:
    """Average shot frequencies over ens.runs independent trajectories.

    All runs are evolved together in one block. ``workers`` selects nothing;
    it is still accepted, and below 1 it is a ConfigError.
    """
    if noise_cfg.n_sites != h.n_sites:
        raise ConfigError("fluctuator configuration does not match the chain size")
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    check_ensemble_memory(noise_cfg, ens)
    check_phase_angles(h, noise_cfg, ens.dt_fs)
    freqs = _run_frequencies(h, noise_cfg, ens, range(ens.runs))
    p_mean = freqs.mean(axis=0)
    if ens.runs > 1:
        # std(ddof=1) as numpy computes it, in the frequencies' own buffer
        np.subtract(freqs, p_mean, out=freqs)
        np.multiply(freqs, freqs, out=freqs)
        p_stderr = np.sqrt(freqs.sum(axis=0) / (ens.runs - 1)) / np.sqrt(ens.runs)
    else:
        p_stderr = np.zeros_like(p_mean)
    return EnsembleResult(
        t_fs=ens.time_grid_fs(),
        p_mean=p_mean,
        p_stderr=p_stderr,
    )
