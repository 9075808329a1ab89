"""Builders for the coherent evolution circuit and the dephasing iteration.

Both circuits act on log2(N) system qubits (low indices) plus one ancilla
(highest index) that stays in |1> throughout; diagonal evolution is imprinted
as controlled-RotZ phase kickback onto that ancilla, with X gates selecting
the basis state each rotation applies to. Phase angles use energies offset
by their mean, which changes nothing observable but keeps angles small.
"""

from __future__ import annotations

import numpy as np

from excitonsim.errors import NumericalValidationError
from excitonsim.model import PHASE_PER_CM1_FS, SystemHamiltonian, mixing_angle
from excitonsim.qcore import NORM_TOL, Gate, QuantumCircuit, _execute_packed, _site_probs


def _selective_phase_gates(values_cm1, scale, system_qubits, ancilla):
    """Phase e^{-i v * scale} on each system basis state m, via select + CRotZ.

    X gates flip the zero bits of m so the all-ones control pattern matches
    exactly that basis state, then flip them back.
    """
    gates = []
    for m, value in enumerate(values_cm1):
        zero_bits = [q for k, q in enumerate(system_qubits) if not (m >> k) & 1]
        for q in zero_bits:
            gates.append(Gate.x(q))
        gates.append(Gate.crz(-2.0 * value * scale, tuple(system_qubits), ancilla))
        for q in zero_bits:
            gates.append(Gate.x(q))
    return gates


def coherent_angle(h: SystemHamiltonian, t_fs: float) -> float:
    """Largest |angle| of the coherent circuit's phase gates at time t_fs; inf on overflow."""
    energies = h.eigensystem.energies_cm1
    return 2.0 * float(np.abs(energies - energies.mean()).max()) * (PHASE_PER_CM1_FS * float(t_fs))


def _coherent_gates(h: SystemHamiltonian, t_fs):
    decomp = h.eigensystem
    energies = decomp.energies_cm1 - decomp.energies_cm1.mean()
    n_sys = h.n_system_qubits
    system = tuple(range(n_sys))
    ancilla = n_sys
    scale = PHASE_PER_CM1_FS * np.asarray(t_fs, dtype=np.float64)
    gates = []
    if h.n_sites == 2:
        theta = mixing_angle(h)
        gates.append(Gate.ry(theta, 0))
        gates.extend(_selective_phase_gates(energies, scale, system, ancilla))
        gates.append(Gate.ry(-theta, 0))
    else:
        t = decomp.transform
        gates.append(Gate.dense(t, system))
        gates.extend(_selective_phase_gates(energies, scale, system, ancilla))
        gates.append(Gate.dense(t.T, system))
    return gates


def build_coherent_circuit(h: SystemHamiltonian, t_fs) -> QuantumCircuit:
    """Evolution circuit for time t_fs; run on |0..0>_sys (x) |1>_anc.

    A (P,) vector of times gives (P,) controlled-RotZ angles, one per time,
    for a time-batched register (``coherent_site_populations``)."""
    if (np.asarray(t_fs) < 0).any():
        raise ValueError("t_fs must be non-negative")
    return QuantumCircuit(h.n_system_qubits + 1, _coherent_gates(h, t_fs))


def coherent_site_populations(h: SystemHamiltonian, t_grid_fs) -> np.ndarray:
    """Site populations of the coherent circuit at each time, (P, n_sites).

    The circuit over the whole grid runs once on a (2D, P) block whose
    ancilla-|1> half starts at |0..0>_sys. Each column's norm^2 must be
    finite and within NORM_TOL of 1; the error names its time."""
    t = np.atleast_1d(np.asarray(t_grid_fs, dtype=np.float64))
    circuit = build_coherent_circuit(h, t)
    n_sys = h.n_system_qubits
    amps = np.zeros((2 << n_sys, t.size), dtype=np.complex128)
    amps[1 << n_sys] = 1.0
    probs = _site_probs(_execute_packed(amps, n_sys + 1, circuit.packed()), n_sys)
    norm2 = probs.sum(axis=0)
    drifted = np.flatnonzero(~(np.abs(norm2 - 1.0) <= NORM_TOL))
    if drifted.size:
        k = drifted[0]
        raise NumericalValidationError(
            f"coherent state at t = {float(t[k])!r} fs: norm^2 drifted to {float(norm2[k])!r}"
        )
    return probs.T


def build_iteration_circuit(
    h: SystemHamiltonian, dt_fs: float, site_sums, strengths_cm1
) -> QuantumCircuit:
    """One Trotter step: coherent evolution over dt, then fluctuator phases.

    ``site_sums`` holds each site's sum s of its fluctuator values xi in
    {+1/2, -1/2}, shaped (n_sites,): finite multiples of 1/2. ``strengths_cm1``
    is the per-site coupling g (scalar broadcasts). Site m picks up the phase
    e^{-i s g k dt}; its fluctuators' phase gates commute, so one
    controlled-RotZ per site applies their product.

    Sums shaped (P, n_sites) stack P patterns into one circuit whose
    fluctuator gates carry (P,) angle vectors; it runs only on a register
    whose first batch axis has length P (``qcore._apply_ops``).
    """
    if dt_fs <= 0:
        raise ValueError("dt_fs must be positive")
    sums = np.asarray(site_sums, dtype=np.float64)
    if sums.ndim not in (1, 2) or sums.shape[-1] != h.n_sites:
        raise ValueError(f"need one fluctuator sum per site, got shape {sums.shape}")
    if not (np.isfinite(sums) & (2.0 * sums == np.round(2.0 * sums))).all():
        raise ValueError("fluctuator sums must be finite multiples of 1/2")
    g = np.broadcast_to(np.asarray(strengths_cm1, dtype=np.float64), (h.n_sites,))
    if (g < 0).any():
        raise ValueError("fluctuation strengths must be non-negative")

    n_sys = h.n_system_qubits
    gates = _coherent_gates(h, dt_fs)
    gates.extend(_selective_phase_gates((sums * g).T, PHASE_PER_CM1_FS * dt_fs, range(n_sys), n_sys))
    return QuantumCircuit(n_sys + 1, gates)
