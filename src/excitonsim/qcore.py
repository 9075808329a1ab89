"""Batched statevector simulation for small qubit registers.

Dense complex128 registers; basis index carries qubit 0 as the least
significant bit, so ``|q1 q0>`` has index ``(q1 << 1) | q0``. Gates and
circuits are immutable. ``_execute_packed`` runs a circuit on a register
shaped (2^n, *batch), one column per sign pattern or time point: each
DenseUnitary through ``_apply_dense``, and each run of single-target gates
between them through ``_apply_ops``, which reads the Gate objects directly.
Both index one view of the register shaped (2,)*n + batch, in which axis
n-1-q is qubit q: a gate acts on basic-index views of it, with no index
arrays and no gathers.

Rotation conventions (fixed; all circuit builders rely on them):

    RotY(theta) = [[cos(theta/2), -sin(theta/2)],
                   [sin(theta/2),  cos(theta/2)]]
    RotZ(phi)   = diag(exp(-i phi/2), exp(+i phi/2))

A gate acts on its target only on the subspace where every control qubit
is 1: ControlledRotZ with the target held at |1> gives the controlled
branch exp(+i phi/2), and with no controls it is RotZ. A DenseUnitary on
targets (t0, t1, ...) reads t0 as the least significant bit of its index.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass

import numpy as np

NORM_TOL = 1e-9
UNITARY_TOL = 1e-10


class GateKind(enum.Enum):
    PAULI_X = "PauliX"
    ROT_Y = "RotY"
    CONTROLLED_ROT_Z = "ControlledRotZ"
    DENSE_UNITARY = "DenseUnitary"


_ANGLED = {GateKind.ROT_Y, GateKind.CONTROLLED_ROT_Z}


@dataclass(frozen=True, eq=False)
class Gate:
    """One circuit element; use the classmethod constructors."""

    kind: GateKind
    targets: tuple[int, ...]
    controls: tuple[int, ...] = ()
    # a float, or a read-only (P,) vector: one angle per sign pattern
    angle: float | np.ndarray | None = None
    matrix: np.ndarray | None = None

    def __post_init__(self):
        touched = self.targets + self.controls
        if len(set(touched)) != len(touched):
            raise ValueError(f"control and target indices must be disjoint: {touched}")
        if any(q < 0 for q in touched):
            raise ValueError(f"negative qubit index in {touched}")
        # _apply_ops reads only targets[0], and _apply_dense ignores controls
        if self.kind is not GateKind.DENSE_UNITARY and len(self.targets) != 1:
            raise ValueError(f"{self.kind.value} needs exactly one target, got {self.targets}")
        if self.kind in _ANGLED:
            angle = np.array(self.angle, dtype=np.float64)  # None reads as nan
            if angle.ndim > 1 or not np.isfinite(angle).all():
                raise ValueError(f"{self.kind.value} requires a finite angle or angle vector")
            angle.setflags(write=False)
            object.__setattr__(self, "angle", angle if angle.ndim else float(angle))
        if self.kind is GateKind.DENSE_UNITARY:
            if self.controls:
                raise ValueError(f"DenseUnitary takes no controls, got {self.controls}")
            dim = 1 << len(self.targets)
            m = self.matrix
            if m is None or m.shape != (dim, dim):
                raise ValueError("DenseUnitary matrix shape must match its targets")
            if not np.isfinite(m).all():
                raise ValueError("DenseUnitary matrix has non-finite entries")
            # einsum, not @: the ensemble then makes no BLAS call at all
            if not np.abs(np.einsum("ji,jk->ik", m.conj(), m) - np.eye(dim)).max() <= UNITARY_TOL:
                raise ValueError("DenseUnitary matrix is not unitary")

    @classmethod
    def x(cls, qubit: int) -> "Gate":
        return cls(GateKind.PAULI_X, (qubit,))

    @classmethod
    def ry(cls, theta: float, qubit: int) -> "Gate":
        return cls(GateKind.ROT_Y, (qubit,), angle=theta)

    @classmethod
    def crz(cls, phi, controls, target: int) -> "Gate":
        if isinstance(controls, int):
            controls = (controls,)
        return cls(GateKind.CONTROLLED_ROT_Z, (target,), tuple(controls), phi)

    @classmethod
    def dense(cls, matrix: np.ndarray, targets) -> "Gate":
        m = np.array(matrix, dtype=np.complex128)
        m.setflags(write=False)
        return cls(GateKind.DENSE_UNITARY, tuple(targets), matrix=m)


@dataclass(eq=False)
class QuantumCircuit:
    """Ordered gate sequence; treat as immutable once built."""

    num_qubits: int
    gates: tuple[Gate, ...]

    def __post_init__(self):
        if self.num_qubits < 1:
            raise ValueError("need at least one qubit")
        self.gates = tuple(self.gates)
        for gate in self.gates:
            for q in gate.targets + gate.controls:
                if q >= self.num_qubits:
                    raise ValueError(f"qubit {q} out of range for {self.num_qubits}-qubit register")

    def packed(self) -> list:
        """The gates as ``_execute_packed`` runs them: each DenseUnitary as
        itself, and each run of single-target gates between them as one tuple."""
        segments: list = []
        for dense, run in itertools.groupby(self.gates, key=lambda g: g.kind is GateKind.DENSE_UNITARY):
            if dense:
                segments.extend(run)
            else:
                segments.append(tuple(run))
        return segments


def _apply_ops(amps, num_qubits, gates) -> None:
    """Apply a run of single-target gates, in place, to ``amps``, C-contiguous
    and shaped (2^num_qubits, *batch). A gate's (P,) angle vector holds one
    angle per index of the first batch axis, which must then have length P."""
    view = amps.reshape((2,) * num_qubits + amps.shape[1:])
    angle_shape = (-1,) + (1,) * (amps.ndim - 2)
    for gate in gates:
        angle = gate.angle
        if isinstance(angle, np.ndarray):
            if amps.ndim < 2 or amps.shape[1] != len(angle):
                raise ValueError(
                    f"a per-column angle vector of length {len(angle)} does not fit a register of shape {amps.shape}"
                )
            angle = angle.reshape(angle_shape)
        index = [slice(None)] * num_qubits
        for q in gate.controls:
            index[num_qubits - 1 - q] = 1
        axis = num_qubits - 1 - gate.targets[0]
        index[axis] = 0
        a0 = view[(*index, ...)]  # the trailing ... keeps a single state a 0-d view
        index[axis] = 1
        _apply_gate(gate.kind, angle, a0, view[(*index, ...)])


def _apply_gate(kind: GateKind, angle, a0: np.ndarray, a1: np.ndarray) -> None:
    """One single-target gate, in place, on the views ``a0`` and ``a1`` of a
    register where its controls are 1 and its target is 0 and 1. Its
    temporaries end with the call, so none outlives its gate."""
    if kind is GateKind.PAULI_X:
        a0[...], a1[...] = a1.copy(), a0.copy()
        return
    c, s = np.cos(0.5 * angle), np.sin(0.5 * angle)
    if kind is GateKind.ROT_Y:
        new0 = c * a0 - s * a1
        a1 *= c  # c * a1 + s * a0, one temporary fewer
        a1 += s * a0
        a0[...] = new0
        return
    # exp(-i angle/2) where the target is 0, exp(+i angle/2) where it is 1, in
    # real arithmetic: numpy rounds a complex product differently for a scalar
    # and an array factor, which would make a column depend on its batch
    for z, sz in ((a0, -s), (a1, s)):
        z.real, z.imag = c * z.real - sz * z.imag, sz * z.real + c * z.imag


def _apply_dense(amps: np.ndarray, matrix: np.ndarray, targets: tuple[int, ...]) -> None:
    """Apply a 2^k x 2^k unitary, in place, to the subspace of ``amps``,
    C-contiguous and shaped (2^n, *batch), spanned by ``targets``; targets[0]
    is the least significant bit of the gate's own index space."""
    n, k = amps.shape[0].bit_length() - 1, len(targets)
    # the gate's most significant target first, so the front axes read as its index
    axes = [n - 1 - q for q in reversed(targets)]
    moved = np.moveaxis(amps.reshape((2,) * n + amps.shape[1:]), axes, range(k))
    gathered = moved.reshape((1 << k,) + moved.shape[k:])
    mixed = np.zeros_like(gathered)
    # summed term by term, so a column's result does not depend on the batch
    for i in range(1 << k):
        for j in range(1 << k):
            mixed[i] += matrix[i, j] * gathered[j]
    moved[...] = mixed.reshape(moved.shape)


def _site_probs(amps: np.ndarray, n_system_qubits: int) -> np.ndarray:
    """Marginal probabilities of the low ``n_system_qubits`` qubits, per batch column."""
    p = amps.real**2 + amps.imag**2
    return p.reshape(-1, 1 << n_system_qubits, *amps.shape[1:]).sum(axis=0)


def _execute_packed(amps: np.ndarray, num_qubits: int, segments: list) -> np.ndarray:
    """Run ``QuantumCircuit.packed`` segments on ``amps``, shaped
    (2^num_qubits, *batch), in place; returns it, or the C-contiguous copy
    that a strided ``amps`` runs on."""
    amps = np.ascontiguousarray(amps)
    for seg in segments:
        if isinstance(seg, Gate):
            _apply_dense(amps, seg.matrix, seg.targets)
        else:
            _apply_ops(amps, num_qubits, seg)
    return amps


def sample_shots(probabilities, shots: int, rng_seed) -> np.ndarray:
    """Multinomial counts over outcomes; pure function of (p, shots, seed).
    A (P, k) stack of distributions gives (P, k) counts from one stream."""
    p = np.asarray(probabilities, dtype=np.float64)
    if p.ndim not in (1, 2) or p.size == 0:
        raise ValueError("probabilities must be a non-empty 1-d array or a 2-d stack of rows")
    if (p < 0).any():
        raise ValueError("negative probability")
    total = p.sum(axis=-1, keepdims=True)
    drift = np.abs(total - 1.0)
    if not (drift <= NORM_TOL).all():
        raise ValueError(f"probabilities sum to {float(total.flat[np.argmax(drift)])!r}, not 1")
    if shots < 1:
        raise ValueError("shots must be >= 1")
    rng = np.random.default_rng(rng_seed)
    return rng.multinomial(shots, p / total)
