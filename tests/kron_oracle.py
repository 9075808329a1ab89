"""Test-side gate oracle and the one helper that runs circuits in the tests.

``gate_matrix`` builds each gate's full 2^n matrix with ``np.kron`` from the
conventions in ``qcore``'s docstring alone: qubit 0 is the least significant
bit of the basis index (so qubit n-1 is the leftmost kron factor), RotY and
RotZ as written there, a gate acting only where every control is 1, and a
DenseUnitary reading targets[0] as the least significant bit of its index.
It shares no code with the batched kernel it checks.
"""

import numpy as np

from excitonsim import qcore
from excitonsim.qcore import GateKind

_I = np.eye(2)
_P1 = np.diag([0.0, 1.0])  # |1><1|
_X = np.array([[0.0, 1.0], [1.0, 0.0]])


def _roty(theta) -> np.ndarray:
    """(2, 2), or (P, 2, 2) for a (P,) angle vector; likewise _rotz."""
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.moveaxis(np.array([[c, -s], [s, c]]), (0, 1), (-2, -1))


def _rotz(phi) -> np.ndarray:
    e, zero = np.exp(0.5j * phi), np.zeros_like(phi)
    return np.moveaxis(np.array([[e.conj(), zero], [zero, e]]), (0, 1), (-2, -1))


def _on_qubits(factors: dict, num_qubits: int) -> np.ndarray:
    """kron of one 2x2 factor per qubit, identity where none is given. A
    (P, 2, 2) factor gives (P, 2^n, 2^n): np.kron pads the other factors
    to (1, 2, 2) and takes the product along the first axis element-wise."""
    out = np.eye(1)
    for q in reversed(range(num_qubits)):
        out = np.kron(out, factors.get(q, _I))
    return out


def _controlled(u: np.ndarray, gate, num_qubits: int) -> np.ndarray:
    """u on the target where every control is 1: I + |1..1><1..1|_c (x) (u - I)_t."""
    factors = {q: _P1 for q in gate.controls}
    factors[gate.targets[0]] = u - _I
    return np.eye(1 << num_qubits) + _on_qubits(factors, num_qubits)


def _dense(gate, num_qubits: int) -> np.ndarray:
    """sum over a, b of M[a, b] |a><b|, with bit k of a and b on qubit targets[k]."""
    dim = 1 << len(gate.targets)
    out = np.zeros((1 << num_qubits, 1 << num_qubits), dtype=np.complex128)
    for a in range(dim):
        for b in range(dim):
            factors = {
                q: np.outer(_I[(a >> k) & 1], _I[(b >> k) & 1]) for k, q in enumerate(gate.targets)
            }
            out += gate.matrix[a, b] * _on_qubits(factors, num_qubits)
    return out


def gate_matrix(gate, num_qubits: int) -> np.ndarray:
    """(2^n, 2^n), or (P, 2^n, 2^n) for a gate carrying a (P,) angle vector."""
    if gate.kind is GateKind.DENSE_UNITARY:
        return _dense(gate, num_qubits)
    if gate.kind is GateKind.PAULI_X:
        return _controlled(_X, gate, num_qubits)
    rot = _roty if gate.kind is GateKind.ROT_Y else _rotz
    return _controlled(rot(np.asarray(gate.angle)), gate, num_qubits)


def circuit_matrix(circuit) -> np.ndarray:
    """Product of the gate matrices, the first gate rightmost; (P, 2^n, 2^n)
    when a gate carries a (P,) angle vector."""
    u = np.eye(1 << circuit.num_qubits)
    for gate in circuit.gates:
        u = gate_matrix(gate, circuit.num_qubits) @ u
    return u


def oracle_run(circuit, amps: np.ndarray) -> np.ndarray:
    """The circuit matrix applied to ``amps`` shaped (2^n, *batch); a (P,)
    angle vector pairs matrix p with index p of the first batch axis."""
    u = circuit_matrix(circuit)
    if u.ndim == 2:
        return np.tensordot(u, amps, axes=1)
    return np.einsum("pij,jp...->ip...", u, amps)


def run(circuit, amps) -> np.ndarray:
    """``circuit`` through the batched kernel, on a copy of ``amps`` shaped
    (2^n, *batch); a single state is the case with no batch axes."""
    return qcore._execute_packed(
        np.array(amps, dtype=np.complex128), circuit.num_qubits, circuit.packed()
    )


def basis(num_qubits: int, index: int) -> np.ndarray:
    amps = np.zeros(1 << num_qubits, dtype=np.complex128)
    amps[index] = 1.0
    return amps


def gate_count(circuit) -> dict[str, int]:
    """Exact tally by gate kind; every kind is present, zero counts included."""
    counts = {kind.value: 0 for kind in GateKind}
    for gate in circuit.gates:
        counts[gate.kind.value] += 1
    return counts
