"""Gate conventions, batched circuit execution against the kron oracle,
marginals and shot sampling."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import excitonsim
from excitonsim import qcore
from excitonsim.model import SystemHamiltonian
from excitonsim.circuits import build_coherent_circuit
from excitonsim.qcore import Gate, GateKind, QuantumCircuit

from kron_oracle import basis, circuit_matrix, gate_matrix, oracle_run, run

K = 2.0 * math.pi * 2.99792458e-5  # rad/fs per cm^-1

# near-resonant chain, exact closed-form ingredients from integer inputs
OMEGA_NEAR = math.sqrt(100.0**2 + 4 * 126.0**2)
AMP_NEAR = 4 * 126.0**2 / OMEGA_NEAR**2
PERIOD_NEAR = 2 * math.pi / (OMEGA_NEAR * K)


def closed_form_p1(t_fs: float) -> float:
    return AMP_NEAR * math.sin(0.5 * OMEGA_NEAR * K * t_fs) ** 2


def _apply(gate: Gate, amps: np.ndarray) -> np.ndarray:
    return run(QuantumCircuit(amps.shape[0].bit_length() - 1, (gate,)), amps)


def test_pauli_x_flips_basis_state():
    flipped = _apply(Gate.x(0), basis(1, 0))
    assert flipped[0] == 0
    assert flipped[1] == 1
    assert np.array_equal(gate_matrix(Gate.x(0), 1), [[0, 1], [1, 0]])


def test_rotz_convention_on_one_state():
    # RotZ is ControlledRotZ with no controls
    phi = 0.7321
    rotz = Gate.crz(phi, (), 0)
    rotated = _apply(rotz, basis(1, 1))
    assert rotated[1] == pytest.approx(np.exp(0.5j * phi), abs=1e-15)
    rotated0 = _apply(rotz, basis(1, 0))
    assert rotated0[0] == pytest.approx(np.exp(-0.5j * phi), abs=1e-15)
    expected = np.diag([np.exp(-0.5j * phi), np.exp(0.5j * phi)])
    assert np.abs(gate_matrix(rotz, 1) - expected).max() < 1e-15


def test_roty_matrix_convention():
    theta = 1.234
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    expected = np.array([[c, -s], [s, c]])
    for col in range(2):
        out = _apply(Gate.ry(theta, 0), basis(1, col))
        assert np.abs(out - expected[:, col]).max() < 1e-15
    assert np.abs(gate_matrix(Gate.ry(theta, 0), 1) - expected).max() < 1e-15


def test_crz_phase_kickback_matches_dense_oracle():
    """X-conjugated CRotZ(-2 E dt) puts e^{-i E dt} on the system-|0> branch.

    Oracle: explicit 4x4 matrices multiplied by hand (qubit 0 = system
    control, qubit 1 = ancilla target; basis index = (anc << 1) | sys).
    """
    e0, dt = 135.558, 2.0
    phi = -2.0 * e0 * dt
    x_sys = np.kron(np.eye(2), np.array([[0, 1], [1, 0]]))
    crz = np.diag([1.0, np.exp(-0.5j * phi), 1.0, np.exp(+0.5j * phi)])
    oracle = x_sys @ crz @ x_sys  # rightmost acts first

    state = basis(2, 2)  # |0>_sys (x) |1>_anc
    for gate in (Gate.x(0), Gate.crz(phi, 0, 1), Gate.x(0)):
        state = _apply(gate, state)
    expected = oracle @ np.array([0, 0, 1, 0], dtype=complex)
    assert np.abs(state - expected).max() < 1e-14
    assert state[2] == pytest.approx(np.exp(-1j * e0 * dt), abs=1e-12)
    kron = circuit_matrix(QuantumCircuit(2, (Gate.x(0), Gate.crz(phi, 0, 1), Gate.x(0))))
    assert np.abs(kron - oracle).max() < 1e-14


def test_run_circuit_empty_is_identity():
    init = basis(2, 2)
    out = run(QuantumCircuit(2, ()), init)
    assert np.array_equal(out, init)


def test_run_circuit_double_x_is_identity():
    circuit = QuantumCircuit(1, (Gate.x(0), Gate.x(0)))
    out = run(circuit, basis(1, 0))
    assert np.abs(out - [1, 0]).max() < 1e-15


def test_near_resonant_circuit_half_period_populations():
    h = SystemHamiltonian.near_resonant()
    state = run(build_coherent_circuit(h, 61.5), basis(2, 2))
    probs = qcore._site_probs(state, 1)
    expected_p1 = closed_form_p1(61.5)
    assert abs(probs[1] - expected_p1) < 1e-12
    assert probs[1] == pytest.approx(0.864, abs=5e-4)
    assert probs[0] == pytest.approx(0.136, abs=5e-4)


def test_full_revival_at_beating_period():
    h = SystemHamiltonian.near_resonant()
    state = run(build_coherent_circuit(h, PERIOD_NEAR), basis(2, 2))
    probs = qcore._site_probs(state, 1)
    assert abs(probs[0] - 1.0) < 1e-12
    assert probs[1] < 1e-12


def test_site_probabilities_basics():
    state = basis(2, 2)
    assert np.allclose(qcore._site_probs(state, 1), [1.0, 0.0])
    plus = np.array([0, 0, 1, 1]) / math.sqrt(2)
    assert np.allclose(qcore._site_probs(plus, 1), [0.5, 0.5])
    # one marginal per batch column
    stack = np.stack([state, plus], axis=1)
    assert np.allclose(qcore._site_probs(stack, 1), [[1.0, 0.5], [0.0, 0.5]])


def test_sample_shots_degenerate_distribution():
    counts = qcore.sample_shots([1.0, 0.0], 333, rng_seed=1)
    assert counts.tolist() == [333, 0]


def test_sample_shots_deterministic_and_concentrated():
    a = qcore.sample_shots([0.5, 0.5], 2048, rng_seed=99)
    b = qcore.sample_shots([0.5, 0.5], 2048, rng_seed=99)
    assert np.array_equal(a, b)
    envelope = 3 * math.sqrt(0.25 / 2048)
    hits = sum(
        abs(qcore.sample_shots([0.5, 0.5], 2048, rng_seed=seed)[0] / 2048 - 0.5) < envelope
        for seed in range(300)
    )
    assert hits >= 0.98 * 300


def test_sample_shots_law_of_large_numbers():
    p = [0.864, 0.136]
    freqs = [qcore.sample_shots(p, 5000, rng_seed=s)[0] / 5000 for s in range(100)]
    assert abs(np.mean(freqs) - 0.864) < 0.01


def test_sample_shots_rejects_bad_input():
    with pytest.raises(ValueError):
        qcore.sample_shots([-0.1, 1.1], 10, rng_seed=0)
    with pytest.raises(ValueError):
        qcore.sample_shots([0.6, 0.6], 10, rng_seed=0)
    with pytest.raises(ValueError):
        qcore.sample_shots([0.5, 0.5], 0, rng_seed=0)


def test_sample_shots_on_a_stack_of_rows():
    # one distribution gives the same counts as before stacks were accepted
    assert qcore.sample_shots([0.3, 0.7], 1000, rng_seed=5).tolist() == [314, 686]
    assert qcore.sample_shots([0.25, 0.25, 0.5], 12345, rng_seed=2**80).tolist() == [3103, 3110, 6132]
    rows = np.array([[0.3, 0.7], [1.0, 0.0], [0.5, 0.5], [0.864, 0.136]])
    counts = qcore.sample_shots(rows, 1000, rng_seed=5)
    assert counts.shape == rows.shape
    assert (counts.sum(axis=1) == 1000).all()
    assert counts[1].tolist() == [1000, 0]
    assert np.array_equal(counts, qcore.sample_shots(rows, 1000, rng_seed=5))
    for bad in ([0.6, 0.6], [-0.1, 1.1], [np.nan, 1.0]):
        stack = rows.copy()
        stack[2] = bad
        with pytest.raises(ValueError):
            qcore.sample_shots(stack, 10, rng_seed=0)
    with pytest.raises(ValueError):
        qcore.sample_shots(rows[None], 10, rng_seed=0)


def _gate_matrix(gate: Gate, num_qubits: int) -> np.ndarray:
    """The kernel's matrix: one batched run over the identity's columns."""
    return _apply(gate, np.eye(1 << num_qubits))


@pytest.mark.parametrize(
    "gate,num_qubits",
    [
        (Gate.x(0), 2),
        (Gate.ry(0.813, 1), 2),
        (Gate.crz(-2.1, (), 0), 2),  # RotZ
        (Gate.crz(1.3, 0, 1), 2),
        (Gate.crz(0.4, (0, 1), 2), 3),
        (Gate(GateKind.PAULI_X, (0,), (1,)), 2),  # controlled NOT
        (Gate.dense(np.array([[0, 1j], [1j, 0]]), (0,)), 2),
    ],
)
def test_every_gate_kind_is_unitary(gate, num_qubits):
    u = _gate_matrix(gate, num_qubits)
    assert np.abs(u.conj().T @ u - np.eye(u.shape[0])).max() < 1e-10
    assert np.abs(u - gate_matrix(gate, num_qubits)).max() < 1e-15


def test_controlled_rotz_acts_only_on_control_one_subspace():
    u = _gate_matrix(Gate.crz(0.9, 0, 1), 2)
    # control qubit 0 = 0 on indices 0 and 2: identity there
    assert u[0, 0] == 1 and u[2, 2] == 1
    assert u[1, 1] == pytest.approx(np.exp(-0.45j))
    assert u[3, 3] == pytest.approx(np.exp(+0.45j))


def test_dense_gate_matches_kron_oracle():
    """Ascending, descending and single targets, so the order in which the
    kernel moves the target axes is pinned."""
    rng = np.random.default_rng(11)
    for targets in ((0, 2), (2, 0), (1,)):
        dim = 1 << len(targets)
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        q, _ = np.linalg.qr(m)
        gate = Gate.dense(q, targets)
        u = _gate_matrix(gate, 3)
        # oracle: index bit targets[k] -> gate bit k; the other bits must agree
        rest = 7 & ~sum(1 << t for t in targets)
        oracle = np.zeros((8, 8), dtype=complex)
        for i in range(8):
            for j in range(8):
                if i & rest == j & rest:
                    gi = sum(((i >> t) & 1) << k for k, t in enumerate(targets))
                    gj = sum(((j >> t) & 1) << k for k, t in enumerate(targets))
                    oracle[i, j] = q[gi, gj]
        assert np.abs(u - oracle).max() < 1e-12, targets
        assert np.abs(gate_matrix(gate, 3) - oracle).max() < 1e-15, targets


def test_gate_validation_errors():
    with pytest.raises(ValueError):
        Gate.crz(0.1, 1, 1)  # control == target
    with pytest.raises(ValueError):
        Gate.dense(np.array([[1.0, 0.0], [1.0, 1.0]]), (0,))  # not unitary
    with pytest.raises(ValueError):
        QuantumCircuit(1, (Gate.x(3),))
    # the packer would flip qubit 0 alone, or fail only when packing
    with pytest.raises(ValueError, match="exactly one target"):
        Gate(GateKind.PAULI_X, (0, 1))
    with pytest.raises(ValueError, match="exactly one target"):
        Gate(GateKind.ROT_Y, (), angle=0.3)
    # the packer would ignore the controls
    with pytest.raises(ValueError, match="no controls"):
        Gate(GateKind.DENSE_UNITARY, (0,), (1,), matrix=np.eye(2, dtype=complex))


def _accepted(matrix: np.ndarray, targets) -> bool:
    try:
        Gate.dense(matrix, targets)
    except ValueError:
        return False
    return True


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(0, 2**31 - 1))
def test_dense_unitarity_check_agrees_with_the_matmul_form(n_targets, seed):
    """Gate.dense computes m^H m with einsum; it accepts and rejects what the
    @ form of the same check would, at and 2 UNITARY_TOL beyond the edge."""
    rng = np.random.default_rng(seed)
    dim = 1 << n_targets
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    targets = tuple(range(n_targets))
    for m in (q, q * (1.0 + 2.0 * qcore.UNITARY_TOL)):
        matmul_verdict = np.abs(m.conj().T @ m - np.eye(dim)).max() <= qcore.UNITARY_TOL
        assert _accepted(m, targets) == matmul_verdict
    assert _accepted(q, targets) and not _accepted(q * (1.0 + 2.0 * qcore.UNITARY_TOL), targets)


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from excitonsim import *", namespace)
    assert [name for name in excitonsim.__all__ if name not in namespace] == []


@st.composite
def random_circuits(draw, n_columns=0):
    """X, RotY and ControlledRotZ gates with 0-2 controls, and DenseUnitary
    gates on 1-2 qubits. With n_columns, an angled gate carries one angle
    per column or, drawn half the time, one shared angle."""
    num_qubits = draw(st.integers(min_value=1, max_value=4))
    angles = st.floats(-2 * math.pi, 2 * math.pi, allow_nan=False)

    def angle():
        if n_columns and draw(st.booleans()):
            return np.array(draw(st.lists(angles, min_size=n_columns, max_size=n_columns)))
        return draw(angles)

    gates = []
    for _ in range(draw(st.integers(0, 12))):
        qubits = draw(st.permutations(range(num_qubits)))
        kind = draw(st.sampled_from(list(GateKind)))
        if kind is GateKind.DENSE_UNITARY:
            dim = 1 << draw(st.integers(1, min(2, num_qubits)))
            rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
            q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
            gates.append(Gate.dense(q, qubits[: dim.bit_length() - 1]))
            continue
        controls = tuple(qubits[1 : 1 + draw(st.integers(0, min(2, num_qubits - 1)))])
        theta = None if kind is GateKind.PAULI_X else angle()
        gates.append(Gate(kind, (qubits[0],), controls, theta))
    return QuantumCircuit(num_qubits, tuple(gates))


def _check_against_oracle(circuit, amps):
    """Norm, determinism, untouched inputs and the kron oracle, for one
    register shaped (2^n, *batch) with unit-norm columns."""
    init = amps.copy()
    out1 = run(circuit, amps)
    out2 = run(circuit, amps)
    assert out1.shape == amps.shape
    assert np.abs((np.abs(out1) ** 2).sum(axis=0) - 1.0).max() < 1e-9
    assert np.array_equal(out1, out2)
    # the input state must be untouched
    assert np.array_equal(amps, init)
    # the segments hold the circuit's own gates in order, each DenseUnitary alone
    segments = circuit.packed()
    flat = [g for seg in segments for g in (seg if isinstance(seg, tuple) else (seg,))]
    assert len(flat) == len(circuit.gates) and all(a is b for a, b in zip(flat, circuit.gates))
    assert all(g.kind is not GateKind.DENSE_UNITARY for seg in segments if isinstance(seg, tuple) for g in seg)
    assert np.abs(out1 - oracle_run(circuit, amps)).max() < 1e-12


@settings(max_examples=60, deadline=None)
@given(random_circuits(), st.integers(0, 2**31 - 1))
def test_random_circuits_preserve_norm_and_are_deterministic(circuit, seed):
    """Single columns through the kernel match the kron oracle."""
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << circuit.num_qubits) + 1j * rng.normal(size=1 << circuit.num_qubits)
    amps /= np.linalg.norm(amps)
    _check_against_oracle(circuit, amps)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_random_batches_match_kron_oracle(data):
    """(2^n, P, B) registers with per-column angles match the kron oracle
    column by column."""
    n_columns = data.draw(st.integers(1, 4))
    circuit = data.draw(random_circuits(n_columns))
    for gate in circuit.gates:
        if np.ndim(gate.angle):
            assert gate.angle.shape == (n_columns,) and not gate.angle.flags.writeable
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
    shape = (1 << circuit.num_qubits, n_columns, data.draw(st.integers(1, 3)))
    amps = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    amps /= np.linalg.norm(amps, axis=0)
    _check_against_oracle(circuit, amps)


def test_ancilla_stays_in_one_state():
    h = SystemHamiltonian.near_resonant()
    init = basis(2, 2)
    for t in (0.0, 17.0, 61.5, 123.0, 250.0):
        state = run(build_coherent_circuit(h, t), init)
        ancilla_zero_mass = np.abs(state[:2]) ** 2
        assert ancilla_zero_mass.sum() < 1e-12


def test_ancilla_stays_in_one_state_through_iterations():
    from excitonsim.circuits import build_iteration_circuit

    h = SystemHamiltonian.near_resonant()
    state = basis(2, 2)
    rng = np.random.default_rng(6)
    for _ in range(50):
        signs = rng.choice([0.5, -0.5], size=2)
        state = run(build_iteration_circuit(h, 2.0, signs, 500.0), state)
    assert (np.abs(state[:2]) ** 2).sum() < 1e-12


def test_selected_backend_is_reported():
    assert excitonsim.BACKEND == "numpy"


def _random_gates(rng, num_qubits, n_gates, n_columns):
    """Single-target gates with at most one control; most rotations carry
    one angle per column, the rest one shared angle."""
    gates = []
    for _ in range(n_gates):
        kind = (GateKind.PAULI_X, GateKind.ROT_Y, GateKind.CONTROLLED_ROT_Z)[rng.integers(0, 3)]
        target = int(rng.integers(0, num_qubits))
        controls = ()
        if num_qubits > 1 and rng.random() < 0.5:
            other = int(rng.integers(0, num_qubits - 1))
            controls = (other if other < target else other + 1,)
        angle = rng.uniform(-2 * math.pi, 2 * math.pi, n_columns if rng.random() < 0.75 else None)
        gates.append(Gate(kind, (target,), controls, None if kind is GateKind.PAULI_X else angle))
    return gates


def _column(gate: Gate, p: int) -> Gate:
    """``gate`` as it acts on column p: its p-th angle, or itself."""
    if np.ndim(gate.angle) == 0:
        return gate
    return Gate(gate.kind, gate.targets, gate.controls, gate.angle[p])


@pytest.mark.parametrize("num_qubits", [1, 2, 3, 5])
def test_batched_execution_matches_column_by_column(num_qubits):
    rng = np.random.default_rng(42 + num_qubits)
    dim = 1 << num_qubits
    n_columns, n_states = 6, 3
    q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    for _ in range(10):
        gates = (
            _random_gates(rng, num_qubits, 30, n_columns)
            + [Gate.dense(q, (num_qubits - 1,))]
            + _random_gates(rng, num_qubits, 30, n_columns)
        )
        amps = rng.normal(size=(dim, n_columns, n_states)) + 1j * rng.normal(
            size=(dim, n_columns, n_states)
        )
        amps /= np.linalg.norm(amps, axis=0)
        batched = run(QuantumCircuit(num_qubits, gates), amps)
        assert batched.shape == amps.shape
        for p in range(n_columns):
            column = QuantumCircuit(num_qubits, [_column(g, p) for g in gates])
            for b in range(n_states):
                single = run(column, amps[:, p, b])
                assert np.abs(batched[:, p, b] - single).max() <= 1e-15


@pytest.mark.parametrize("angle", [[0.1, np.nan], [0.1, np.inf], [[0.1, 0.2]], None])
def test_angle_vectors_must_be_finite_and_one_dimensional(angle):
    with pytest.raises(ValueError, match="finite angle"):
        Gate.crz(angle, 0, 1)


@pytest.mark.parametrize(
    "register, n_angles",
    # no batch axis, with as many angles as amplitudes that would broadcast
    # silently and with three; a batch axis of the wrong length
    [((4,), 2), ((4,), 3), ((4, 3), 2)],
)
def test_angle_vectors_need_a_batch_axis_of_their_length(register, n_angles):
    circuit = QuantumCircuit(2, (Gate.crz(np.linspace(0.3, 1.1, n_angles), 0, 1),))
    amps = np.zeros(register, dtype=np.complex128)
    amps[0] = 1.0
    shapes = rf"length {n_angles} .*{re.escape(str(register))}"
    with pytest.raises(ValueError, match=shapes):
        run(circuit, amps)


def test_a_register_that_does_not_fit_the_qubit_count_is_refused():
    """The single-target kernel views the register's first axis as
    num_qubits axes of length 2, so a count that does not match is refused."""
    segments = QuantumCircuit(2, (Gate.x(0), Gate.ry(0.4, 1))).packed()
    for shape, num_qubits in (((4,), 3), ((8,), 2), ((4, 3), 3), ((8, 3), 2)):
        with pytest.raises(ValueError):
            qcore._execute_packed(np.zeros(shape, dtype=np.complex128), num_qubits, segments)


def test_a_strided_register_matches_the_kron_oracle():
    """A register that is a strided slice of a larger array runs on a
    contiguous copy and gives the oracle's result; the array is not written."""
    rng = np.random.default_rng(29)
    num_qubits, n_columns = 3, 5
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    gates = _random_gates(rng, num_qubits, 20, n_columns) + [Gate.dense(q, (2, 0))]
    circuit = QuantumCircuit(num_qubits, gates + _random_gates(rng, num_qubits, 20, n_columns))
    shape = (1 << num_qubits, n_columns, 2)
    big = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    big /= np.linalg.norm(big, axis=0)
    before = big.copy()
    amps = big[:, :, 0]
    assert not amps.flags.c_contiguous
    out = qcore._execute_packed(amps, num_qubits, circuit.packed())
    assert np.abs(out - oracle_run(circuit, before[:, :, 0])).max() < 1e-12
    assert np.array_equal(big, before)
