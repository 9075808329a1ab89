"""Gate application, circuit execution, marginals and shot sampling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import excitonsim
from excitonsim import qcore
from excitonsim.errors import NumericalValidationError
from excitonsim.model import SystemHamiltonian
from excitonsim.circuits import build_coherent_circuit
from excitonsim.qcore import Gate, QuantumCircuit, StateVector

K = 2.0 * math.pi * 2.99792458e-5  # rad/fs per cm^-1

# near-resonant chain, exact closed-form ingredients from integer inputs
OMEGA_NEAR = math.sqrt(100.0**2 + 4 * 126.0**2)
AMP_NEAR = 4 * 126.0**2 / OMEGA_NEAR**2
PERIOD_NEAR = 2 * math.pi / (OMEGA_NEAR * K)


def closed_form_p1(t_fs: float) -> float:
    return AMP_NEAR * math.sin(0.5 * OMEGA_NEAR * K * t_fs) ** 2


def _apply(gate: Gate, state: StateVector) -> StateVector:
    return qcore.run_circuit(QuantumCircuit(state.num_qubits, (gate,)), state)


def test_pauli_x_flips_basis_state():
    state = StateVector.basis_state(1, 0)
    flipped = _apply(Gate.x(0), state)
    assert flipped.amplitudes[0] == 0
    assert flipped.amplitudes[1] == 1


def test_rotz_convention_on_one_state():
    state = StateVector.basis_state(1, 1)
    phi = 0.7321
    rotated = _apply(Gate.rz(phi, 0), state)
    assert rotated.amplitudes[1] == pytest.approx(np.exp(0.5j * phi), abs=1e-15)
    state0 = StateVector.basis_state(1, 0)
    rotated0 = _apply(Gate.rz(phi, 0), state0)
    assert rotated0.amplitudes[0] == pytest.approx(np.exp(-0.5j * phi), abs=1e-15)


def test_roty_matrix_convention():
    theta = 1.234
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    for col, basis in enumerate((StateVector.basis_state(1, 0), StateVector.basis_state(1, 1))):
        out = _apply(Gate.ry(theta, 0), basis).amplitudes
        expected = np.array([[c, -s], [s, c]])[:, col]
        assert np.abs(out - expected).max() < 1e-15


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

    state = StateVector.basis_state(2, 2)  # |0>_sys (x) |1>_anc
    for gate in (Gate.x(0), Gate.crz(phi, 0, 1), Gate.x(0)):
        state = _apply(gate, state)
    expected = oracle @ np.array([0, 0, 1, 0], dtype=complex)
    assert np.abs(state.amplitudes - expected).max() < 1e-14
    assert state.amplitudes[2] == pytest.approx(np.exp(-1j * e0 * dt), abs=1e-12)


def test_run_circuit_empty_is_identity():
    init = StateVector.basis_state(2, 2)
    out = qcore.run_circuit(QuantumCircuit(2, ()), init)
    assert np.array_equal(out.amplitudes, init.amplitudes)


def test_run_circuit_double_x_is_identity():
    circuit = QuantumCircuit(1, (Gate.x(0), Gate.x(0)))
    out = qcore.run_circuit(circuit, StateVector.basis_state(1, 0))
    assert np.abs(out.amplitudes - [1, 0]).max() < 1e-15


def test_near_resonant_circuit_half_period_populations():
    h = SystemHamiltonian.near_resonant()
    init = StateVector.basis_state(2, 2)
    state = qcore.run_circuit(build_coherent_circuit(h, 61.5), init)
    probs = qcore.site_probabilities(state, [0])
    expected_p1 = closed_form_p1(61.5)
    assert abs(probs[1] - expected_p1) < 1e-12
    assert probs[1] == pytest.approx(0.864, abs=5e-4)
    assert probs[0] == pytest.approx(0.136, abs=5e-4)


def test_full_revival_at_beating_period():
    h = SystemHamiltonian.near_resonant()
    init = StateVector.basis_state(2, 2)
    state = qcore.run_circuit(build_coherent_circuit(h, PERIOD_NEAR), init)
    probs = qcore.site_probabilities(state, [0])
    assert abs(probs[0] - 1.0) < 1e-12
    assert probs[1] < 1e-12


def test_site_probabilities_basics():
    state = StateVector.basis_state(2, 2)
    assert np.allclose(qcore.site_probabilities(state, [0]), [1.0, 0.0])
    plus = StateVector(2, np.array([0, 0, 1, 1]) / math.sqrt(2))
    assert np.allclose(qcore.site_probabilities(plus, [0]), [0.5, 0.5])
    with pytest.raises(ValueError):
        qcore.site_probabilities(state, [])


def test_site_probabilities_respects_qubit_order():
    amps = np.zeros(4, dtype=complex)
    amps[1] = 1.0  # |q1=0, q0=1>
    state = StateVector(2, amps)
    assert np.allclose(qcore.site_probabilities(state, [0, 1]), [0, 1, 0, 0])
    assert np.allclose(qcore.site_probabilities(state, [1, 0]), [0, 0, 1, 0])


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
    dim = 1 << num_qubits
    cols = []
    for index in range(dim):
        state = StateVector.basis_state(num_qubits, index)
        cols.append(_apply(gate, state).amplitudes)
    return np.stack(cols, axis=1)


@pytest.mark.parametrize(
    "gate,num_qubits",
    [
        (Gate.x(0), 2),
        (Gate.ry(0.813, 1), 2),
        (Gate.rz(-2.1, 0), 2),
        (Gate.crz(1.3, 0, 1), 2),
        (Gate.crz(0.4, (0, 1), 2), 3),
        (Gate.cnot(1, 0), 2),
        (Gate.dense(np.array([[0, 1j], [1j, 0]]), (0,)), 2),
    ],
)
def test_every_gate_kind_is_unitary(gate, num_qubits):
    u = _gate_matrix(gate, num_qubits)
    assert np.abs(u.conj().T @ u - np.eye(u.shape[0])).max() < 1e-10


def test_controlled_rotz_acts_only_on_control_one_subspace():
    u = _gate_matrix(Gate.crz(0.9, 0, 1), 2)
    # control qubit 0 = 0 on indices 0 and 2: identity there
    assert u[0, 0] == 1 and u[2, 2] == 1
    assert u[1, 1] == pytest.approx(np.exp(-0.45j))
    assert u[3, 3] == pytest.approx(np.exp(+0.45j))


def test_dense_gate_matches_kron_oracle():
    rng = np.random.default_rng(11)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    q, _ = np.linalg.qr(m)
    gate = Gate.dense(q, (0, 2))
    u = _gate_matrix(gate, 3)
    # oracle: index bit 0 -> gate bit 0, index bit 2 -> gate bit 1
    oracle = np.zeros((8, 8), dtype=complex)
    for i in range(8):
        for j in range(8):
            if (i >> 1) & 1 != (j >> 1) & 1:
                continue
            gi = ((i >> 0) & 1) | (((i >> 2) & 1) << 1)
            gj = ((j >> 0) & 1) | (((j >> 2) & 1) << 1)
            oracle[i, j] = q[gi, gj]
    assert np.abs(u - oracle).max() < 1e-12


def test_gate_validation_errors():
    with pytest.raises(ValueError):
        Gate.crz(0.1, 1, 1)  # control == target
    with pytest.raises(ValueError):
        Gate.dense(np.array([[1.0, 0.0], [1.0, 1.0]]), (0,))  # not unitary
    state = StateVector.basis_state(1, 0)
    with pytest.raises(ValueError):
        _apply(Gate.x(3), state)
    with pytest.raises(ValueError):
        qcore.run_circuit(QuantumCircuit(2, (Gate.x(0),)), state)


def test_statevector_rejects_denormalized_input():
    with pytest.raises(NumericalValidationError):
        StateVector(1, np.array([1.0, 1.0]))
    with pytest.raises(NumericalValidationError):
        StateVector(1, np.array([np.nan, 0.0]))


@st.composite
def random_circuits(draw):
    num_qubits = draw(st.integers(min_value=1, max_value=4))
    angles = st.floats(-2 * math.pi, 2 * math.pi, allow_nan=False)
    gates = []
    for _ in range(draw(st.integers(0, 12))):
        q = draw(st.integers(0, num_qubits - 1))
        kind = draw(st.sampled_from(["x", "ry", "rz", "crz", "cnot"]))
        if kind in ("crz", "cnot") and num_qubits > 1:
            other = draw(st.integers(0, num_qubits - 2))
            other = other if other < q else other + 1
            if kind == "crz":
                gates.append(Gate.crz(draw(angles), other, q))
            else:
                gates.append(Gate.cnot(other, q))
        elif kind == "ry":
            gates.append(Gate.ry(draw(angles), q))
        elif kind == "rz":
            gates.append(Gate.rz(draw(angles), q))
        else:
            gates.append(Gate.x(q))
    return QuantumCircuit(num_qubits, tuple(gates))


@settings(max_examples=60, deadline=None)
@given(random_circuits(), st.integers(0, 2**31 - 1))
def test_random_circuits_preserve_norm_and_are_deterministic(circuit, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << circuit.num_qubits) + 1j * rng.normal(size=1 << circuit.num_qubits)
    amps /= np.linalg.norm(amps)
    init = StateVector(circuit.num_qubits, amps)
    out1 = qcore.run_circuit(circuit, init)
    out2 = qcore.run_circuit(circuit, init)
    assert abs(np.vdot(out1.amplitudes, out1.amplitudes).real - 1.0) < 1e-9
    assert np.array_equal(out1.amplitudes, out2.amplitudes)
    # the input state must be untouched
    assert np.array_equal(init.amplitudes, amps)


def test_ancilla_stays_in_one_state():
    h = SystemHamiltonian.near_resonant()
    init = StateVector.basis_state(2, 2)
    for t in (0.0, 17.0, 61.5, 123.0, 250.0):
        state = qcore.run_circuit(build_coherent_circuit(h, t), init)
        ancilla_zero_mass = np.abs(state.amplitudes[:2]) ** 2
        assert ancilla_zero_mass.sum() < 1e-12


def test_ancilla_stays_in_one_state_through_iterations():
    from excitonsim.circuits import build_iteration_circuit

    h = SystemHamiltonian.near_resonant()
    state = StateVector.basis_state(2, 2)
    rng = np.random.default_rng(6)
    for _ in range(50):
        signs = rng.choice([0.5, -0.5], size=2)
        state = qcore.run_circuit(build_iteration_circuit(h, 2.0, signs, 500.0), state)
    assert (np.abs(state.amplitudes[:2]) ** 2).sum() < 1e-12


def test_selected_backend_is_reported():
    assert excitonsim.BACKEND == "numpy"


def test_packed_circuit_is_reused():
    h = SystemHamiltonian.near_resonant()
    circuit = build_coherent_circuit(h, 25.0)
    first = circuit.packed()
    assert circuit.packed() is first
    init = StateVector.basis_state(2, 2)
    out1 = qcore.run_circuit(circuit, init)
    out2 = qcore.run_circuit(circuit, init)
    assert np.array_equal(out1.amplitudes, out2.amplitudes)


def _random_ops_segment(rng, num_qubits, n_ops, n_columns):
    """A packed ops segment with one angle per column: angles (n_ops, n_columns)."""
    kinds = rng.integers(0, 3, n_ops).astype(np.int32)
    targets = rng.integers(0, num_qubits, n_ops).astype(np.int32)
    cmasks = np.zeros(n_ops, dtype=np.int64)
    for i in range(n_ops):
        if num_qubits > 1 and rng.random() < 0.5:
            other = int(rng.integers(0, num_qubits - 1))
            other = other if other < targets[i] else other + 1
            cmasks[i] = 1 << other
    angles = rng.uniform(-2 * math.pi, 2 * math.pi, (n_ops, n_columns))
    return ("ops", kinds, targets, cmasks, angles)


@pytest.mark.parametrize("num_qubits", [1, 2, 3, 5])
def test_batched_execution_matches_column_by_column(num_qubits):
    rng = np.random.default_rng(42 + num_qubits)
    dim = 1 << num_qubits
    n_columns, n_states = 6, 3
    q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    for _ in range(10):
        segments = [
            _random_ops_segment(rng, num_qubits, 30, n_columns),
            ("dense", q, (num_qubits - 1,)),
            _random_ops_segment(rng, num_qubits, 30, n_columns),
        ]
        amps = rng.normal(size=(dim, n_columns, n_states)) + 1j * rng.normal(
            size=(dim, n_columns, n_states)
        )
        amps /= np.linalg.norm(amps, axis=0)
        batched = qcore._execute_packed(amps.copy(), num_qubits, segments)
        assert batched.shape == amps.shape
        for p in range(n_columns):
            column = [
                seg if seg[0] == "dense" else seg[:4] + (seg[4][:, p],) for seg in segments
            ]
            for b in range(n_states):
                single = qcore._execute_packed(amps[:, p, b].copy(), num_qubits, column)
                assert np.abs(batched[:, p, b] - single).max() <= 1e-15


@pytest.mark.parametrize("n_patterns", [1, 2, 3])
def test_single_state_runs_reject_per_pattern_angles(n_patterns):
    from excitonsim.circuits import build_iteration_circuit

    gate = Gate.crz(np.linspace(0.1, 0.3, n_patterns), 0, 1)
    assert gate.angle.shape == (n_patterns,) and not gate.angle.flags.writeable
    signs = np.resize([0.5, -0.5], (n_patterns, 2, 1))
    batched = build_iteration_circuit(SystemHamiltonian.near_resonant(), 2.0, signs, 300.0)
    over_times = build_coherent_circuit(SystemHamiltonian.near_resonant(), np.arange(n_patterns) * 1.5)
    state = StateVector.basis_state(2, 2)
    with pytest.raises(ValueError, match="pattern"):
        qcore.run_circuit(QuantumCircuit(2, (Gate.x(0), gate)), state)
    with pytest.raises(ValueError, match="pattern"):
        qcore.run_circuit(batched, state)
    with pytest.raises(ValueError, match="pattern or time"):
        qcore.run_circuit(over_times, state)


@pytest.mark.parametrize("angle", [[0.1, np.nan], [0.1, np.inf], [[0.1, 0.2]], None])
def test_angle_vectors_must_be_finite_and_one_dimensional(angle):
    with pytest.raises(ValueError, match="finite angle"):
        Gate.crz(angle, 0, 1)
