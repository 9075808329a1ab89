"""The benchmark tracer's binding sites still name package functions.

``perfbench/tracer.py`` wraps package attributes by name and reports None for
a recorder none of whose names resolves, so a rename in the package would
surface only as a null metric in a traced benchmark run. The tracer is loaded
by file path and never installed: installing it would wrap the package's
functions for the rest of the test session.
"""

import dataclasses
import importlib
import importlib.util
import itertools
from pathlib import Path

import numpy as np
import pytest

from excitonsim import circuits, qcore, reference
from excitonsim.model import SystemHamiltonian

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolves(module_name: str, path: str) -> bool:
    """Whether ``path`` names a callable in the package module ``module_name``."""
    if not module_name.startswith("excitonsim."):
        return False
    try:
        owner = importlib.import_module(module_name)
    except ModuleNotFoundError:
        return False
    for part in path.split("."):
        owner = getattr(owner, part, None)
    return callable(owner)


def test_every_recorder_has_a_binding_site_in_the_package():
    tracer = load_tracer()
    unbound = [
        name
        for name, sites in tracer.RECORDERS.items()
        if not any(resolves(module_name, path) for module_name, path in sites)
    ]
    assert unbound == []


def test_fit_result_carries_the_evaluation_count_the_tracer_reads():
    assert "n_evaluations" in {f.name for f in dataclasses.fields(reference.FitResult)}


def _chain4():
    j = np.diag(np.full(3, 126.0), 1)
    return SystemHamiltonian(np.array([13000.0, 12900.0, 13000.0, 12900.0]), j + j.T)


@pytest.mark.parametrize(
    "h, sums",
    [
        (SystemHamiltonian.near_resonant(), list(itertools.product([0.5, -0.5], repeat=2))),
        (_chain4(), [[1.0, 0.0, -1.0, 0.0], [0.0, 0.0, 0.0, 0.0], [-1.0, 1.0, 0.0, 1.0], [1.0, 1.0, 1.0, 1.0]]),
    ],
    ids=["2-site", "4-site"],
)
def test_gates_applied_counts_every_gate_of_a_run_circuit(monkeypatch, h, sums):
    """The tracer's qcore.gates_applied units, fed the kernel calls one
    pattern-batched execution makes, add up to the circuit's gate count."""
    tracer = load_tracer()
    calls = []
    for recorder, attr in (("qcore.apply_ops", "_apply_ops"), ("qcore.apply_dense", "_apply_dense")):

        def record(*args, _recorder=recorder, _kernel=getattr(qcore, attr)):
            result = _kernel(*args)
            calls.append((_recorder, args, result))
            return result

        monkeypatch.setattr(qcore, attr, record)
    circuit = circuits.build_iteration_circuit(h, 2.0, np.array(sums), 300.0)
    dim = 1 << h.n_system_qubits
    amps = np.zeros((2 * dim, len(sums), dim), dtype=np.complex128)
    amps[dim:] = np.eye(dim)[:, None, :]
    qcore._execute_packed(amps, h.n_system_qubits + 1, circuit.packed())

    kernels = {recorder for recorder, _, _ in calls}
    assert "qcore.apply_ops" in kernels
    assert ("qcore.apply_dense" in kernels) == (h.n_sites > 2)
    counted = sum(tracer.UNITS[recorder](args, result) for recorder, args, result in calls)
    assert counted == len(circuit.gates)
