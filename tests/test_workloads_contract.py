"""The benchmark's workloads still run and pass their checks on the package.

``perfbench/workloads.py`` calls the package's command line, ``run_ensemble``
and, in its oracle, ``generate_trajectory`` and ``exact_trajectory_series``,
so a change to any of them could otherwise surface only as a failed
benchmark sample. The module is loaded by file path, not put on ``sys.path``.
``ensemble_g300`` is left out: it costs several times the other two and runs
the same oracle as ``ensemble_n4_f2``.
"""

import importlib.util
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["ensemble_n4_f2", "refit"])
def test_workload_runs_and_passes_its_check(name, tmp_path):
    workloads = load_workloads()
    inputs, out = tmp_path / "inputs", tmp_path / "out"
    inputs.mkdir()
    out.mkdir()
    spec = workloads.make_inputs(name, 3, inputs)
    output = workloads.load(spec, out)()
    assert workloads.check(name, spec, output) is None
