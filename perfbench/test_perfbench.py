"""Self-test of the benchmark.

    python3 -m pytest perfbench/test_perfbench.py

Takes about two minutes: each workload is run traced twice with one seed.
"""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import tracer
from tracer import COUNT_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_bench(cwd: Path, workload: str, seed: int, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("workload", ["ensemble_g300", "ensemble_n4_f2", "refit"])
def test_traced_counts_repeat_exactly(workload):
    counts = []
    for _ in range(2):
        proc = run_bench(ROOT, workload, 7, 1)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        counts.append({m: result["metrics"][m]["value"] for m in COUNT_METRICS})
    assert counts[0] == counts[1]
    assert all(isinstance(v, int) for v in counts[0].values())


def test_missing_binding_site_reports_none(monkeypatch):
    fake = types.ModuleType("perfbench_fake_layer")
    fake.present = lambda x: x + 1
    monkeypatch.setitem(sys.modules, fake.__name__, fake)
    monkeypatch.setattr(tracer, "RECORDERS", {
        "noise.run_ensemble": [(fake.__name__, "present")],
        "cli.load_config": [(fake.__name__, "absent")],
        "cli.read_csv": [("perfbench_no_such_module", "read_csv")],
    })
    t = tracer.Tracer()
    t.install()
    assert fake.present(1) == 2
    metrics = t.metrics(steps_requested=0)
    assert metrics["noise.reduction.self_s"] >= 0
    assert metrics["cli.load_config.busy_s"] is None
    assert metrics["cli.read_csv.busy_s"] is None
    assert metrics["qcore.gates_applied"] is None


def test_refuses_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_run", "__pycache__"))
    proc = run_bench(tmp_path, "refit", 1, 0)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_compare_refuses_different_backends(tmp_path):
    paths = []
    for backend in ("numpy", "cython"):
        record = {
            "environment": {"backend": backend, "workload": "refit", "trace": 0},
            "metrics": {"wall_s": {"median": 1.0}},
        }
        path = tmp_path / f"{backend}.json"
        path.write_text(json.dumps(record))
        paths.append(str(path))
    proc = subprocess.run([sys.executable, str(HERE / "compare.py"), *paths],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert "backend" in proc.stderr
