"""End-to-end and per-layer benchmark of excitonsim.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see workloads.py) for about S seconds. Every sample is a
fresh single-threaded child process (child.py), started one at a time, so
nothing one sample caches helps the next, as for a command-line user. With
--trace 0 the samples run without wrappers and the result carries the
end-to-end metrics; with --trace 1 samples alternate between untraced and
traced (tracer.py), the result carries the per-layer metrics, and the
difference in wall time is the tracing overhead. Every metric measured is
also printed by name and unit on a "#" line.

Every sample's output is checked against an independent oracle after the
timed region, and all samples of one run must produce the same output bytes;
a sample that fails either counts as a failed operation. The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics. A fuller record, with the backend, versions, CPU count, commit
and seed, is written to perfbench/_run/records/ (compare two with compare.py).
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import workloads
from tracer import COUNT_METRICS, TRACED_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_DIR = HERE / "_run"
# set-up-only children per run, so setup_s is a median of several start-ups
SETUP_PROBES = 6
# every child must have ended by then, so the run exits within 180 s
HARD_LIMIT_S = 150.0
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    return env


def spawn(spec_path: Path, mode: str, out: Path, deadline: float):
    """Run one child to completion; returns (result dict or None, error text)."""
    out.mkdir()
    argv = [sys.executable, str(HERE / "child.py"), str(spec_path), mode]
    spawn_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen(
        argv + [str(spawn_ns), str(out)],
        cwd=out,
        env=child_env(),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
    )
    try:
        _, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, f"{mode} sample killed after the run's time limit"
    if proc.returncode != 0:
        lines = err.decode(errors="replace").strip().splitlines()
        return None, lines[-1] if lines else f"child exited with code {proc.returncode}"
    return json.loads((out / "result.json").read_text()), None


def quartiles(values):
    if len(values) == 1:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def run_samples(args, spec_path: Path, workdir: Path):
    """Probes, then timed samples while the next one still fits in --seconds.

    Returns (set-up error or None, probe results, samples).
    """
    start = time.monotonic()
    end, deadline = start + args.seconds, start + HARD_LIMIT_S
    probes, samples, durations = [], [], []
    counter = itertools.count()
    if not args.trace:
        for _ in range(SETUP_PROBES):
            res, err = spawn(spec_path, "probe", workdir / f"s{next(counter)}", deadline)
            if err:
                return err, [], []
            probes.append(res)
    modes = itertools.cycle(["plain", "traced"] if args.trace else ["plain"])
    minimum = 2 if args.trace else 1
    while True:
        now = time.monotonic()
        if len(samples) >= minimum:
            if now + statistics.median(durations) > min(end, deadline):
                break
        mode = next(modes)
        res, err = spawn(spec_path, mode, workdir / f"s{next(counter)}", deadline)
        durations.append(time.monotonic() - now)
        samples.append({"mode": mode, "result": res, "error": err})
        if time.monotonic() >= deadline:
            break
    return None, probes, samples


def check_samples(name: str, spec: dict, samples: list) -> None:
    """Oracle check, output identity and count identity; marks each sample's error."""
    reference_bytes = reference_counts = None
    for s in samples:
        res = s["result"]
        if res is None:
            continue
        output = Path(res["output"])
        try:
            s["error"] = workloads.check(name, spec, output)
            digest = hashlib.sha256(workloads.output_bytes(name, output)).hexdigest()
        except Exception as exc:  # unreadable output fails the sample, not the run
            s["error"] = f"output check raised {exc!r}"
            continue
        reference_bytes = reference_bytes or digest
        if s["error"] is None and digest != reference_bytes:
            s["error"] = "output bytes differ from the run's first sample"
        if "layers" in res:
            counts = {m: res["layers"][m] for m in COUNT_METRICS}
            reference_counts = reference_counts or counts
            if s["error"] is None and counts != reference_counts:
                s["error"] = "traced counts differ from the run's first traced sample"


def summarize(values):
    values = [v for v in values if v is not None]
    if not values:
        return None
    q1, med, q3 = quartiles(values)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def end_to_end(probes, plain_samples):
    plain = [s["result"] for s in plain_samples]
    return {
        "wall_s": summarize([r["wall_s"] for r in plain]),
        "setup_s": summarize([r["setup_s"] for r in probes + plain]),
        "peak_rss_mb": summarize([r["peak_rss_mb"] for r in plain]),
    }


def per_layer(ok):
    traced = [s["result"]["layers"] for s in ok if s["mode"] == "traced"]
    out = {}
    for name in TRACED_METRICS:
        if name in COUNT_METRICS:
            out[name] = {"median": traced[0][name], "n": len(traced)} if traced else None
        else:
            out[name] = summarize([layers[name] for layers in traced])
    traced_wall = [s["result"]["wall_s"] for s in ok if s["mode"] == "traced"]
    plain_wall = [s["result"]["wall_s"] for s in ok if s["mode"] == "plain"]
    out["trace.overhead_s"] = None
    if traced_wall and plain_wall:
        overhead = statistics.median(traced_wall) - statistics.median(plain_wall)
        out["trace.overhead_s"] = {"median": overhead, "n": min(len(traced_wall), len(plain_wall))}
    return out


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


def environment(args, samples) -> dict:
    backends = sorted({str(s["result"]["backend"]) for s in samples if s["result"]})
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "backend": backends[0] if len(backends) == 1 else backends,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "source_sha256": src.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "master_seed": workloads.master_seed(args.seed, args.workload),
        "seconds": args.seconds,
        "trace": args.trace,
    }


def measure(args, workdir: Path) -> int:
    spec = workloads.make_inputs(args.workload, args.seed, workdir)
    spec_path = workdir / "spec.json"
    spec_path.write_text(json.dumps(spec))
    err, probes, samples = run_samples(args, spec_path, workdir)
    if err:
        print(f"perfbench: set-up failed: {err}", file=sys.stderr)
        return 1
    check_samples(args.workload, spec, samples)
    ok = [s for s in samples if s["error"] is None]
    failed = len(samples) - len(ok)
    for s in samples:
        if s["error"]:
            print(f"# FAILED {s['mode']} sample: {s['error']}", file=sys.stderr)
    if not ok:
        print("perfbench: no sample succeeded", file=sys.stderr)
        return 1
    summary = end_to_end(probes, [s for s in ok if s["mode"] == "plain"])
    units = {name: END_TO_END_UNITS[name] for name in summary}
    if args.trace:
        summary.update(per_layer(ok))
        units.update({name: layer_unit(name) for name in summary if name not in units})
    for name, stats in summary.items():
        value, n = (None, "-") if stats is None else (stats["median"], stats["n"])
        print(f"# {args.workload} {name} = {value} {units[name]} (median of {n})")
    reported = TRACED_METRICS + ["trace.overhead_s"] if args.trace else list(END_TO_END_UNITS)
    metrics = {
        name: {"value": None if summary[name] is None else summary[name]["median"], "unit": units[name]}
        for name in reported
    }
    record = {
        "environment": environment(args, samples),
        "attempted": len(samples),
        "failed": failed,
        "metrics": summary,
        "samples": samples,
        "setup_probes": [p["setup_s"] for p in probes],
    }
    records = RUN_DIR / "records"
    records.mkdir(parents=True, exist_ok=True)
    path = records / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")
    print(f"# environment {json.dumps(record['environment'], sort_keys=True)}")
    print(f"# record {path}")
    result = {"correct": failed == 0, "attempted": len(samples), "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "excitonsim" / "__init__.py").is_file():
        print(f"perfbench: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workdir = RUN_DIR / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
