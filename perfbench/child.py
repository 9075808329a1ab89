"""One benchmark sample in a fresh process: set up, run the workload once, report.

    python3 child.py SPEC MODE SPAWN_NS OUT

SPEC is the workload spec written by run.py. MODE is "probe" (set-up only),
"plain" or "traced". SPAWN_NS is the parent's CLOCK_MONOTONIC reading taken
just before it started this process, so set-up time includes interpreter
start-up. The sample writes its outputs and result.json into the directory OUT.
"""

import json
import resource
import sys
import time
from pathlib import Path


def main(spec_path: str, mode: str, spawn_ns: str, out: str) -> None:
    out = Path(out)
    spec = json.loads(Path(spec_path).read_text())
    src = Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(src))
    import excitonsim

    if not Path(excitonsim.__file__).resolve().is_relative_to(src):
        sys.exit(f"excitonsim was imported from {excitonsim.__file__}, not from {src}")
    import workloads

    run = workloads.load(spec, out)
    ready_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    result = {
        "setup_s": (ready_ns - int(spawn_ns)) / 1e9,
        "backend": getattr(excitonsim, "BACKEND", None),
    }
    if mode != "probe":
        tracer = None
        if mode == "traced":
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        start = time.perf_counter()
        output = run()
        result["wall_s"] = time.perf_counter() - start
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["output"] = str(output)
        if tracer is not None:
            result["layers"] = tracer.metrics(workloads.steps_requested(spec["name"]))
    (out / "result.json").write_text(json.dumps(result))


if __name__ == "__main__":
    main(*sys.argv[1:])
