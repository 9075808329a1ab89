"""Compare two benchmark records written by run.py.

    python3 perfbench/compare.py OLD.json NEW.json

Refuses, with exit code 2, to compare records of different workloads, trace
modes or excitonsim backends: a compiled-kernel run and a numpy-fallback run
measure different programs. Otherwise prints each metric's two medians and
the ratio new/old.
"""

import json
import sys
from pathlib import Path


def main(old_path: str, new_path: str) -> int:
    old, new = (json.loads(Path(p).read_text()) for p in (old_path, new_path))
    for key in ("backend", "workload", "trace"):
        a, b = old["environment"][key], new["environment"][key]
        if a != b:
            print(f"compare: refusing to compare {key} {a!r} with {b!r}", file=sys.stderr)
            return 2
    for name, stats in old["metrics"].items():
        before = stats and stats["median"]
        after = (new["metrics"].get(name) or {}).get("median")
        ratio = f"{after / before:.3f}" if before and after is not None else "-"
        print(f"{name:42s} {before!s:>22} {after!s:>22} {ratio:>7}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(*sys.argv[1:]))
