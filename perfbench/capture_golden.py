"""Capture the golden stdout of the cli workload's commands.

    python3 perfbench/capture_golden.py

Run it only at a commit whose CLI output is known good: the benchmark
compares every later commit's output with these bytes.  It runs each
command the way the benchmark does, in a child with the pinned
environment, and rewrites perfbench/golden/cli.json.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import workloads as wl  # noqa: E402


def main() -> int:
    env = wl.child_env(ROOT)
    runs = []
    for argv in inputs.GOLDEN_ARGVS:
        res = wl.run_child([sys.executable, "-m", "shapeforge.cli", *argv], env, ROOT)
        if res.exit != 0:
            print(f"{' '.join(argv)}: exit {res.exit}: {res.stderr.decode()}", file=sys.stderr)
            return 1
        runs.append({"argv": argv, "stdout": res.stdout.decode("utf-8")})
    out = HERE / "golden" / "cli.json"
    out.write_text(json.dumps({"runs": runs}, indent=1) + "\n")
    print(f"wrote {len(runs)} golden outputs to {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
