"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper --seed 0 --seconds 20 --trace 0

``--trace 0`` measures every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` runs the workload again with span wrappers installed and
prints every per-layer metric instead (zero where the workload does no
work in that layer).  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``; the line
before it records what was measured (revision, versions, cores, seed
details).  The exit code is non-zero, with no result printed, when the
program under test cannot be run.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import os
import platform
import subprocess
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
for _path in (str(ROOT / "src"), str(ROOT)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

WORKLOADS = ("paper", "stream-saturated", "stream-stable", "service")


def environment() -> dict[str, object]:
    """What the numbers were measured on."""
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        rev = "unknown"
    versions: dict[str, object] = {}
    for module in ("numpy", "networkx"):
        versions[module] = importlib.import_module(module).__version__
    numba = False
    if importlib.util.find_spec("numba") is not None:
        try:
            importlib.import_module("numba")
            numba = True
        except ImportError:
            numba = False
    return {
        "revision": rev,
        "python": platform.python_version(),
        **versions,
        "numba_imports": numba,
        "nproc": os.cpu_count(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not spec_path.is_file():
        print("perfbench: no program to run (src/repro or BENCHMARK.json missing)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    from perfbench.common import pin_driver

    pin_driver()
    try:
        env = environment()
        if args.workload == "paper":
            from perfbench import paper

            outcome = paper.run(args.seed, args.seconds, bool(args.trace))
        elif args.workload == "service":
            from perfbench import service

            outcome = service.run(args.seed, args.seconds, bool(args.trace))
        else:
            from perfbench import streams

            outcome = streams.run(args.workload, args.seed, args.seconds, bool(args.trace))
    except Exception:
        traceback.print_exc()
        return 1

    metrics: dict[str, dict[str, object]] = {}
    for entry in wanted:
        name = entry["name"]
        if args.trace:
            value = float(outcome.metrics.get(name, 0.0))
        elif name in outcome.metrics:
            value = float(outcome.metrics[name])
        else:
            print(f"perfbench: {args.workload} measured no {name}", file=sys.stderr)
            return 1
        metrics[name] = {"value": value, "unit": entry["unit"]}
    for problem in outcome.problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "env": env, **outcome.details}))
    print(json.dumps({
        "correct": outcome.failed == 0 and outcome.attempted > 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
