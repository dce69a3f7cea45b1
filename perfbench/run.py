"""Run one benchmark workload and print its metrics as JSON.

Usage, from the repository root::

    python3 perfbench/run.py --workload tpch-point --seed 1 --seconds 10 --trace 0

The last line of standard output is the result object (``correct``,
``attempted``, ``failed``, ``metrics``); the line before it carries the
run's detail (engine knobs, tail percentile, failures).  ``--trace 1``
reports the per-layer metrics and writes the spans of the first
requests to ``perfbench/out/``.  Exits 1 when any request failed, 2
when the run cannot start.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import harness

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    refused = [name for name in harness.REFUSED_ENVIRONMENT if name in os.environ]
    if refused:
        print(f"refusing to run with {', '.join(refused)} set: the benchmark "
              "measures the default engine configuration", file=sys.stderr)
        return 2
    outcome = harness.run(
        args.workload, args.seed, args.seconds, bool(args.trace),
        out_dir=ROOT / "perfbench" / "out",
    )
    print(json.dumps(outcome["detail"]))
    print(json.dumps(outcome["result"]))
    return 0 if outcome["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
