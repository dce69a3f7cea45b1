"""Per-request-class timings of one perfbench workload.

Usage, from the repository root::

    python3 benchmarks/request_classes.py --workload tpch-bulk --seed 1 --requests 400
    python3 benchmarks/request_classes.py --workload tpch-point --seed 1 --setup 5

Builds the workload the way ``perfbench/run.py`` does (set-up, then one
warm-up pass), sends the next ``--requests`` requests of its stream,
and times each request alone.  The untimed restore that follows some
requests (tpch-bulk rolls back every accepted delete) is timed apart.
Prints one line per request class (the request's ``kind``) with its
count, median and sum in milliseconds, then the restores and the
total.  perfbench counts a restore only in ``updates_per_s``, so the
restore line shows where that metric and the request latencies part.

``--setup N`` prints the set-up split instead: ``build()`` and the
warm-up pass, each the min and median over *N* set-ups, and the
tracemalloc peak of one more ``build()``.  perfbench's ``setup_s`` is
the median of their sum.

The tool only imports ``perfbench``.  Every outcome is checked against
the generator's expectation; the exit status is 1 when any request
failed.
"""

from __future__ import annotations

import argparse
import gc
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: the pseudo-class of the untimed restores between requests
RESTORE = "(restore)"


def measure(workload_name: str, seed: int, requests: int) -> tuple[dict[str, list[float]], int]:
    """Seconds per request class (and per restore, under
    :data:`RESTORE`) over *requests* requests, and the failure count."""
    from perfbench import harness
    from perfbench.streams import WORKLOADS

    setup = harness.set_up(WORKLOADS[workload_name](seed))
    failures = len(setup.failures)
    env, stream = setup.env, setup.stream
    gc.collect()
    gc.freeze()
    clock = time.perf_counter
    timings: dict[str, list[float]] = {}
    try:
        for _ in range(requests):
            request = next(stream)
            started = clock()
            outcome, rows = env.send(request)
            timings.setdefault(request.kind, []).append(clock() - started)
            if (outcome, rows) != (request.expect, request.rows):
                failures += 1
            if request.restore:
                started = clock()
                env.restore()
                timings.setdefault(RESTORE, []).append(clock() - started)
    finally:
        gc.unfreeze()
    return timings, failures


def setup_split(workload_name: str, seed: int, setups: int) -> tuple[dict[str, list[float]], int, int]:
    """Seconds of ``build()`` and of the warm-up pass over *setups*
    set-ups, run as ``perfbench``'s set-up runs them, the traced peak
    bytes of one more ``build()``, and the warm-up failure count."""
    from perfbench.streams import WORKLOADS, Model

    workload = WORKLOADS[workload_name](seed)
    clock = time.perf_counter
    split: dict[str, list[float]] = {"build": [], "warm-up": []}
    failures = 0
    for _ in range(setups):
        env = None  # let the previous set-up's database go first
        gc.collect()
        started = clock()
        env = workload.build()
        split["build"].append(clock() - started)
        stream = workload.requests(Model(env.db, workload.relations))
        started = clock()
        for _ in range(workload.warmup_length):
            request = next(stream)
            if env.send(request) != (request.expect, request.rows):
                failures += 1
            if request.restore:
                env.restore()
        split["warm-up"].append(clock() - started)
    env = None
    gc.collect()
    tracemalloc.start()
    try:
        workload.build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return split, peak, failures


def table(timings: dict[str, list[float]]) -> list[tuple[str, int, float, float]]:
    """``(class, count, median ms, sum ms)`` per request class, slowest
    sum first, then the restores and the requests' total."""
    def row(name: str, seconds: list[float]) -> tuple[str, int, float, float]:
        return name, len(seconds), statistics.median(seconds) * 1e3, sum(seconds) * 1e3

    classes = sorted(
        (row(name, seconds) for name, seconds in timings.items() if name != RESTORE),
        key=lambda line: -line[3],
    )
    lines = list(classes)
    if RESTORE in timings:
        lines.append(row(RESTORE, timings[RESTORE]))
    every = [t for name, seconds in timings.items() if name != RESTORE for t in seconds]
    if every:
        lines.append(row("total (requests)", every))
    return lines


def main(argv: list[str] | None = None) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.streams import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--requests", type=int, default=400)
    parser.add_argument("--setup", type=int, metavar="N",
                        help="print the set-up split over N set-ups instead")
    args = parser.parse_args(argv)

    if args.setup:
        split, peak, failures = setup_split(args.workload, args.seed, args.setup)
        print(f"{'phase':12} {'min_s':>8} {'median_s':>9}")
        for phase, seconds in split.items():
            print(f"{phase:12} {min(seconds):8.3f} {statistics.median(seconds):9.3f}")
        print(f"build traced peak: {peak / 1e6:.1f} MB")
        if failures:
            print(f"{failures} warm-up request(s) did not match the generator's expectation")
        return 1 if failures else 0

    timings, failures = measure(args.workload, args.seed, args.requests)
    print(f"{'class':32} {'count':>6} {'median_ms':>10} {'sum_ms':>10}")
    for name, count, median, total in table(timings):
        print(f"{name:32} {count:6d} {median:10.3f} {total:10.1f}")
    if failures:
        print(f"{failures} request(s) did not match the generator's expectation")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
