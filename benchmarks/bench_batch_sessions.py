"""Batched update sessions vs per-update checking — and streaming.

A heavy-traffic front end does not check updates one at a time: an
:class:`repro.core.session.UpdateSession` shares the marked ASG, caches
probe results across the batch, cross-checks the queued plans and
applies the survivors in one transaction.  This module runs the same
≥20-update workload both ways over the BookView database and verifies

* the session issues **strictly fewer** probe ``SelectPlan``
  executions than the per-update baseline, and
* both leave the database in the **identical final state**.

The second half is the **streaming** workload behind
``BENCH_streaming.json``: a long-lived session absorbing hundreds of
single-update rounds, run once with probe-cache invalidation
(``UpdateSession(ivm=False)`` — every write drops the cached probes,
every round re-scans) and once with delta maintenance forced
(``db.ivm_threshold = math.inf`` — each write streams its delta rows
into the cached results).  Both runs arm the plan verifier
(``db.verify_plans``), so every lowered plan is checked before it
compiles.  The gate requires maintenance to scan >=
``MIN_STREAM_SPEEDUP``x fewer rows while producing byte-identical
probe rows and final table state.

The printed series mirrors the paper-style tables of the other
benchmark modules (x axis = batch size instead of DB size).
"""

import argparse
import json
import math
import time
from pathlib import Path

import pytest

from repro.core import Outcome, UpdateSession, run_per_update
from repro.rdb.plan import execute_select
from repro.workloads import books, chains

from .helpers import Series, byte_rows, timed

BENCH_STREAM_PATH = Path(__file__).resolve().parent.parent / "BENCH_streaming.json"

INSERT_REVIEW = """
    FOR $book IN document("BookView.xml")/book
    WHERE $book/title/text() = "Data on the Web"
    UPDATE $book {{
    INSERT
        <review>
            <reviewid>{rid}</reviewid>
            <comment>session comment {rid}</comment>
        </review>}}
"""

#: the target book is not in the view — rejected by the context check
INSERT_MISSING_CONTEXT = """
    FOR $book IN document("BookView.xml")/book
    WHERE $book/title/text() = "DB2 Universal Database"
    UPDATE $book {{
    INSERT
        <review>
            <reviewid>{rid}</reviewid>
            <comment>never lands</comment>
        </review>}}
"""


def batch_workload(size: int) -> list[str]:
    """Half translatable inserts (shared context), half rejected ones."""
    half = size // 2
    workload = [INSERT_REVIEW.format(rid=f"{500 + i}") for i in range(half)]
    workload += [
        INSERT_MISSING_CONTEXT.format(rid=f"{600 + i}")
        for i in range(size - half)
    ]
    return workload


def table_state(db):
    return {
        relation: sorted(
            tuple(sorted(row.items())) for row in db.rows(relation)
        )
        for relation in ("publisher", "book", "review")
    }


@pytest.mark.parametrize("size", [20, 40])
def test_session_beats_per_update(size):
    workload = batch_workload(size)

    db_each = books.build_book_database()
    reports = run_per_update(db_each, books.BOOK_VIEW_QUERY, workload)
    probes_each = db_each.stats["selects"]
    assert sum(r.outcome is Outcome.TRANSLATED for r in reports) == size // 2

    db_batch = books.build_book_database()
    session = UpdateSession(db_batch, books.BOOK_VIEW_QUERY)
    result = session.execute(workload, atomic=False)
    probes_batch = db_batch.stats["selects"]

    # the acceptance criterion: strictly fewer probe executions ...
    assert probes_batch < probes_each, (probes_batch, probes_each)
    assert result.probe_executions == probes_batch
    assert result.cache_hits > 0
    # ... with the identical final database state
    assert table_state(db_batch) == table_state(db_each)
    assert len(result.applied) == size // 2

    series = Series.get("Batch sessions: probe executions", "batch size")
    series.add("per-update", size, probes_each)
    series.add("sessioned", size, probes_batch)


def test_session_throughput(benchmark):
    """Wall-clock per batch: sessioned vs per-update checking."""
    workload = batch_workload(20)

    def run_batch():
        db = books.build_book_database()
        UpdateSession(db, books.BOOK_VIEW_QUERY).execute(workload, atomic=False)

    seconds_each = timed(
        lambda: run_per_update(
            books.build_book_database(), books.BOOK_VIEW_QUERY, workload
        )
    )
    seconds_batch = timed(run_batch)
    benchmark(run_batch)

    series = Series.get("Batch sessions: seconds per 20-update batch", "variant")
    series.add("per-update", "20 updates", seconds_each)
    series.add("sessioned", "20 updates", seconds_batch)


# ---------------------------------------------------------------------------
# streaming: long-lived sessions under invalidation vs maintenance
# ---------------------------------------------------------------------------

#: default streaming shape: parents pre-seeded in the chain database
#: (the rows every invalidate-and-recompute round pays to re-scan) and
#: live update rounds of two inserts each
STREAM_SEED_PARENTS = 240
STREAM_ROUNDS = 200
MIN_STREAM_SPEEDUP = 5.0


def stream_round(k: int) -> list[str]:
    """Round *k* of the stream: one child insert under the fixed parent
    "a" (its context probe over ``parent`` is the entry maintenance
    keeps alive) and one fresh parent insert (the write that would
    otherwise invalidate it)."""
    return [
        chains.STREAM_INSERT_CHILD.format(cid=f"CS{k:05d}", num=k),
        chains.STREAM_INSERT_PARENT.format(pid=f"PS{k:05d}"),
    ]


def chain_state(db):
    return {
        relation: sorted(
            tuple(sorted(row.items())) for row in db.rows(relation)
        )
        for relation in ("parent", "child", "grand")
    }


def run_streaming(maintain: bool, rounds: int, seed_parents: int) -> dict:
    """Drive *rounds* two-update executes through one long-lived session
    that either maintains every cached probe (*maintain*) or
    invalidates and recomputes them."""
    db = chains.build_chain_db(seed_parents=seed_parents)
    db.verify_plans = True
    if maintain:
        db.ivm_threshold = math.inf
    session = UpdateSession(db, chains.CHAIN_VIEW, ivm=maintain)
    before = dict(db.stats)
    applied = 0
    start = time.perf_counter()
    for k in range(rounds):
        result = session.execute(
            stream_round(k), mode="interleaved", atomic=False
        )
        applied += len(result.applied)
    seconds = time.perf_counter() - start
    measured = {
        key: db.stats[key] - before.get(key, 0)
        for key in (
            "rows_scanned",
            "selects",
            "ivm_maintained",
            "ivm_fallbacks",
            "ivm_delta_rows",
        )
    }
    measured["seconds"] = round(seconds, 4)
    measured["applied"] = applied
    return {"db": db, "session": session, "stats": measured}


def verify_probe_rows(run: dict) -> bool:
    """Every cached probe that carries a plan must hold rows
    byte-identical to a fresh recompute of that plan."""
    db = run["db"]
    entries = list(run["session"].cache._entries.values())
    checked = 0
    for entry in entries:
        if entry.plan is None:
            continue
        fresh = execute_select(db, entry.plan)
        if byte_rows(entry.probe.rows) != byte_rows(fresh):
            return False
        checked += 1
    return checked > 0


def run_streaming_suite(rounds: int, seed_parents: int) -> dict:
    invalidate = run_streaming(False, rounds, seed_parents)
    maintained = run_streaming(True, rounds, seed_parents)
    inv_stats, ivm_stats = invalidate["stats"], maintained["stats"]
    speedup = inv_stats["rows_scanned"] / max(ivm_stats["rows_scanned"], 1)
    return {
        "rounds": rounds,
        "seed_parents": seed_parents,
        "invalidate": inv_stats,
        "maintained": ivm_stats,
        "aggregate": {
            "scan_speedup": round(speedup, 2),
            "required_scan_speedup": MIN_STREAM_SPEEDUP,
            "probes_avoided": inv_stats["selects"] - ivm_stats["selects"],
        },
        "identical_state": chain_state(invalidate["db"])
        == chain_state(maintained["db"]),
        "identical_probe_rows": verify_probe_rows(maintained),
    }


def enforce_streaming_gates(report: dict) -> None:
    aggregate = report["aggregate"]
    if not report["identical_state"]:
        raise SystemExit("streaming: final table state diverged across policies")
    if not report["identical_probe_rows"]:
        raise SystemExit(
            "streaming: maintained probe rows differ from fresh recompute"
        )
    if aggregate["scan_speedup"] < MIN_STREAM_SPEEDUP:
        raise SystemExit(
            f"streaming scan speedup {aggregate['scan_speedup']}x below the "
            f"required {MIN_STREAM_SPEEDUP}x"
        )


def check_streaming_regression(
    report: dict, committed_path: Path, tolerance: float = 0.10
) -> None:
    """CI gate: fail when maintained ``rows_scanned`` regresses more
    than *tolerance* versus the committed ``BENCH_streaming.json``."""
    committed = json.loads(committed_path.read_text())
    shape = ("rounds", "seed_parents")
    if any(committed.get(key) != report.get(key) for key in shape):
        raise SystemExit(
            "streaming-regression check needs a matching workload shape: "
            f"fresh run is {[report.get(k) for k in shape]}, committed file "
            f"is {[committed.get(k) for k in shape]}"
        )
    baseline = committed["maintained"]["rows_scanned"]
    fresh = report["maintained"]["rows_scanned"]
    limit = baseline * (1.0 + tolerance)
    print(
        f"streaming-regression check: fresh={fresh} committed={baseline} "
        f"allowed<={limit:.0f}"
    )
    if fresh > limit:
        raise SystemExit(
            f"maintained rows_scanned regression: {fresh} > {limit:.0f} "
            f"({tolerance:.0%} over the committed {baseline})"
        )


def test_streaming_maintenance_beats_invalidation():
    """Tier-1 smoke for the streaming gate at a reduced round count."""
    report = run_streaming_suite(rounds=40, seed_parents=120)
    assert report["identical_state"]
    assert report["identical_probe_rows"]
    assert report["invalidate"]["applied"] == report["maintained"]["applied"] == 80
    assert report["maintained"]["ivm_maintained"] > 0
    assert report["aggregate"]["scan_speedup"] >= MIN_STREAM_SPEEDUP
    assert report["aggregate"]["probes_avoided"] > 0

    series = Series.get("Streaming sessions: rows scanned", "policy")
    series.add("invalidate", "40 rounds", report["invalidate"]["rows_scanned"])
    series.add("maintained", "40 rounds", report["maintained"]["rows_scanned"])


def print_streaming_report(report: dict) -> None:
    for label in ("invalidate", "maintained"):
        stats = report[label]
        print(
            f"  {label:12} {stats['rows_scanned']:>9} rows scanned, "
            f"{stats['selects']:>6} selects, {stats['seconds']*1000:9.2f} ms"
        )
    aggregate = report["aggregate"]
    print(
        f"streaming scan speedup: {aggregate['scan_speedup']}x "
        f"(required >= {aggregate['required_scan_speedup']}x), "
        f"{aggregate['probes_avoided']} probes avoided"
    )


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="40 rounds over 120 seeded parents (CI smoke mode)",
    )
    parser.add_argument(
        "--rounds", type=int, default=STREAM_ROUNDS,
        help=f"live two-insert update rounds (default: {STREAM_ROUNDS})",
    )
    parser.add_argument(
        "--seed-parents", type=int, default=STREAM_SEED_PARENTS,
        help=f"parents pre-seeded in the chain database "
             f"(default: {STREAM_SEED_PARENTS})",
    )
    parser.add_argument(
        "--out", type=Path, default=BENCH_STREAM_PATH,
        help=f"output JSON path (default: {BENCH_STREAM_PATH})",
    )
    parser.add_argument(
        "--check-against", type=Path, default=None, metavar="COMMITTED",
        help="fail if maintained rows_scanned regresses >10%% versus this "
             "committed BENCH_streaming.json (run at the committed shape)",
    )
    args = parser.parse_args(argv)
    if args.quick:
        args.rounds, args.seed_parents = 40, 120
    report = run_streaming_suite(args.rounds, args.seed_parents)
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    if args.check_against is not None:
        check_streaming_regression(report, args.check_against)
    print(f"wrote {args.out}")
    print_streaming_report(report)
    enforce_streaming_gates(report)


if __name__ == "__main__":
    main()
