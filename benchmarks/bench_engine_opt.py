"""Engine benchmark: Fig. 15/16 probe workloads under the interpreted
and the row-compiled executor.

Each workload composes a real probe query through the U-Filter pipeline
(view ASG → Translator.probe_plan) over the TPC-H schema, or builds the
scan/join-heavy shapes those probes degenerate to, then executes the
identical :class:`SelectPlan` under each executor:

* **before** — ``execute_select(..., optimize=False)``: the pre-PR
  literal FROM-order nested loop with per-row ``Expr`` interpretation
  (run once; it exists as the oracle and the scan-count baseline);
* **row_compiled** — ``execute_select(...)``: join reordering, compiled
  predicates, index probes and transient hash joins, closure-per-row.

The harness asserts **byte-identical** results (same rows, same key
order, same row order) between the two executors wherever the oracle
runs, and a strict scan reduction versus the interpreted baseline on
the probe workloads.  Aggregates land in ``BENCH_engine.json`` — the
perf trajectory later PRs must not regress.

Run standalone (``python benchmarks/bench_engine_opt.py [--scale MB]``),
via ``repro bench``, or let pytest pick up the quick smoke test below.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

from repro.core import UFilter
from repro.core.update_binding import resolve_update
from repro.rdb import Comparison, FromItem, SelectPlan, col, lit
from repro.rdb.plan import execute_select
from repro.workloads import tpch
from repro.xquery import parse_view_update

try:
    from .helpers import byte_rows
except ImportError:  # running as a script: python benchmarks/bench_engine_opt.py
    import sys

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from helpers import byte_rows

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_engine.json"

#: acceptance floor: aggregate scan reduction across the probe workloads
MIN_SCAN_REDUCTION = 5.0
#: default scale/rounds of a full (non --quick) run
DEFAULT_SCALE_MB = 50.0
DEFAULT_ROUNDS = 3


# ---------------------------------------------------------------------------
# workload construction
# ---------------------------------------------------------------------------

def _probe_for(ufilter: UFilter, update) -> SelectPlan:
    resolved = resolve_update(ufilter.view_asg, update)
    node = resolved.ops[0].node
    return ufilter.checker.translator.probe_plan(node, resolved)


def _bush_delete_order(order_key: int):
    return parse_view_update(
        f"""
        FOR $root IN document("TpchBush.xml"),
            $x IN $root/customer/order
        WHERE $x/o_orderkey/text() = "{order_key}"
        UPDATE $root {{ DELETE $x }}
        """,
        name=f"bush-delete-order-{order_key}",
    )


def build_workloads(db, scale) -> list[dict]:
    """Workload specs re-creating the paper's probe shapes.

    ``expect_scan_reduction`` marks probe workloads where the optimizer
    must beat the interpreted baseline's rows_scanned; ``oracle=False``
    skips the interpreted run entirely (the pure nested-loop baseline is
    quadratic in the join inputs and would dominate the harness at
    scale — tests/property/test_prop_plan_ir.py pins the hash-join
    closures to the oracle instead).
    """
    linear = UFilter(db, tpch.v_linear())
    bush = UFilter(db, tpch.v_bush())
    order_key = scale.orders // 2
    workloads = [
        {
            "label": "fig15-lineitem-delete-context-probe",
            "plan": _probe_for(
                linear, tpch.delete_by_key("lineitem", order_key)
            ),
            "expect_scan_reduction": True,
        },
        {
            "label": "fig15-order-insert-context-probe",
            "plan": _probe_for(
                linear, tpch.insert_lineitem_update(order_key, 999)
            ),
            "expect_scan_reduction": True,
        },
        {
            "label": "fig16-bush-order-delete-probe",
            "plan": _probe_for(bush, _bush_delete_order(order_key)),
            "expect_scan_reduction": True,
        },
        # Fig. 15's internal-checking regime degenerates to full scans
        # of lineitem with a literal filter.  Both executors scan every
        # row, so no scan reduction is expected.
        {
            "label": "fig15-lineitem-quantity-scan",
            "plan": SelectPlan(
                from_items=[FromItem("lineitem")],
                where=Comparison(
                    "<", col("lineitem.l_quantity"), lit(10)
                ),
            ),
            "expect_scan_reduction": False,
        },
    ]
    # Fig. 16's outside strategy: the probe target and its context are
    # both unindexed temp-table materializations — the join that used
    # to degrade to a pure nested loop and now runs as a hash join.
    context = execute_select(db, SelectPlan(from_items=[FromItem("customer")]))
    db.create_temp_table(
        "TAB_ctx",
        ["customer__c_custkey", "customer__c_name"],
        [
            {"customer__c_custkey": row["c_custkey"],
             "customer__c_name": row["c_name"]}
            for row in context
        ],
    )
    db.create_temp_table(
        "TAB_orders",
        ["orders__o_orderkey", "orders__o_custkey"],
        [
            {"orders__o_orderkey": row["o_orderkey"],
             "orders__o_custkey": row["o_custkey"]}
            for row in execute_select(
                db, SelectPlan(from_items=[FromItem("orders")])
            )
        ],
    )
    db.create_temp_table(
        "TAB_lines",
        ["lineitem__l_orderkey", "lineitem__l_quantity"],
        [
            {"lineitem__l_orderkey": row["l_orderkey"],
             "lineitem__l_quantity": row["l_quantity"]}
            for row in execute_select(
                db, SelectPlan(from_items=[FromItem("lineitem")])
            )
        ],
    )
    workloads.append(
        {
            "label": "fig16-materialized-context-join",
            "plan": SelectPlan(
                from_items=[FromItem("TAB_ctx"), FromItem("TAB_orders")],
                where=Comparison(
                    "=",
                    col("TAB_orders.orders__o_custkey"),
                    col("TAB_ctx.customer__c_custkey"),
                ),
            ),
            "expect_scan_reduction": True,
        }
    )
    workloads.append(
        {
            "label": "fig16-materialized-lineitem-join",
            "plan": SelectPlan(
                from_items=[FromItem("TAB_orders"), FromItem("TAB_lines")],
                where=Comparison(
                    "=",
                    col("TAB_lines.lineitem__l_orderkey"),
                    col("TAB_orders.orders__o_orderkey"),
                ),
            ),
            "expect_scan_reduction": False,
            "oracle": False,
        }
    )
    return workloads


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def _timed(fn, rounds: int) -> float:
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def run_workload(db, spec: dict, rounds: int) -> dict:
    label, plan = spec["label"], spec["plan"]

    naive_image = naive_scanned = naive_seconds = None
    if spec.get("oracle", True):
        before = db.stats["rows_scanned"]
        start = time.perf_counter()
        naive_image = byte_rows(execute_select(db, plan, optimize=False))
        naive_seconds = time.perf_counter() - start
        naive_scanned = db.stats["rows_scanned"] - before

    before = db.stats["rows_scanned"]
    row_image = byte_rows(execute_select(db, plan))
    row_scanned = db.stats["rows_scanned"] - before
    row_seconds = _timed(lambda: execute_select(db, plan), rounds)

    if naive_image is not None and row_image != naive_image:
        raise AssertionError(f"{label}: compiled result differs from naive")
    if (
        spec["expect_scan_reduction"]
        and naive_scanned is not None
        and row_scanned >= naive_scanned
    ):
        raise AssertionError(
            f"{label}: optimized executor scanned {row_scanned} rows, "
            f"naive scanned {naive_scanned} — no strict reduction"
        )

    entry = {
        "label": label,
        "sql": plan.to_sql()[:160],
        "result_rows": len(row_image),
        "row_compiled": {"rows_scanned": row_scanned, "seconds": row_seconds},
        "expect_scan_reduction": spec["expect_scan_reduction"],
    }
    if naive_scanned is not None:
        entry["identical_results"] = True
        entry["before"] = {
            "rows_scanned": naive_scanned, "seconds": naive_seconds,
        }
        entry["after"] = {
            "rows_scanned": row_scanned, "seconds": row_seconds,
        }
        entry["scan_reduction"] = round(
            naive_scanned / max(row_scanned, 1), 2
        )
        entry["speedup"] = round(
            naive_seconds / max(row_seconds, 1e-9), 2
        )
    return entry


def run_suite(megabytes: float, rounds: int = DEFAULT_ROUNDS) -> dict:
    scale = tpch.scale_rows(megabytes)
    db = tpch.build_tpch_database(scale)
    workloads = build_workloads(db, scale)
    # explicit ANALYZE after the bulk load (and the temp-table
    # materializations build_workloads creates): the planner starts from
    # fresh statistics instead of charging the first probe with the
    # lazy-rebuild scan
    db.analyze()
    results = [run_workload(db, spec, rounds) for spec in workloads]
    # the scan-reduction aggregate covers the probe workloads only: the
    # deliberate full-scan shapes would dilute it with 1x entries
    probed = [
        entry for entry in results
        if "before" in entry and entry["expect_scan_reduction"]
    ]
    before_total = sum(entry["before"]["rows_scanned"] for entry in probed)
    after_total = sum(entry["after"]["rows_scanned"] for entry in probed)
    reduction = before_total / max(after_total, 1)
    return {
        "benchmark": "engine executors (Fig. 15/16 probe workloads)",
        "db_size_mb": megabytes,
        "total_rows": scale.total_rows,
        "timing_rounds": rounds,
        "workloads": results,
        "aggregate": {
            "before_rows_scanned": before_total,
            "after_rows_scanned": after_total,
            "scan_reduction": round(reduction, 2),
            "required_scan_reduction": MIN_SCAN_REDUCTION,
        },
        "engine_stats": {
            key: db.stats[key]
            for key in (
                "selects", "rows_scanned", "index_joins", "hash_joins",
                "plans_compiled", "plan_cache_hits", "reorders",
                "bushy_plans", "stats_rebuilds", "rowid_plans_compiled",
                "rowid_cache_hits", "replans_avoided",
            )
        },
    }


def check_regression(
    report: dict, committed_path: Path, tolerance: float = 0.10
) -> None:
    """CI gate: fail when the fresh aggregate ``rows_scanned`` regresses
    more than *tolerance* versus the committed ``BENCH_engine.json``."""
    committed = json.loads(committed_path.read_text())
    if committed.get("db_size_mb") != report.get("db_size_mb"):
        raise SystemExit(
            f"scan-regression check needs matching scales: fresh run is "
            f"{report.get('db_size_mb')} MB, committed file is "
            f"{committed.get('db_size_mb')} MB (pass a matching --scale)"
        )
    baseline = committed["aggregate"]["after_rows_scanned"]
    fresh = report["aggregate"]["after_rows_scanned"]
    limit = baseline * (1.0 + tolerance)
    print(
        f"scan-regression check: fresh={fresh} committed={baseline} "
        f"allowed<={limit:.0f}"
    )
    if fresh > limit:
        raise SystemExit(
            f"rows_scanned regression: {fresh} > {limit:.0f} "
            f"({tolerance:.0%} over the committed {baseline})"
        )


def print_report(report: dict) -> None:
    for entry in report["workloads"]:
        before = entry.get("before")
        baseline = (
            f"{before['rows_scanned']:>8}" if before else "       -"
        )
        print(
            f"  {entry['label']:38} {baseline} -> "
            f"{entry['row_compiled']['rows_scanned']:>7} rows scanned, "
            f"row {entry['row_compiled']['seconds']*1000:9.2f} ms"
        )
    aggregate = report["aggregate"]
    print(
        f"aggregate scan reduction: {aggregate['scan_reduction']}x "
        f"(required >= {aggregate['required_scan_reduction']}x)"
    )


def enforce_gates(report: dict) -> None:
    aggregate = report["aggregate"]
    if aggregate["scan_reduction"] < MIN_SCAN_REDUCTION:
        raise SystemExit(
            f"scan reduction {aggregate['scan_reduction']}x below the "
            f"required {MIN_SCAN_REDUCTION}x"
        )


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def test_engine_opt_smoke():
    """Tier-1 smoke: >=5x fewer rows scanned, identical results under
    both executors wherever the oracle runs."""
    report = run_suite(0.5, rounds=1)
    assert report["aggregate"]["scan_reduction"] >= MIN_SCAN_REDUCTION
    assert all(
        entry["identical_results"]
        for entry in report["workloads"]
        if "before" in entry
    )
    assert all(
        entry["after"]["rows_scanned"] < entry["before"]["rows_scanned"]
        for entry in report["workloads"]
        if "before" in entry and entry["label"].endswith("probe")
    )


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="0.5 MB scale, one timing round (CI smoke mode)",
    )
    parser.add_argument(
        "--scale", type=float, default=DEFAULT_SCALE_MB, metavar="MB",
        help=f"nominal database size in MB (default: {DEFAULT_SCALE_MB})",
    )
    parser.add_argument(
        "--rounds", type=int, default=DEFAULT_ROUNDS,
        help=f"best-of timing rounds per executor (default: {DEFAULT_ROUNDS})",
    )
    parser.add_argument(
        "--out", type=Path, default=BENCH_PATH,
        help=f"output JSON path (default: {BENCH_PATH})",
    )
    parser.add_argument(
        "--check-against", type=Path, default=None, metavar="COMMITTED",
        help="fail if aggregate rows_scanned regresses >10%% versus this "
             "committed BENCH_engine.json (run at the committed scale)",
    )
    args = parser.parse_args(argv)
    if args.quick:
        args.scale, args.rounds = 0.5, 1
    report = run_suite(args.scale, rounds=args.rounds)
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    if args.check_against is not None:
        check_regression(report, args.check_against)
    print(f"wrote {args.out}")
    print_report(report)
    enforce_gates(report)


if __name__ == "__main__":
    main()
