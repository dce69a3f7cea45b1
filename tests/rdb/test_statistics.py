"""The table-statistics subsystem and its planner integration."""

import random

import pytest

from repro.rdb import (
    Attribute,
    Comparison,
    Database,
    FaultInjectedError,
    FaultPlan,
    FromItem,
    Integer,
    OutputColumn,
    Relation,
    Schema,
    SelectPlan,
    col,
    conjoin,
    execute_select,
    lit,
    order_from_items,
)
from repro.rdb.optimizer import estimate_access
from repro.rdb.statistics import ColumnStatistics, EquiDepthHistogram
from repro.workloads import books


def int_db(rows, relation_name="r", columns=("a", "b")):
    schema = Schema()
    schema.add_relation(
        Relation(relation_name, [Attribute(c, Integer()) for c in columns])
    )
    db = Database(schema)
    for row in rows:
        db.insert(relation_name, row)
    return db


# ---------------------------------------------------------------------------
# building + incremental maintenance
# ---------------------------------------------------------------------------

def test_build_counts_rows_nulls_distinct():
    db = int_db(
        [{"a": i % 3, "b": None if i % 2 else i} for i in range(12)]
    )
    stats = db.statistics.table("r")
    assert stats.row_count == 12
    assert stats.null_counts["b"] == 6
    assert stats.columns["a"].distinct == 3
    assert stats.null_fraction("b") == 0.5
    assert db.stats["stats_rebuilds"] == 1


def test_incremental_counts_without_rebuild():
    db = int_db([{"a": i, "b": i} for i in range(20)])
    db.statistics.table("r")
    db.insert("r", {"a": 99, "b": None})
    stats = db.statistics.peek("r")
    assert stats.row_count == 21
    assert stats.null_counts["b"] == 1
    rowid = next(iter(db.find_rowids("r", {"a": 99})))
    db.update("r", rowid, {"b": 5})
    assert stats.null_counts["b"] == 0
    db.delete("r", [rowid])
    assert stats.row_count == 20
    # only the exact counters moved; no rebuild happened
    assert db.stats["stats_rebuilds"] == 1


def test_lazy_rebuild_past_staleness_threshold():
    db = int_db([{"a": i, "b": i} for i in range(20)])
    db.statistics.table("r")
    assert db.stats["stats_rebuilds"] == 1
    threshold = int(db.statistics.staleness * 20)
    for i in range(threshold + 1):
        db.insert("r", {"a": 100 + i, "b": 0})
    db.statistics.table("r")  # drift crossed the threshold: rebuild
    assert db.stats["stats_rebuilds"] == 2
    assert db.statistics.peek("r").mods_since_build == 0


def test_drop_table_forgets_statistics():
    db = int_db([{"a": 1, "b": 2}])
    db.statistics.table("r")
    db.drop_table("r")
    assert db.statistics.peek("r") is None


def test_heterogeneous_column_has_distinct_but_no_histogram():
    from repro.rdb import VarChar

    schema = Schema()
    schema.add_relation(Relation("m", [Attribute("v", VarChar(40))]))
    db = Database(schema)
    # VarChar coerces to str, so force mixed types through the physical
    # layer the way restores do
    db._physical_store_rows("m", [(1, {"v": 1}), (2, {"v": "x"})])
    stats = db.statistics.table("m")
    assert stats.columns["v"].distinct == 2
    assert stats.columns["v"].histogram is None
    # without a histogram, range selectivity is the non-null fraction
    assert stats.comparison_selectivity("<", "v", 5) == 1.0


# ---------------------------------------------------------------------------
# histograms
# ---------------------------------------------------------------------------

def test_equi_depth_histogram_fraction_below():
    histogram = EquiDepthHistogram.build(list(range(1, 101)), buckets=4)
    assert histogram.fraction_below(1) == 0.0
    assert histogram.fraction_below(101) == 1.0
    assert abs(histogram.fraction_below(51) - 0.5) < 0.05


def test_comparison_selectivity_uses_histogram():
    db = int_db([{"a": i, "b": 0} for i in range(100)])
    stats = db.statistics.table("r")
    assert abs(stats.comparison_selectivity("<", "a", 25) - 0.25) < 0.05
    assert abs(stats.comparison_selectivity(">=", "a", 75) - 0.25) < 0.05
    assert stats.comparison_selectivity("=", "a", 42) == pytest.approx(0.01)


def test_equality_rows_unique_column_is_one():
    db = int_db([{"a": i, "b": i % 4} for i in range(32)])
    stats = db.statistics.table("r")
    assert stats.equality_rows(["a"]) == pytest.approx(1.0)
    assert stats.equality_rows(["b"]) == pytest.approx(8.0)
    # multi-column: independence assumption, capped at the row count
    assert stats.equality_rows(["a", "b"]) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# planner integration
# ---------------------------------------------------------------------------

def test_estimate_access_hash_uses_distinct_counts():
    """The old count // 4 guess is gone: a 100-row build with 50
    distinct join keys estimates 2 rows per probe, not 25."""
    db = int_db([{"a": i % 50, "b": i} for i in range(100)])
    db.create_temp_table("probe", ["a"], [{"a": 1}])
    item = FromItem("r")
    conjuncts = [Comparison("=", col("r.a"), col("probe.a"))]
    kind, emitted = estimate_access(db, item, conjuncts, {"probe"})
    assert kind == "hash"
    assert emitted == 2


def test_estimate_access_index_counts_uncovered_equalities():
    """An equality the chosen index does not cover still runs as a
    residual filter — the estimate must include its selectivity."""
    db = int_db([{"a": i % 2, "b": i % 50} for i in range(100)])
    db.create_index("r", ["a"])
    item = FromItem("r")
    conjuncts = [
        Comparison("=", col("r.a"), lit(1)),
        Comparison("=", col("r.b"), lit(3)),
    ]
    kind, emitted = estimate_access(db, item, conjuncts, set())
    assert kind == "index"
    assert emitted == 1  # 100 / (2 × 50), not the 50-row (a) bucket


def test_estimate_access_scan_shrinks_with_range_selectivity():
    db = int_db([{"a": i, "b": i} for i in range(100)])
    item = FromItem("r")
    selective = [Comparison("<", col("r.a"), lit(10))]
    kind, emitted = estimate_access(db, item, selective, set())
    assert kind == "scan"
    assert emitted <= 15  # ~10 of 100 rows
    kind, full = estimate_access(db, item, [], set())
    assert full == 100
    assert emitted < full


def test_order_prefers_range_filtered_relation():
    """Bushy-friendly: a selective non-equality conjunct wins the seed
    slot even though neither relation has a usable index."""
    schema = Schema()
    schema.add_relation(Relation("wide", [Attribute("a", Integer())]))
    schema.add_relation(Relation("narrow", [Attribute("a", Integer())]))
    db = Database(schema)
    for i in range(50):
        db.insert("wide", {"a": i})
        db.insert("narrow", {"a": i})
    plan = SelectPlan(
        from_items=[FromItem("wide"), FromItem("narrow")],
        where=Comparison("<", col("narrow.a"), lit(5)),
    )
    order = order_from_items(db, plan.from_items, plan.where.conjuncts())
    assert order == [1, 0]  # narrow's filter makes it the cheaper opener


def test_estimate_access_empty_relation_is_zero():
    db = int_db([])
    kind, emitted = estimate_access(db, FromItem("r"), [], set())
    assert (kind, emitted) == ("scan", 0)


# ---------------------------------------------------------------------------
# sampling mode
# ---------------------------------------------------------------------------

def test_sampling_scales_high_cardinality_distinct():
    # 1000 unique values, sample cap 100: step 10, 100 sampled values,
    # all unique -> scaled back up to min(total, 100 * 10) = 1000
    stats = ColumnStatistics.build("a", list(range(1000)), 8, sample_rows=100)
    assert stats.distinct == 1000


def test_sampling_keeps_low_cardinality_distinct_exact():
    # 5 distinct values repeated: the sample sees all of them, and the
    # scaling heuristic must NOT inflate the count.  (Values come from a
    # seeded PRNG — a periodic pattern like i % 5 would alias with the
    # systematic every-step-th sample.)
    rng = random.Random(7)
    values = [rng.randrange(5) for _ in range(1000)]
    stats = ColumnStatistics.build("a", values, 8, sample_rows=100)
    assert stats.distinct == 5


def test_sampling_never_exceeds_row_count():
    stats = ColumnStatistics.build("a", list(range(101)), 8, sample_rows=100)
    assert stats.distinct <= 101


def test_small_columns_do_not_sample():
    stats = ColumnStatistics.build("a", list(range(50)), 8, sample_rows=100)
    assert stats.distinct == 50


def test_manager_counts_sampled_builds_and_keeps_exact_counters():
    db = int_db(
        [{"a": i, "b": None if i % 4 else i} for i in range(400)]
    )
    db.statistics.sample_rows = 100
    stats = db.statistics.table("r")
    assert db.statistics.sampled_builds == 1
    # row counts and null counts stay exact under sampling --
    # verify_integrity audits them against the stored rows
    assert stats.row_count == 400
    assert stats.null_counts["b"] == 300
    assert db.verify_integrity() == []


# ---------------------------------------------------------------------------
# a full rollback hands its drift back to the planner
# ---------------------------------------------------------------------------

#: publisher ⋈ book ⋈ review, projected (so both executors agree on order)
JOIN_PLAN = SelectPlan(
    from_items=[FromItem("publisher"), FromItem("book"), FromItem("review")],
    columns=[
        OutputColumn("pubname", "publisher"),
        OutputColumn("title", "book"),
        OutputColumn("reviewid", "review"),
    ],
    where=conjoin(
        [
            Comparison("=", col("book.pubid"), col("publisher.pubid")),
            Comparison("=", col("review.bookid"), col("book.bookid")),
        ]
    ),
)
A01 = Comparison("=", col("publisher.pubid"), lit("A01"))


def bulk_book_db():
    """The book database plus 60 A01 books with one review each: a
    cascaded delete of A01 moves far more rows than the re-planning and
    statistics thresholds allow."""
    db = books.build_book_database()
    for i in range(60):
        db.insert(
            "book",
            {"bookid": f"z{i}", "title": f"T{i}", "pubid": "A01", "price": 1.0},
        )
        db.insert(
            "review",
            {"bookid": f"z{i}", "reviewid": "001", "comment": "c",
             "reviewer": "r"},
        )
    return db


def planner_counters(db):
    return db.stats["plans_compiled"], db.stats["stats_rebuilds"]


def test_full_rollback_keeps_cached_plans_and_statistics():
    db = bulk_book_db()
    expected = execute_select(db, JOIN_PLAN)
    counters = planner_counters(db)
    hits = db.stats["plan_cache_hits"]
    drift = {
        name: db.statistics.peek(name).mods_since_build
        for name in ("publisher", "book", "review")
    }
    db.begin()
    assert db.delete_where("publisher", A01) == 125
    db.rollback()
    rows = execute_select(db, JOIN_PLAN)
    assert db.stats["plan_cache_hits"] == hits + 1
    assert planner_counters(db) == counters
    assert {
        name: db.statistics.peek(name).mods_since_build for name in drift
    } == drift
    assert rows == expected == execute_select(db, JOIN_PLAN, optimize=False)


def test_committed_bulk_delete_still_recompiles():
    db = bulk_book_db()
    execute_select(db, JOIN_PLAN)
    compiled, rebuilds = planner_counters(db)
    db.begin()
    db.delete_where("publisher", A01)
    db.commit()
    rows = execute_select(db, JOIN_PLAN)
    assert db.stats["plans_compiled"] == compiled + 1
    assert db.stats["stats_rebuilds"] > rebuilds
    assert rows == execute_select(db, JOIN_PLAN, optimize=False)


def test_statistics_rebuilt_inside_the_transaction_keep_counting():
    db = bulk_book_db()
    execute_select(db, JOIN_PLAN)
    before = db.statistics.peek("book")
    db.begin()
    db.delete_where("publisher", A01)
    execute_select(db, JOIN_PLAN)  # stale: rebuilds and recompiles
    inside = db.statistics.peek("book")
    assert inside is not before and inside.row_count == 1
    invalidations = db.plan_cache.invalidations
    db.rollback()
    # not the object marked at begin(): the 62 restored rows count
    assert db.statistics.peek("book") is inside
    assert inside.row_count == 63 and inside.mods_since_build == 62
    # the plan compiled against in-transaction cardinalities is dropped
    assert db.plan_cache.invalidations == invalidations + 1
    compiled = db.stats["plans_compiled"]
    rows = execute_select(db, JOIN_PLAN)
    assert db.stats["plans_compiled"] == compiled + 1
    assert rows == execute_select(db, JOIN_PLAN, optimize=False)


def test_interrupted_rollback_rebases_once_resumed():
    db = bulk_book_db()
    expected = execute_select(db, JOIN_PLAN)
    counters = planner_counters(db)
    db.begin()
    db.delete_where("publisher", A01)
    db.faults.arm(FaultPlan(at=40, site="undo.rollback", action="error"))
    with pytest.raises(FaultInjectedError):
        db.rollback()
    assert db.txn.pending > 0
    assert db.rollback() > 0  # the one-shot fault is spent: resume
    assert execute_select(db, JOIN_PLAN) == expected
    assert planner_counters(db) == counters
    assert execute_select(db, JOIN_PLAN, optimize=False) == expected
    assert db.verify_integrity() == []


def test_query_between_interrupted_rollback_and_resume():
    """A query between the failure and the resume sees the half-undone
    state; its plan is stamped after the mark, so the resume drops it."""
    db = bulk_book_db()
    expected = execute_select(db, JOIN_PLAN)
    db.begin()
    db.delete_where("publisher", A01)
    db.faults.arm(FaultPlan(at=40, site="undo.rollback", action="error"))
    with pytest.raises(FaultInjectedError):
        db.rollback()
    assert execute_select(db, JOIN_PLAN) == execute_select(
        db, JOIN_PLAN, optimize=False
    )
    invalidations = db.plan_cache.invalidations
    db.rollback()
    assert db.plan_cache.invalidations == invalidations + 1
    assert execute_select(db, JOIN_PLAN) == expected
    assert execute_select(db, JOIN_PLAN, optimize=False) == expected
    assert db.verify_integrity() == []


def test_dml_between_interrupted_rollback_and_resume_blocks_the_rebase():
    """The resume does not undo DML made outside the transaction, so
    the begin-state is not restored and the drift must stand."""
    db = bulk_book_db()
    execute_select(db, JOIN_PLAN)
    compiled = db.stats["plans_compiled"]
    drift = db.statistics.peek("book").mods_since_build
    db.begin()
    db.delete_where("publisher", A01)
    db.faults.arm(FaultPlan(at=40, site="undo.rollback", action="error"))
    with pytest.raises(FaultInjectedError):
        db.rollback()
    db.insert(
        "book", {"bookid": "x1", "title": "X", "pubid": "B01", "price": 2.0}
    )
    db.rollback()
    assert db.count("book") == 64
    assert db.statistics.peek("book").mods_since_build > drift
    rows = execute_select(db, JOIN_PLAN)
    assert db.stats["plans_compiled"] == compiled + 1
    assert rows == execute_select(db, JOIN_PLAN, optimize=False)
    assert db.verify_integrity() == []


def test_savepoint_rollback_still_counts_its_drift():
    db = bulk_book_db()
    execute_select(db, JOIN_PLAN)
    compiled = db.stats["plans_compiled"]
    db.begin()
    mark = db.savepoint()
    db.delete_where("publisher", A01)
    db.rollback_to(mark)
    rows = execute_select(db, JOIN_PLAN)
    assert db.stats["plans_compiled"] == compiled + 1
    assert rows == execute_select(db, JOIN_PLAN, optimize=False)
    db.commit()
