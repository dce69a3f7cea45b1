"""Cost-aware join ordering, the compiled-plan cache, and hash joins."""

import pytest

from repro.rdb import (
    Comparison,
    FromItem,
    OutputColumn,
    SelectPlan,
    col,
    execute_select,
    lit,
    order_from_items,
)
from repro.rdb.optimizer import estimate_access
from repro.workloads import books


@pytest.fixture()
def db():
    return books.build_book_database()


def join_plan(where, from_names=("publisher", "book")):
    return SelectPlan(
        from_items=[FromItem(name) for name in from_names],
        where=where,
    )


# ---------------------------------------------------------------------------
# join-order selection
# ---------------------------------------------------------------------------

def test_seed_is_the_most_selective_indexed_relation(db):
    from repro.rdb import conjoin

    plan = join_plan(
        conjoin(
            [
                Comparison("=", col("book.pubid"), col("publisher.pubid")),
                Comparison("=", col("book.bookid"), lit("98001")),
            ]
        )
    )
    conjuncts = plan.where.conjuncts()
    order = order_from_items(db, plan.from_items, conjuncts)
    # book's PK index is pinned by a literal: unique probe, estimated 1
    # row — it must open the join even though it sits second in FROM
    assert order == [1, 0]


def test_connected_relations_preferred_over_cartesian(db):
    plan = SelectPlan(
        from_items=[FromItem("book"), FromItem("review"), FromItem("publisher")],
        where=Comparison("=", col("book.bookid"), col("review.bookid")),
    )
    order = order_from_items(db, plan.from_items, plan.where.conjuncts())
    positions = {plan.from_items[i].name: rank for rank, i in enumerate(order)}
    # review joins book through an equality; publisher is a cartesian
    # factor and must come last
    assert positions["publisher"] == 2


def test_estimate_unique_index_is_one_row(db):
    item = FromItem("book")
    conjuncts = [Comparison("=", col("book.bookid"), lit("98001"))]
    kind, emitted = estimate_access(db, item, conjuncts, set())
    assert kind == "index"
    assert emitted == 1


def test_estimate_equality_without_index_is_hash(db):
    db.create_temp_table(
        "TAB", ["bookid"], [{"bookid": f"b{i}"} for i in range(8)]
    )
    item = FromItem("TAB")
    conjuncts = [Comparison("=", col("TAB.bookid"), col("book.bookid"))]
    kind, emitted = estimate_access(db, item, conjuncts, {"book"})
    assert kind == "hash"
    assert 1 <= emitted <= 8


def test_identity_order_not_counted_as_reorder(db):
    plan = SelectPlan(from_items=[FromItem("book")])
    execute_select(db, plan)
    assert db.stats["reorders"] == 0


# ---------------------------------------------------------------------------
# plan cache
# ---------------------------------------------------------------------------

def keyed_plan(bookid):
    from repro.rdb import conjoin

    return SelectPlan(
        from_items=[FromItem("publisher"), FromItem("book")],
        columns=[OutputColumn("pubname", "publisher")],
        where=conjoin(
            [
                Comparison("=", col("book.pubid"), col("publisher.pubid")),
                Comparison("=", col("book.bookid"), lit(bookid)),
            ]
        ),
    )


def test_plan_cache_hits_on_repeated_shape(db):
    execute_select(db, keyed_plan("98001"))
    assert db.stats["plans_compiled"] == 1
    assert db.stats["plan_cache_hits"] == 0
    execute_select(db, keyed_plan("98001"))
    assert db.stats["plans_compiled"] == 1
    assert db.stats["plan_cache_hits"] == 1


def test_plan_cache_shared_across_literals(db):
    first = execute_select(db, keyed_plan("98001"))
    second = execute_select(db, keyed_plan("98002"))
    assert db.stats["plans_compiled"] == 1
    assert db.stats["plan_cache_hits"] == 1
    assert first != second  # the parameter vector really was swapped
    assert first == [{"pubname": "McGraw-Hill Inc."}]
    assert second == [{"pubname": "Simon & Schuster Inc."}]


def test_plan_cache_survives_sub_threshold_dml(db):
    """Small data drift no longer recompiles: the re-planning threshold
    keeps the cached order until the drift could actually stale it."""
    execute_select(db, keyed_plan("98001"))
    db.insert(
        "book",
        {"bookid": "b9", "title": "New", "pubid": "A01", "price": 9.0},
    )
    rows = execute_select(db, keyed_plan("98001"))
    # one insert into a 4-row relation is below max(replan_min_ops,
    # threshold × rows-at-compile): the plan survives and the survival
    # is counted
    assert db.stats["plans_compiled"] == 1
    assert db.stats["plan_cache_hits"] == 1
    assert db.stats["replans_avoided"] == 1
    assert db.plan_cache.invalidations == 0
    assert rows == [{"pubname": "McGraw-Hill Inc."}]


def test_plan_cache_invalidated_past_replan_threshold(db):
    execute_select(db, keyed_plan("98001"))
    allowed = max(
        db.replan_min_ops, int(db.replan_threshold * db.count("book"))
    )
    for i in range(allowed + 1):
        db.insert(
            "book",
            {"bookid": f"b9{i}", "title": "New", "pubid": "A01", "price": 9.0},
        )
    rows = execute_select(db, keyed_plan("98001"))
    # the accumulated drift crossed the threshold: the cardinalities
    # that justified the cached order are stale, so it recompiles
    assert db.stats["plans_compiled"] == 2
    assert db.stats["plan_cache_hits"] == 0
    assert db.plan_cache.invalidations == 1
    assert rows == [{"pubname": "McGraw-Hill Inc."}]


def test_zero_threshold_restores_any_dml_recompiles(db):
    db.replan_threshold = 0.0
    db.replan_min_ops = 0
    execute_select(db, keyed_plan("98001"))
    db.insert(
        "book",
        {"bookid": "b9", "title": "New", "pubid": "A01", "price": 9.0},
    )
    execute_select(db, keyed_plan("98001"))
    assert db.stats["plans_compiled"] == 2
    assert db.plan_cache.invalidations == 1


def test_plan_cache_invalidated_by_ddl(db):
    execute_select(db, keyed_plan("98001"))
    db.create_index("book", ["pubid", "title"])
    execute_select(db, keyed_plan("98001"))
    assert db.stats["plans_compiled"] == 2
    assert db.plan_cache.invalidations == 1


def test_plan_cache_survives_unrelated_ddl(db):
    """The outside strategy creates/drops a temp table per update; that
    churn must not flush cached plans over untouched base relations."""
    execute_select(db, keyed_plan("98001"))
    db.create_temp_table("TAB_ctx_1", ["x"], [{"x": "1"}])
    db.drop_table("TAB_ctx_1")
    execute_select(db, keyed_plan("98001"))
    assert db.stats["plans_compiled"] == 1
    assert db.stats["plan_cache_hits"] == 1


def test_plan_cache_survives_unrelated_dml(db):
    execute_select(db, keyed_plan("98001"))
    db.insert("review", {"bookid": "98001", "reviewid": "9", "comment": "x",
                         "reviewer": "r"})
    execute_select(db, keyed_plan("98001"))
    # review is not read by the plan — the compiled artifact stays valid
    assert db.stats["plans_compiled"] == 1
    assert db.stats["plan_cache_hits"] == 1


# ---------------------------------------------------------------------------
# hash join
# ---------------------------------------------------------------------------

def _probe_rows():
    return [{"book__bookid": f"x{i}"} for i in range(40)] + [
        {"book__bookid": "98001"}
    ]


def test_hash_join_on_unindexed_equality(db):
    """Equality conjuncts with no index on either side degrade to a
    transient hash join — one build pass instead of |A| × |B| rescans."""
    db.create_temp_table("TAB_probe", ["book__bookid"], _probe_rows())
    db.create_temp_table(
        "TAB_titles",
        ["title__bookid", "title__title"],
        [{"title__bookid": "98001", "title__title": "TCP/IP Illustrated"}]
        + [{"title__bookid": f"y{i}", "title__title": "other"} for i in range(20)],
    )
    plan = SelectPlan(
        from_items=[FromItem("TAB_titles"), FromItem("TAB_probe")],
        columns=[OutputColumn("title__title", "TAB_titles", "title")],
        where=Comparison(
            "=", col("TAB_probe.book__bookid"), col("TAB_titles.title__bookid")
        ),
    )
    optimized = execute_select(db, plan)
    assert db.stats["hash_joins"] == 1
    assert optimized == [{"title": "TCP/IP Illustrated"}]

    naive = execute_select(db, plan, optimize=False)
    assert naive == optimized


def test_indexed_inner_preferred_over_hash_join(db):
    """When a covering index exists on the join column, the enumerator
    prices the index nested loop below the hash build and picks it —
    the old greedy order hash-joined here and scanned more rows."""
    db.create_temp_table("TAB_probe", ["book__bookid"], _probe_rows())
    plan = SelectPlan(
        from_items=[FromItem("book"), FromItem("TAB_probe")],
        columns=[OutputColumn("title", "book")],
        where=Comparison("=", col("TAB_probe.book__bookid"), col("book.bookid")),
    )
    optimized = execute_select(db, plan)
    assert optimized == [{"title": "TCP/IP Illustrated"}]
    assert db.stats["hash_joins"] == 0
    assert db.stats["index_joins"] > 0

    naive_db = books.build_book_database()
    naive_db.create_temp_table("TAB_probe", ["book__bookid"], _probe_rows())
    naive = execute_select(naive_db, plan, optimize=False)
    assert naive == optimized
    assert db.stats["rows_scanned"] < naive_db.stats["rows_scanned"]


def test_no_hash_build_on_outermost_level(db):
    """A literal equality with no index on the first join level runs as
    scan + filter: the level is entered once, a build cannot amortize."""
    plan = SelectPlan(
        from_items=[FromItem("book")],
        columns=[OutputColumn("bookid", "book")],
        where=Comparison("=", col("book.title"), lit("TCP/IP Illustrated")),
    )
    rows = execute_select(db, plan)
    assert rows == [{"bookid": "98001"}]
    assert db.stats["hash_joins"] == 0
    assert db.stats["rows_scanned"] == db.count("book")


def test_hash_join_null_keys_never_match(db):
    db.create_temp_table(
        "TAB_probe", ["book__pubid"],
        [{"book__pubid": None}, {"book__pubid": "A01"}],
    )
    plan = SelectPlan(
        from_items=[FromItem("TAB_probe"), FromItem("book")],
        columns=[OutputColumn("title", "book")],
        where=Comparison("=", col("book.pubid"), col("TAB_probe.book__pubid")),
    )
    db.insert("book", {"bookid": "b9", "title": "Orphan", "pubid": None,
                       "price": 5.0})
    optimized = execute_select(db, plan)
    naive = execute_select(db, plan, optimize=False)
    assert optimized == naive
    assert all(row["title"] != "Orphan" for row in optimized)


def test_reordered_output_order_matches_naive(db):
    plan = keyed_plan("98001")
    optimized = execute_select(db, plan)
    naive = execute_select(db, plan, optimize=False)
    assert db.stats["reorders"] == 1
    assert optimized == naive  # order included: sorted on FROM-order rowids


def test_greedy_tree_above_dp_limit_matches_naive(tpch_tiny_db, monkeypatch):
    """Seven relations exceed ``MAX_DP_RELATIONS``: the join order comes
    from the greedy left-deep fallback, and its rows must equal the
    interpreted oracle's, order included."""
    from repro.rdb import conjoin, optimizer

    greedy_calls = []
    greedy = optimizer._greedy_tree

    def spy(*args):
        greedy_calls.append(len(args[1]))
        return greedy(*args)

    monkeypatch.setattr(optimizer, "_greedy_tree", spy)
    db = tpch_tiny_db
    order_key = db.rows("orders")[0]["o_orderkey"]
    plan = SelectPlan(
        from_items=[
            FromItem("lineitem", alias="l"),
            FromItem("orders", alias="o"),
            FromItem("customer", alias="c"),
            FromItem("nation", alias="n"),
            FromItem("region", alias="r"),
            FromItem("nation", alias="n2"),
            FromItem("customer", alias="c2"),
        ],
        columns=[
            OutputColumn("l_linenumber", "l"),
            OutputColumn("c_name", "c"),
            OutputColumn("r_name", "r"),
            OutputColumn("n_name", "n2", label="peer_nation"),
            OutputColumn("c_name", "c2", label="peer"),
        ],
        where=conjoin(
            [
                Comparison("=", col("l.l_orderkey"), col("o.o_orderkey")),
                Comparison("=", col("o.o_custkey"), col("c.c_custkey")),
                Comparison("=", col("c.c_nationkey"), col("n.n_nationkey")),
                Comparison("=", col("n.n_regionkey"), col("r.r_regionkey")),
                Comparison("=", col("n2.n_regionkey"), col("r.r_regionkey")),
                Comparison("=", col("c2.c_nationkey"), col("n2.n_nationkey")),
                Comparison("=", col("o.o_orderkey"), lit(order_key)),
            ]
        ),
    )
    assert len(plan.from_items) > optimizer.MAX_DP_RELATIONS
    optimized = execute_select(db, plan)
    assert greedy_calls == [7]
    naive = execute_select(db, plan, optimize=False)
    assert len(optimized) > 1  # the order's lineitems times its peers
    assert [list(row.items()) for row in optimized] == [
        list(row.items()) for row in naive
    ]
