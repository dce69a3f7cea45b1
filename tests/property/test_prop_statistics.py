"""Properties of the statistics subsystem and the compiled rowid paths.

Two invariant families:

* histogram/distinct-count estimates are *sane* — every selectivity
  lands in [0, 1] and every estimated row count in [0, row_count] —
  for arbitrary (including NULL-heavy and constant) columns;
* the compiled ``find_rowids`` / ``select_rowids`` paths are
  observationally the interpreted per-row oracle, for random data,
  random index sets and random predicate shapes;
* a full rollback leaves the planner where ``begin()`` found it: every
  statistics object live since ``begin()`` reads the same exact
  counters and drift, while every query still equals the interpreted
  executor's result.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConstraintViolation
from repro.rdb import (
    Attribute,
    Comparison,
    Database,
    ForeignKey,
    FromItem,
    Integer,
    IsNull,
    OutputColumn,
    PrimaryKey,
    Relation,
    Schema,
    SelectPlan,
    col,
    conjoin,
    execute_select,
    lit,
)

COLUMNS = ("a", "b", "c")
OPS = ("=", "<", ">", "<=", ">=", "<>")

values = st.one_of(st.none(), st.integers(min_value=0, max_value=6))
rows = st.lists(
    st.fixed_dictionaries({column: values for column in COLUMNS}), max_size=25
)
index_sets = st.lists(
    st.lists(st.sampled_from(COLUMNS), min_size=1, max_size=2, unique=True),
    max_size=3,
)


def build_db(data, indexed=()):
    schema = Schema()
    schema.add_relation(
        Relation("r", [Attribute(column, Integer()) for column in COLUMNS])
    )
    db = Database(schema)
    for row in data:
        db.insert("r", row)
    for columns in indexed:
        db.create_index("r", columns)
    return db


# ---------------------------------------------------------------------------
# estimate sanity
# ---------------------------------------------------------------------------

@settings(max_examples=80, deadline=None)
@given(
    rows,
    st.sampled_from(OPS),
    st.sampled_from(COLUMNS),
    st.integers(min_value=-2, max_value=8),
)
def test_histogram_selectivities_are_sane(data, op, column, probe):
    db = build_db(data)
    stats = db.statistics.table("r")
    selectivity = stats.comparison_selectivity(op, column, probe)
    assert 0.0 <= selectivity <= 1.0
    estimated_rows = selectivity * stats.row_count
    assert 0.0 <= estimated_rows <= stats.row_count
    assert 0.0 <= stats.null_fraction(column) <= 1.0


@settings(max_examples=60, deadline=None)
@given(rows, st.lists(st.sampled_from(COLUMNS), min_size=1, unique=True))
def test_equality_estimates_bounded_by_row_count(data, key_columns):
    db = build_db(data)
    stats = db.statistics.table("r")
    estimate = stats.equality_rows(key_columns)
    assert 0.0 <= estimate <= max(stats.row_count, 1)


@settings(max_examples=40, deadline=None)
@given(rows, rows)
def test_incremental_counts_stay_exact_across_dml(initial, extra):
    db = build_db(initial)
    db.statistics.table("r")
    for row in extra:
        db.insert("r", row)
    for rowid in list(db.table("r").rowids())[::2]:
        db.delete("r", [rowid])
    stats = db.statistics.peek("r") or db.statistics.table("r")
    assert stats.row_count == db.count("r")
    live = db.rows("r")
    for column in COLUMNS:
        assert stats.null_counts[column] == sum(
            1 for row in live if row[column] is None
        )


# ---------------------------------------------------------------------------
# compiled rowid paths ≡ interpreted oracle
# ---------------------------------------------------------------------------

equality_dicts = st.dictionaries(
    st.sampled_from(COLUMNS),
    st.one_of(st.none(), st.integers(min_value=0, max_value=6)),
    min_size=1,
    max_size=3,
)


@settings(max_examples=80, deadline=None)
@given(rows, index_sets, equality_dicts)
def test_find_rowids_equals_oracle(data, indexed, equalities):
    db = build_db(data, indexed)
    assert db.find_rowids("r", equalities) == db.find_rowids(
        "r", equalities, compiled=False
    )


column_refs = st.sampled_from(COLUMNS).map(lambda c: col(f"r.{c}"))
operands = st.one_of(
    column_refs, st.integers(min_value=0, max_value=6).map(lit)
)
conjunct = st.one_of(
    st.tuples(st.sampled_from(OPS), column_refs, operands).map(
        lambda t: Comparison(t[0], t[1], t[2])
    ),
    st.tuples(column_refs, st.booleans()).map(
        lambda pair: IsNull(pair[0], negate=pair[1])
    ),
)


@settings(max_examples=80, deadline=None)
@given(rows, index_sets, st.lists(conjunct, min_size=1, max_size=4))
def test_select_rowids_equals_oracle(data, indexed, conjuncts):
    db = build_db(data, indexed)
    predicate = conjoin(conjuncts)
    compiled = db.select_rowids("r", predicate)
    interpreted = db.select_rowids("r", predicate, compiled=False)
    assert compiled == interpreted


# ---------------------------------------------------------------------------
# a full rollback rebases the planner to its begin() state
# ---------------------------------------------------------------------------

def parent_child_db():
    """p(k, v) with children c(id, k → p.k ON DELETE CASCADE, w)."""
    schema = Schema()
    schema.add_relation(
        Relation(
            "p",
            [Attribute("k", Integer()), Attribute("v", Integer())],
            [PrimaryKey(("k",))],
        )
    )
    schema.add_relation(
        Relation(
            "c",
            [Attribute(c, Integer()) for c in ("id", "k", "w")],
            [PrimaryKey(("id",)), ForeignKey(("k",), "p", ("k",))],
        )
    )
    db = Database(schema)
    for k in range(4):
        db.insert("p", {"k": k, "v": k % 2})
        for j in range(3):
            db.insert("c", {"id": 3 * k + j, "k": k, "w": j})
    return db


REBASE_PLANS = [
    SelectPlan(
        from_items=[FromItem("p"), FromItem("c")],
        columns=[OutputColumn("v", "p"), OutputColumn("w", "c")],
        where=conjoin(
            [
                Comparison("=", col("c.k"), col("p.k")),
                Comparison("<", col("c.w"), lit(2)),
            ]
        ),
    ),
    SelectPlan(
        from_items=[FromItem("c")],
        columns=[OutputColumn("id", "c")],
        where=Comparison("=", col("c.w"), lit(1)),
    ),
]

small = st.integers(min_value=0, max_value=7)
txn_ops = st.lists(
    st.one_of(
        st.just(("begin",)),
        st.just(("commit",)),
        st.just(("rollback",)),
        st.just(("savepoint",)),
        st.just(("rollback_to",)),
        st.tuples(st.just("insert_p"), small, st.one_of(st.none(), small)),
        st.tuples(st.just("insert_c"), st.integers(0, 40), small, small),
        st.tuples(st.just("delete_p"), small),
        st.tuples(st.just("update_c"), small, st.one_of(st.none(), small)),
        st.tuples(st.just("select"), st.integers(0, len(REBASE_PLANS) - 1)),
    ),
    max_size=40,
)


def statistics_snapshot(db):
    return [
        (stats, stats.row_count, dict(stats.null_counts), stats.mods_since_build)
        for stats in map(db.statistics.peek, ("p", "c"))
        if stats is not None
    ]


@settings(max_examples=80, deadline=None)
@given(txn_ops)
def test_full_rollback_restores_planner_bookkeeping(ops):
    db = parent_child_db()
    for plan in REBASE_PLANS:
        execute_select(db, plan)
    at_begin = None
    marks: list[int] = []
    for op in ops:
        kind = op[0]
        try:
            if kind == "begin" and not db.txn.active:
                db.begin()
                at_begin = statistics_snapshot(db)
                marks = []
            elif kind == "commit" and db.txn.active:
                db.commit()
            elif kind == "rollback" and db.txn.active:
                db.rollback()
                for stats, row_count, null_counts, mods in at_begin:
                    if db.statistics.peek(stats.relation_name) is stats:
                        assert stats.row_count == row_count
                        assert stats.null_counts == null_counts
                        assert stats.mods_since_build == mods
            elif kind == "savepoint" and db.txn.active:
                marks.append(db.savepoint())
            elif kind == "rollback_to" and db.txn.active and marks:
                db.rollback_to(marks.pop())
            elif kind == "insert_p":
                db.insert("p", {"k": op[1], "v": op[2]})
            elif kind == "insert_c":
                db.insert("c", {"id": op[1], "k": op[2], "w": op[3]})
            elif kind == "delete_p":
                db.delete("p", db.find_rowids("p", {"k": op[1]}))
            elif kind == "update_c":
                for rowid in db.find_rowids("c", {"k": op[1]}):
                    db.update("c", rowid, {"w": op[2]})
            elif kind == "select":
                plan = REBASE_PLANS[op[1]]
                assert execute_select(db, plan) == execute_select(
                    db, plan, optimize=False
                )
        except ConstraintViolation:
            pass
    for plan in REBASE_PLANS:
        assert execute_select(db, plan) == execute_select(
            db, plan, optimize=False
        )
    assert db.verify_integrity() == []
