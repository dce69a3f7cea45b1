"""Property: DP-bushy compiled plans ≡ the interpreted oracle.

The PR 2 property suite pins 1–3 relation workloads; this one drives
the DP enumerator where bushy trees actually appear — 3 to 5 relations
with equality-join-heavy predicates — and asserts the compiled operator
tree returns *exactly* the oracle's output (same rows, same key order,
same row order — ``dict`` equality hides key-order drift, so rows are
compared as item lists).  Failures print the chosen physical plan.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rdb import (
    Attribute,
    Comparison,
    Database,
    FromItem,
    Integer,
    IsNull,
    Relation,
    Schema,
    SelectPlan,
    col,
    conjoin,
    execute_select,
    explain_select,
    lit,
)

RELATION_NAMES = ("r0", "r1", "r2", "r3", "r4")
COLUMNS = ("a", "b", "c")
OPS = ("=", "<", ">", "<=", ">=", "<>")

values = st.one_of(st.none(), st.integers(min_value=0, max_value=3))
rows = st.lists(
    st.fixed_dictionaries({column: values for column in COLUMNS}), max_size=4
)


def column_ref(names):
    return st.tuples(
        st.sampled_from(names), st.sampled_from(COLUMNS)
    ).map(lambda pair: col(f"{pair[0]}.{pair[1]}"))


def conjuncts_for(names):
    refs = column_ref(names)
    join_equality = st.tuples(refs, refs).map(
        lambda pair: Comparison("=", pair[0], pair[1])
    )
    literal_comparison = st.tuples(
        st.sampled_from(OPS), refs, st.integers(min_value=0, max_value=3)
    ).map(lambda triple: Comparison(triple[0], triple[1], lit(triple[2])))
    null_check = st.tuples(refs, st.booleans()).map(
        lambda pair: IsNull(pair[0], negate=pair[1])
    )
    # joins dominate so the enumerator sees connected multi-way shapes
    return st.lists(
        st.one_of(join_equality, join_equality, literal_comparison, null_check),
        min_size=1,
        max_size=6,
    )


@st.composite
def workloads(draw):
    n_relations = draw(st.integers(min_value=3, max_value=5))
    names = RELATION_NAMES[:n_relations]
    data = {name: draw(rows) for name in names}
    predicates = draw(conjuncts_for(names))
    indexed = draw(
        st.lists(
            st.tuples(st.sampled_from(names), st.sampled_from(COLUMNS)),
            max_size=3,
            unique=True,
        )
    )
    return names, data, predicates, indexed


def build_db(names, data, indexed):
    schema = Schema()
    for name in names:
        schema.add_relation(
            Relation(name, [Attribute(column, Integer()) for column in COLUMNS])
        )
    db = Database(schema)
    for name in names:
        for row in data[name]:
            db.insert(name, row)
    for relation_name, column in indexed:
        db.create_index(relation_name, [column])
    db.analyze()
    return db


def byte_rows(result):
    return [list(row.items()) for row in result]


@settings(max_examples=60, deadline=None)
@given(workloads(), st.booleans())
def test_dp_bushy_equals_interpreted_oracle(workload, include_rowids):
    names, data, predicates, indexed = workload
    plan = SelectPlan(
        from_items=[FromItem(name) for name in names],
        where=conjoin(predicates),
        include_rowids=include_rowids,
    )
    db = build_db(names, data, indexed)
    optimized = byte_rows(execute_select(db, plan))
    oracle = byte_rows(execute_select(db, plan, optimize=False))
    assert optimized == oracle, (
        "compiled plan diverged from the oracle; physical plan was:\n"
        + explain_select(db, plan)
    )


@settings(max_examples=30, deadline=None)
@given(workloads())
def test_distinct_star_projection_equals_oracle(workload):
    names, data, predicates, indexed = workload
    plan = SelectPlan(
        from_items=[FromItem(name) for name in names],
        where=conjoin(predicates),
        distinct=True,
    )
    db = build_db(names, data, indexed)
    optimized = execute_select(db, plan)
    oracle = execute_select(db, plan, optimize=False)
    assert optimized == oracle, (
        "DISTINCT through the plan IR diverged from the oracle:\n"
        + explain_select(db, plan)
    )
