"""SELECT planning/execution: joins, index use, projections, rowids."""

import pytest

from repro.rdb import (
    Comparison,
    FromItem,
    OutputColumn,
    SelectPlan,
    col,
    conjoin,
    execute_select,
    lit,
)
from repro.workloads import books


@pytest.fixture()
def db():
    return books.build_book_database()


def test_single_table_scan(db):
    plan = SelectPlan(from_items=[FromItem("book")])
    rows = execute_select(db, plan)
    assert len(rows) == 3


def test_projection_with_labels(db):
    plan = SelectPlan(
        from_items=[FromItem("book")],
        columns=[OutputColumn("title", "book", label="t")],
    )
    rows = execute_select(db, plan)
    assert {"t"} == set(rows[0])


def test_filter_literal(db):
    plan = SelectPlan(
        from_items=[FromItem("book")],
        where=Comparison(">", col("book.price"), lit(40.0)),
    )
    assert len(execute_select(db, plan)) == 2


def test_two_way_join(db):
    plan = SelectPlan(
        from_items=[FromItem("book"), FromItem("publisher")],
        columns=[
            OutputColumn("title", "book"),
            OutputColumn("pubname", "publisher"),
        ],
        where=Comparison("=", col("book.pubid"), col("publisher.pubid")),
    )
    rows = execute_select(db, plan)
    assert len(rows) == 3
    by_title = {row["title"]: row["pubname"] for row in rows}
    assert by_title["Programming in Unix"] == "Simon & Schuster Inc."


def test_three_way_join_matches_paper_pq(db):
    plan = SelectPlan(
        from_items=[FromItem("publisher"), FromItem("book"), FromItem("review")],
        columns=[OutputColumn("bookid", "book")],
        where=conjoin(
            [
                Comparison("=", col("book.pubid"), col("publisher.pubid")),
                Comparison("=", col("book.bookid"), col("review.bookid")),
                Comparison("<", col("book.price"), lit(50.0)),
            ]
        ),
    )
    rows = execute_select(db, plan)
    assert {row["bookid"] for row in rows} == {"98001"}
    assert len(rows) == 2  # two reviews


def test_join_uses_pk_index(db):
    index = db.index_on("publisher", ["pubid"])
    before = index.lookups
    plan = SelectPlan(
        from_items=[FromItem("book"), FromItem("publisher")],
        where=Comparison("=", col("book.pubid"), col("publisher.pubid")),
    )
    execute_select(db, plan)
    # one index probe per outer (book) row
    assert index.lookups == before + 3


def test_alias_support(db):
    plan = SelectPlan(
        from_items=[FromItem("book", alias="b1"), FromItem("book", alias="b2")],
        columns=[OutputColumn("bookid", "b1"), OutputColumn("bookid", "b2", label="b2id")],
        where=Comparison("=", col("b1.pubid"), col("b2.pubid")),
    )
    rows = execute_select(db, plan)
    # A01 has two books → 2x2 pairs, A02 one book → 1; total 5
    assert len(rows) == 5


def test_duplicate_alias_rejected(db):
    from repro.errors import SchemaError

    plan = SelectPlan(from_items=[FromItem("book"), FromItem("book")])
    with pytest.raises(SchemaError):
        execute_select(db, plan)


def test_unknown_relation_rejected(db):
    from repro.errors import SchemaError

    with pytest.raises(SchemaError):
        execute_select(db, SelectPlan(from_items=[FromItem("ghost")]))


def test_select_star_prefixes_collisions(db):
    plan = SelectPlan(
        from_items=[FromItem("book"), FromItem("review")],
        where=Comparison("=", col("book.bookid"), col("review.bookid")),
    )
    rows = execute_select(db, plan)
    assert len(rows) == 2
    assert "bookid" in rows[0] and "review.bookid" in rows[0]


def test_select_rowids_single_table(db):
    plan = SelectPlan(from_items=[FromItem("review")], select_rowids=True)
    rows = execute_select(db, plan)
    assert [row["ROWID"] for row in rows] == [1, 2]


def test_include_rowids_multi_table(db):
    plan = SelectPlan(
        from_items=[FromItem("book"), FromItem("publisher")],
        columns=[OutputColumn("title", "book")],
        where=Comparison("=", col("book.pubid"), col("publisher.pubid")),
        include_rowids=True,
    )
    rows = execute_select(db, plan)
    assert {"title", "book.ROWID", "publisher.ROWID"} == set(rows[0])


def test_empty_result_on_contradiction(db):
    plan = SelectPlan(
        from_items=[FromItem("book")],
        where=conjoin(
            [
                Comparison(">", col("book.price"), lit(50.0)),
                Comparison("<", col("book.price"), lit(40.0)),
            ]
        ),
    )
    assert execute_select(db, plan) == []


def test_to_sql_rendering(db):
    plan = SelectPlan(
        from_items=[FromItem("book", alias="b")],
        columns=[OutputColumn("title", "b")],
        where=Comparison(">", col("b.price"), lit(40.0)),
    )
    sql = plan.to_sql()
    assert sql.startswith("SELECT b.title FROM book b WHERE")


def test_null_join_values_do_not_match(db):
    db.insert("book", {"bookid": "b9", "title": "Orphan", "pubid": None, "price": 5.0})
    plan = SelectPlan(
        from_items=[FromItem("book"), FromItem("publisher")],
        where=Comparison("=", col("book.pubid"), col("publisher.pubid")),
    )
    rows = execute_select(db, plan)
    assert all(row["title"] != "Orphan" for row in rows)


# ---------------------------------------------------------------------------
# compiled projections against the interpreted oracle
# ---------------------------------------------------------------------------

#: SELECT lists over book ⋈ review: qualified columns, unqualified
#: columns only one side has, and ``bookid``, which both sides carry
PROJECTIONS = {
    "qualified": [OutputColumn("title", "book"), OutputColumn("comment", "review"),
                  OutputColumn("bookid", "review", label="rb")],
    "unqualified-unique": [OutputColumn("title"), OutputColumn("reviewid"),
                           OutputColumn("price", label="p")],
    "ambiguous": [OutputColumn("bookid"), OutputColumn("title")],
}


@pytest.mark.parametrize("include_rowids", [False, True])
@pytest.mark.parametrize("shape", sorted(PROJECTIONS))
def test_compiled_projection_matches_the_interpreted_oracle(db, shape, include_rowids):
    """A projection whose columns each resolve to one FROM item reads
    its slots directly; an ambiguous unqualified column keeps the
    interpreted resolution.  Both give the oracle's rows, ROWID keys
    included, on a plan that did compile."""
    plan = SelectPlan(
        from_items=[FromItem("book"), FromItem("review")],
        columns=PROJECTIONS[shape],
        where=Comparison("=", col("book.bookid"), col("review.bookid")),
        include_rowids=include_rowids,
    )
    compiled = execute_select(db, plan)
    assert db.stats["plans_compiled"] == 1
    oracle = execute_select(db, plan, optimize=False)

    def canonical(rows):
        return sorted(repr(sorted(row.items())) for row in rows)

    assert compiled and canonical(compiled) == canonical(oracle)
    expected_keys = [column.output_name for column in PROJECTIONS[shape]]
    if include_rowids:
        expected_keys += ["book.ROWID", "review.ROWID"]
    assert all(list(row) == expected_keys for row in compiled)
