"""Compiled single-relation rowid paths (find_rowids / select_rowids)
and the satellite bugfixes that ride along with them."""

import pytest

from repro.rdb import (
    And,
    Attribute,
    Comparison,
    Database,
    Expr,
    HashIndex,
    Integer,
    Or,
    Relation,
    Schema,
    col,
    conjoin,
    lit,
)
from repro.rdb.compiled import extract_where_params, where_signature
from repro.workloads import books


@pytest.fixture()
def db():
    return books.build_book_database()


def fresh_int_db(rows):
    schema = Schema()
    schema.add_relation(
        Relation("r", [Attribute(c, Integer()) for c in ("a", "b", "c")])
    )
    db = Database(schema)
    for row in rows:
        db.insert("r", row)
    return db


# ---------------------------------------------------------------------------
# find_rowids: compiled access decisions
# ---------------------------------------------------------------------------

def test_find_rowids_matches_interpreted_oracle(db):
    probes = [
        ("book", {"bookid": "98001"}),
        ("book", {"pubid": "A01"}),
        ("book", {"pubid": "A01", "price": 37.00}),
        ("review", {"bookid": "98001", "reviewid": "001"}),
        ("review", {"bookid": "98001", "comment": "nope"}),
        ("publisher", {"pubname": "McGraw-Hill Inc."}),
        ("book", {"title": "Data on the Web"}),
        ("book", {"bookid": "no-such"}),
    ]
    for relation, equalities in probes:
        assert db.find_rowids(relation, equalities) == db.find_rowids(
            relation, equalities, compiled=False
        )


def test_find_rowids_caches_access_decision(db):
    db.find_rowids("book", {"bookid": "98001"})
    compiled_before = db.stats["rowid_plans_compiled"]
    db.find_rowids("book", {"bookid": "98002"})  # same column set
    assert db.stats["rowid_plans_compiled"] == compiled_before
    assert db.stats["rowid_cache_hits"] >= 1


def test_find_rowids_cache_invalidated_by_ddl(db):
    db.find_rowids("book", {"title": "Data on the Web", "price": 48.00})
    invalidations_before = db.rowid_plans.invalidations
    db.create_index("book", ["title"])
    # the new index must be picked up: the cached scan decision is stale
    rows_before = db.stats["rows_scanned"]
    result = db.find_rowids("book", {"title": "Data on the Web", "price": 48.00})
    assert db.rowid_plans.invalidations == invalidations_before + 1
    assert result == db.find_rowids(
        "book", {"title": "Data on the Web", "price": 48.00}, compiled=False
    )
    assert db.stats["rows_scanned"] - rows_before <= 2  # index-narrowed


def test_find_rowids_unhashable_probe_matches_nothing():
    """An unhashable probe value cannot be in a hash index: empty
    result, no TypeError — on the index-only fast path too."""
    db = fresh_int_db([{"a": 1, "b": 2, "c": 3}])
    db.create_index("r", ["a"])
    assert db.find_rowids("r", {"a": [1, 2]}) == set()
    assert db.find_rowids("r", {"b": [1, 2]}) == set()  # scan path


def test_find_rowids_null_probe_matches_nothing():
    """SQL NULL semantics, defined once in the IR's predicate lowering:
    a NULL-valued probe matches nothing on every path — scan, index or
    residual — and compiled and interpreted agree, whatever indexes
    exist.  (Before the unified lowering, scan paths matched
    ``None == None`` while index paths matched nothing.)"""
    db = fresh_int_db([{"a": 1, "b": None, "c": 7}])
    db.create_index("r", ["a"])
    db.create_index("r", ["a", "b"])
    equalities = {"a": 1, "b": None, "c": 7}
    assert db.find_rowids("r", equalities) == db.find_rowids(
        "r", equalities, compiled=False
    ) == set()
    # non-NULL probes over the same column set still match
    assert db.find_rowids("r", {"a": 1, "c": 7}) == {1}


def test_partial_index_fallback_picks_widest_index():
    """Satellite bugfix: the fallback used to take the *first* subset
    index in declaration order; it must take the most selective one."""
    db = fresh_int_db(
        [{"a": i % 2, "b": i % 10, "c": i} for i in range(100)]
    )
    db.create_index("r", ["a"])       # narrow: buckets of 50
    db.create_index("r", ["a", "b"])  # wide: buckets of 10
    equalities = {"a": 1, "b": 3, "c": 13}
    before = db.stats["rows_scanned"]
    result = db.find_rowids("r", equalities)
    scanned = db.stats["rows_scanned"] - before
    assert result == db.find_rowids("r", equalities, compiled=False)
    assert scanned <= 10  # the (a, b) bucket, not the 50-row (a) bucket


# ---------------------------------------------------------------------------
# select_rowids: compiled predicates
# ---------------------------------------------------------------------------

def test_select_rowids_matches_interpreted_oracle(db):
    predicates = [
        Comparison("=", col("book.bookid"), lit("98001")),
        Comparison(">", col("book.price"), lit(40.0)),
        And(
            Comparison("=", col("book.pubid"), lit("A01")),
            Comparison("<", col("book.price"), lit(40.0)),
        ),
        conjoin(
            [
                Comparison("=", col("book.bookid"), lit("98003")),
                Comparison("=", col("book.pubid"), lit("A01")),
            ]
        ),
        None,
    ]
    for predicate in predicates:
        assert db.select_rowids("book", predicate) == db.select_rowids(
            "book", predicate, compiled=False
        )


def test_select_rowids_literal_agnostic_cache(db):
    db.select_rowids("book", Comparison("=", col("book.pubid"), lit("A01")))
    compiled_before = db.stats["rowid_plans_compiled"]
    hits_before = db.stats["rowid_cache_hits"]
    result = db.select_rowids(
        "book", Comparison("=", col("book.pubid"), lit("A02"))
    )
    # same shape, different literal: served from the cache
    assert db.stats["rowid_plans_compiled"] == compiled_before
    assert db.stats["rowid_cache_hits"] == hits_before + 1
    assert result == db.select_rowids(
        "book", Comparison("=", col("book.pubid"), lit("A02")), compiled=False
    )


def test_select_rowids_uses_index_for_literal_equality(db):
    predicate = Comparison("=", col("book.bookid"), lit("98002"))
    before = db.stats["rows_scanned"]
    result = db.select_rowids("book", predicate)
    scanned = db.stats["rows_scanned"] - before
    # index-only plan: the covering lookup consumes the whole
    # predicate, so the bucket is the answer — no row fetched at all
    assert scanned == 0
    assert result == db.select_rowids("book", predicate, compiled=False)


def test_select_rowids_falls_back_on_opaque_predicates(db):
    class Opaque(Expr):
        def eval(self, env):
            return env["book"]["pubid"] == "A01"

        def to_sql(self):
            return "OPAQUE()"

    predicate = Opaque()  # signature() is None: interpreted path
    compiled_before = db.stats["rowid_plans_compiled"]
    result = db.select_rowids("book", predicate)
    assert db.stats["rowid_plans_compiled"] == compiled_before
    assert result == db.select_rowids("book", predicate, compiled=False)
    assert len(result) == 2


def test_select_rowids_null_literal_equality_matches_sql(db):
    """col = NULL is never true — compiled and interpreted agree."""
    db.insert(
        "book",
        {"bookid": "b9", "title": "Orphan", "pubid": None, "price": 5.0},
    )
    predicate = Comparison("=", col("book.pubid"), lit(None))
    assert db.select_rowids("book", predicate) == []
    assert db.select_rowids("book", predicate, compiled=False) == []


def test_select_rowids_order_agrees_after_restored_rows(db):
    """Undo restores re-append old rowids at the end of the scan order;
    both paths must still emit the same (ascending) rowid order."""
    db.create_index("book", ["pubid"])
    db.begin()
    mark = db.savepoint()
    db.delete("book", [1])  # cascades into review; all restored below
    db.rollback_to(mark)
    db.commit()
    assert db.table("book").rowids() != sorted(db.table("book").rowids())
    predicate = Comparison("=", col("book.pubid"), lit("A01"))
    compiled = db.select_rowids("book", predicate)
    assert compiled == db.select_rowids("book", predicate, compiled=False)
    assert compiled == sorted(compiled) == [1, 3]


def test_delete_where_through_compiled_path(db):
    removed = db.delete_where(
        "review", Comparison("=", col("review.reviewid"), lit("001"))
    )
    assert removed == 1
    assert db.count("review") == 1


# ---------------------------------------------------------------------------
# satellite: HashIndex incremental size
# ---------------------------------------------------------------------------

def test_hash_index_len_is_incremental():
    index = HashIndex("i", "r", ("a",))
    index.add(1, {"a": 1})
    index.add(2, {"a": 1})
    index.add(3, {"a": 2})
    index.add(3, {"a": 2})  # duplicate add must not double-count
    index.add(4, {"a": None})  # NULL keys are not indexed
    assert len(index) == 3
    assert index.distinct_keys() == 2
    assert index.average_bucket() == pytest.approx(1.5)
    index.remove(2, {"a": 1})
    index.remove(2, {"a": 1})  # double remove must not double-count
    index.remove(4, {"a": None})
    assert len(index) == 2
    index.remove(1, {"a": 1})
    index.remove(3, {"a": 2})
    assert len(index) == 0
    assert index.average_bucket() == 0.0


# ---------------------------------------------------------------------------
# satellite: coalesced version bumps on rollback
# ---------------------------------------------------------------------------

def test_savepoint_rollback_coalesces_version_bumps(db):
    """One version write per relation per rollback — but advancing by
    the number of undone rows, so the re-planning threshold still sees
    the true drift magnitude."""
    version_before = db.data_versions.get("review", 0)
    db.begin()
    mark = db.savepoint()
    for i in range(5):
        db.insert(
            "review",
            {"bookid": "98001", "reviewid": f"9{i}", "comment": "x",
             "reviewer": "r"},
        )
    assert db.data_versions["review"] == version_before + 5
    undone = db.rollback_to(mark)
    assert undone == 5
    # five undone rows advance the version by five, in one write
    assert db.data_versions["review"] == version_before + 10
    db.commit()
    assert db.count("review") == 2


def test_full_rollback_coalesces_version_bumps(db):
    db.begin()
    db.insert("publisher", {"pubid": "Z01", "pubname": "Zed"})
    for i in range(3):
        db.insert(
            "book",
            {"bookid": f"z{i}", "title": "T", "pubid": "Z01", "price": 1.0},
        )
    book_version = db.data_versions["book"]
    publisher_version = db.data_versions["publisher"]
    db.rollback()
    assert db.data_versions["book"] == book_version + 3
    assert db.data_versions["publisher"] == publisher_version + 1
    assert db.count("book") == 3 and db.count("publisher") == 3


def test_large_rollback_drift_still_invalidates_cached_plans(db):
    """A rolled-back bulk load must register its full drift: plans
    compiled against the inflated cardinalities go stale on rollback."""
    from repro.rdb import FromItem, OutputColumn, SelectPlan, execute_select

    db.begin()
    for i in range(40):
        db.insert(
            "book",
            {"bookid": f"z{i}", "title": "T", "pubid": "A01", "price": 1.0},
        )
    plan = SelectPlan(
        from_items=[FromItem("book")],
        columns=[OutputColumn("title", "book")],
        where=Comparison("=", col("book.bookid"), lit("98001")),
    )
    execute_select(db, plan)
    assert db.stats["plans_compiled"] == 1
    db.rollback()
    execute_select(db, plan)
    # 40 undone rows >> the threshold for a 43-row relation: recompile
    assert db.stats["plans_compiled"] == 2
    assert db.plan_cache.invalidations == 1


# ---------------------------------------------------------------------------
# OR trees (and AND nested under them) on the rowid-path cache
# ---------------------------------------------------------------------------

def _disjunction(price, pubid, title):
    """``(price < ? AND pubid = ?) OR title = ?`` — one conjunct whose
    signature and parameters come from Or and the And nested in it."""
    return Or(
        And(Comparison("<", col("book.price"), lit(price)),
            Comparison("=", col("book.pubid"), lit(pubid))),
        Comparison("=", col("book.title"), lit(title)),
    )


def test_or_and_nested_and_key_and_parameterize_the_rowid_cache(db):
    first = _disjunction(40.0, "A01", "Data on the Web")
    second = _disjunction(50.0, "A02", "no such title")
    assert where_signature(first) == where_signature(second) == (
        ("or", ("and", ("cmp", "<", ("col", "book", "price"), ("lit?",)),
                ("cmp", "=", ("col", "book", "pubid"), ("lit?",))),
         ("cmp", "=", ("col", "book", "title"), ("lit?",))),
    )
    assert extract_where_params(first) == (40.0, "A01", "Data on the Web")
    compiled, hits = db.stats["rowid_plans_compiled"], db.stats["rowid_cache_hits"]
    matched = []
    for predicate in (first, second):
        matched.append(db.select_rowids("book", predicate))
        assert matched[-1] == db.select_rowids("book", predicate, compiled=False)
    assert matched == [[1, 3], [2]]
    assert db.stats["rowid_plans_compiled"] == compiled + 1
    assert db.stats["rowid_cache_hits"] == hits + 1
