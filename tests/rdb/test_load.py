"""``Database.load``: one statement per batch, and what rides with it.

* a failing load stores nothing, inside a transaction or outside one;
* an error or a crash at any fault site of a load, resumed by a
  rollback or repaired by recovery, gives back the pre-state;
* an insert passes the same fault sites, in the same order, as before
  the batch store (``table.restore`` where it was ``table.insert``,
  ``index.add_rows`` where it was ``index.add``);
* NOT NULL violations name the first NULL column in declared order,
  whatever the hash seed;
* dropped relations leave ``schema_versions``, and a recreated name
  never matches a plan cached before the drop.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import ForeignKeyViolation, NotNullViolation, UniqueViolation
from repro.rdb import FaultInjectedError, FaultPlan, SimulatedCrash
from repro.rdb.database import Database
from repro.rdb.schema import Schema
from repro.rdb.sql.engine import SQLEngine
from repro.rdb.sql.parser import parse_script
from repro.rdb.transactions import UndoAction, UndoKind
from repro.workloads import books

SRC = Path(__file__).resolve().parents[2] / "src"


def _image(db):
    """Rows under their rowids and every index's buckets."""
    return {
        name: (
            {rowid: dict(row) for rowid, row in table.scan()},
            [index.entries() for index in db.indexes[name]],
        )
        for name, table in db.tables.items()
    }


def _new_reviews():
    return [
        {"bookid": "98001", "reviewid": f"n{n}", "comment": "c", "reviewer": "v"}
        for n in range(3)
    ]


class TestFailingLoad:
    @pytest.mark.parametrize("in_transaction", [False, True], ids=["auto", "txn"])
    @pytest.mark.parametrize(
        "bad, error",
        [
            ({"bookid": "nope", "reviewid": "x", "comment": "c"}, ForeignKeyViolation),
            ({"bookid": "98001", "reviewid": "n0", "comment": "c"}, UniqueViolation),
            ({"bookid": None, "reviewid": "x", "comment": "c"}, NotNullViolation),
        ],
        ids=["dangling", "batch-duplicate", "null-key"],
    )
    def test_stores_nothing(self, bad, error, in_transaction):
        db = books.build_book_database()
        db.analyze()
        before = _image(db)
        versions = dict(db.data_versions)
        next_rowid = db.table("review").next_rowid()
        if in_transaction:
            db.begin()
        with pytest.raises(error):
            db.load("review", [*_new_reviews(), bad])
        assert _image(db) == before
        assert db.data_versions == versions
        assert db.table("review").next_rowid() == next_rowid
        assert db.txn.log_length == 0
        assert db.verify_integrity() == []
        if in_transaction:
            db.commit()
            assert _image(db) == before

    def test_rows_are_read_once(self):
        db = books.build_book_database()
        start = db.table("review").next_rowid()
        rowids = db.load("review", (row for row in _new_reviews()))
        assert rowids == [start, start + 1, start + 2]
        assert [db.row("review", rowid)["reviewid"] for rowid in rowids] == [
            "n0", "n1", "n2",
        ]
        assert db.load("review", iter(())) == []

    def test_foreign_key_probes_once_per_distinct_parent_key(self):
        db = books.build_book_database()
        index = db.index_on("book", ["bookid"])
        lookups = index.lookups
        db.load("review", _new_reviews())
        assert index.lookups - lookups == 1


class TestFaultSites:
    def test_insert_passes_the_sites_it_always_passed(self):
        db = books.build_book_database()
        db.attach_wal()
        indexes = len(db.indexes["review"])
        db.faults.start_recording()
        db.insert("review", _new_reviews()[0])
        trace = db.faults.stop_recording()
        assert trace == (
            ["wal.record(review)", "table.restore(review)"]
            + ["index.add_rows(review)"] * indexes
        )

    def _recorded(self, in_transaction):
        db = books.build_book_database()
        db.attach_wal()
        db.analyze()
        before = _image(db)
        db.faults.start_recording()
        if in_transaction:
            db.begin()
        db.load("review", _new_reviews())
        if in_transaction:
            db.commit()
        return before, len(db.faults.stop_recording())

    @pytest.mark.parametrize("in_transaction", [False, True], ids=["auto", "txn"])
    def test_error_at_every_site_is_undone(self, in_transaction):
        before, sites = self._recorded(in_transaction)
        assert sites > 6
        for k in range(1, sites + 1):
            db = books.build_book_database()
            db.attach_wal()
            db.analyze()
            if in_transaction:
                db.begin()
            db.faults.arm(FaultPlan(at=k, action="error"))
            with pytest.raises(FaultInjectedError):
                db.load("review", _new_reviews())
                if in_transaction:
                    db.commit()
            if in_transaction:
                db.rollback()
            assert db.txn.pending == 0
            assert _image(db) == before, k
            assert db.verify_integrity() == []

    @pytest.mark.parametrize("in_transaction", [False, True], ids=["auto", "txn"])
    def test_crash_at_every_site_recovers(self, in_transaction):
        before, sites = self._recorded(in_transaction)
        for k in range(1, sites + 1):
            db = books.build_book_database()
            db.attach_wal()
            if in_transaction:
                db.begin()
            db.faults.arm(FaultPlan(at=k, action="crash"))
            with pytest.raises(SimulatedCrash):
                db.load("review", _new_reviews())
                if in_transaction:
                    db.commit()
            db.faults.disarm()
            assert db.recover().recovered
            assert _image(db) == before, k
            assert db.verify_integrity() == []


_NOT_NULL_ORDER = """
from repro.errors import NotNullViolation
from repro.rdb import Attribute, Database, Relation, Schema
from repro.rdb.constraints import NotNull

relation = Relation(
    "t",
    [Attribute(name, "INTEGER") for name in "abcd"],
    [NotNull("d"), NotNull("c"), NotNull("b")],
)
db = Database(Schema([relation]))
try:
    db.insert("t", {"a": 1})
except NotNullViolation as error:
    print(error)
"""


def test_not_null_names_the_first_column_in_declared_order():
    """The violated column must not depend on set iteration order,
    which changes with the hash seed of the process."""
    for seed in range(1, 7):
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=str(SRC))
        result = subprocess.run(
            [sys.executable, "-c", _NOT_NULL_ORDER],
            env=env, capture_output=True, text=True, check=True,
        )
        assert result.stdout.strip() == "t.b may not be NULL", seed


def test_undo_actions_carry_no_dict():
    action = UndoAction(UndoKind.INSERT, "t", 1)
    assert action.old_values is None
    assert not hasattr(action, "__dict__")


# ---------------------------------------------------------------------------
# schema versions of dropped relations
# ---------------------------------------------------------------------------

def _books_engine():
    db = books.build_book_database()
    return db, SQLEngine(db)


def test_recreated_temp_table_recompiles_cached_plans():
    db, engine = _books_engine()
    query = "SELECT a FROM TAB_ctx_1 WHERE a = '1'"
    db.create_temp_table("TAB_ctx_1", ["a"], [{"a": "1"}])
    assert len(engine.query(query)) == 1
    assert db.find_rowids("TAB_ctx_1", {"a": "1"}) == {1}
    compiled = db.stats["plans_compiled"], db.stats["rowid_plans_compiled"]
    db.drop_table("TAB_ctx_1")
    assert "TAB_ctx_1" not in db.schema_versions
    db.create_temp_table("TAB_ctx_1", ["b", "a"], [{"b": "0", "a": "1"}] * 2)
    assert len(engine.query(query)) == 2
    assert db.find_rowids("TAB_ctx_1", {"a": "1"}) == {1, 2}
    assert db.stats["plans_compiled"] == compiled[0] + 1
    assert db.stats["rowid_plans_compiled"] == compiled[1] + 1


def test_materializations_leave_schema_versions_flat():
    db, _engine = _books_engine()
    db.create_temp_table("TAB_ctx_1", ["a"], [{"a": "1"}])
    db.drop_table("TAB_ctx_1")
    size = len(db.schema_versions)
    for n in range(1000):
        name = f"TAB_ctx_{n % 7 if n % 2 else n}"
        db.create_temp_table(name, ["a"], [{"a": str(n)}])
        db.drop_table(name)
    assert len(db.schema_versions) == size


def test_dropping_a_base_relation_invalidates_its_plans():
    db = Database(Schema())
    engine = SQLEngine(db)
    for statement in parse_script("CREATE TABLE r(a INTEGER, PRIMARY KEY (a));"):
        engine.execute(statement)
    db.insert("r", {"a": 1})
    engine.query("SELECT a FROM r WHERE a = 1")
    compiled = db.stats["plans_compiled"]
    db.drop_table("r")
    for statement in parse_script("CREATE TABLE r(a INTEGER, PRIMARY KEY (a));"):
        engine.execute(statement)
    assert engine.query("SELECT a FROM r WHERE a = 1") == []
    assert db.stats["plans_compiled"] == compiled + 1
