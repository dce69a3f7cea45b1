"""Database engine: DML, constraint enforcement, policies, transactions."""

import pytest

from repro.errors import (
    CheckViolation,
    DatabaseError,
    ForeignKeyViolation,
    NotNullViolation,
    PrimaryKeyViolation,
    TransactionError,
    UniqueViolation,
)
from repro.rdb import (
    Attribute,
    Database,
    DeletePolicy,
    ForeignKey,
    PrimaryKey,
    Relation,
    Schema,
    parse_expression,
)
from repro.rdb.constraints import NotNull
from repro.workloads import books


def _db():
    return books.build_book_database()


class TestInsert:
    def test_insert_returns_rowid(self):
        db = _db()
        rowid = db.insert("publisher", {"pubid": "Z01", "pubname": "Zed"})
        assert db.row("publisher", rowid)["pubname"] == "Zed"

    def test_not_null_enforced(self):
        with pytest.raises(NotNullViolation):
            _db().insert("book", {"bookid": "b", "title": None, "price": 1.0})

    def test_check_enforced(self):
        db = _db()
        with pytest.raises(CheckViolation):
            db.insert(
                "book",
                {"bookid": "b", "title": "T", "pubid": "A01", "price": -5.0},
            )

    def test_primary_key_enforced(self):
        db = _db()
        with pytest.raises(PrimaryKeyViolation):
            db.insert(
                "book",
                {"bookid": "98001", "title": "Dup", "pubid": "A01", "price": 1.0},
            )

    def test_unique_enforced(self):
        db = _db()
        with pytest.raises(UniqueViolation):
            db.insert(
                "publisher", {"pubid": "Z09", "pubname": "McGraw-Hill Inc."}
            )

    def test_foreign_key_enforced(self):
        db = _db()
        with pytest.raises(ForeignKeyViolation):
            db.insert(
                "book",
                {"bookid": "b9", "title": "T", "pubid": "NOPE", "price": 1.0},
            )

    def test_null_fk_component_allowed(self):
        db = _db()
        rowid = db.insert(
            "book", {"bookid": "b9", "title": "T", "pubid": None, "price": 1.0}
        )
        assert db.row("book", rowid)["pubid"] is None

    def test_type_coercion_applied(self):
        db = _db()
        rowid = db.insert(
            "book",
            {"bookid": "b9", "title": "T", "pubid": "A01", "price": "12.5"},
        )
        assert db.row("book", rowid)["price"] == 12.5

    def test_unknown_column_rejected(self):
        from repro.errors import SchemaError

        with pytest.raises(SchemaError):
            _db().insert("publisher", {"pubid": "X", "pubname": "Y", "zz": 1})


class TestDeletePolicies:
    def test_cascade_removes_children(self):
        db = _db()
        removed = db.delete_where(
            "book", parse_expression("bookid = '98001'")
        )
        assert removed == 3  # 1 book + 2 reviews
        assert db.count("review") == 0

    def test_cascade_transitive(self):
        db = _db()
        removed = db.delete_where(
            "publisher", parse_expression("pubid = 'A01'")
        )
        # publisher + 2 books + 2 reviews
        assert removed == 5
        assert db.count("book") == 1

    def test_set_null_policy(self):
        parent = Relation(
            "p",
            [Attribute("id", "INTEGER")],
            [PrimaryKey(("id",))],
        )
        child = Relation(
            "c",
            [Attribute("id", "INTEGER"), Attribute("pid", "INTEGER")],
            [
                PrimaryKey(("id",)),
                ForeignKey(("pid",), "p", ("id",), on_delete=DeletePolicy.SET_NULL),
            ],
        )
        db = Database(Schema([parent, child]))
        db.insert("p", {"id": 1})
        db.insert("c", {"id": 10, "pid": 1})
        removed = db.delete_where("p", None)
        assert removed == 1
        assert db.rows("c")[0]["pid"] is None

    def test_restrict_policy_blocks(self):
        parent = Relation("p", [Attribute("id", "INTEGER")], [PrimaryKey(("id",))])
        child = Relation(
            "c",
            [Attribute("id", "INTEGER"), Attribute("pid", "INTEGER")],
            [
                PrimaryKey(("id",)),
                ForeignKey(("pid",), "p", ("id",), on_delete=DeletePolicy.RESTRICT),
            ],
        )
        db = Database(Schema([parent, child]))
        db.insert("p", {"id": 1})
        db.insert("c", {"id": 10, "pid": 1})
        with pytest.raises(ForeignKeyViolation):
            db.delete_where("p", None)

    def test_set_null_into_not_null_column_fails(self):
        parent = Relation("p", [Attribute("id", "INTEGER")], [PrimaryKey(("id",))])
        child = Relation(
            "c",
            [Attribute("id", "INTEGER"), Attribute("pid", "INTEGER")],
            [
                PrimaryKey(("id",)),
                NotNull("pid"),
                ForeignKey(("pid",), "p", ("id",), on_delete=DeletePolicy.SET_NULL),
            ],
        )
        db = Database(Schema([parent, child]))
        db.insert("p", {"id": 1})
        db.insert("c", {"id": 10, "pid": 1})
        with pytest.raises(NotNullViolation):
            db.delete_where("p", None)


class TestUpdate:
    def test_update_changes_value(self):
        db = _db()
        rowid = db.find_rowids("book", {"bookid": "98001"}).pop()
        db.update("book", rowid, {"price": 20.0})
        assert db.row("book", rowid)["price"] == 20.0

    def test_update_enforces_check(self):
        db = _db()
        rowid = db.find_rowids("book", {"bookid": "98001"}).pop()
        with pytest.raises(CheckViolation):
            db.update("book", rowid, {"price": -1.0})

    def test_update_enforces_unique(self):
        db = _db()
        rowid = db.find_rowids("publisher", {"pubid": "A01"}).pop()
        with pytest.raises(UniqueViolation):
            db.update("publisher", rowid, {"pubname": "Prentice-Hall Inc."})

    def test_update_referenced_key_blocked(self):
        db = _db()
        rowid = db.find_rowids("publisher", {"pubid": "A01"}).pop()
        with pytest.raises(ForeignKeyViolation):
            db.update("publisher", rowid, {"pubid": "A99"})

    def test_update_fk_to_missing_parent_blocked(self):
        db = _db()
        rowid = db.find_rowids("book", {"bookid": "98001"}).pop()
        with pytest.raises(ForeignKeyViolation):
            db.update("book", rowid, {"pubid": "ZZZ"})

    def test_update_where_counts_rows(self):
        db = _db()
        count = db.update_where(
            "review", parse_expression("bookid = '98001'"), {"reviewer": "anon"}
        )
        assert count == 2


def _fk_world(children):
    """Parent ``p`` (one row, id 1) plus, per ``(name, parent, policy,
    not_null)``, a relation whose one row (id 1) references row 1 of
    *parent* through ``pid``."""
    relations = [Relation("p", [Attribute("id", "INTEGER")], [PrimaryKey(("id",))])]
    for name, parent, policy, not_null in children:
        constraints = [
            PrimaryKey(("id",)),
            ForeignKey(("pid",), parent, ("id",), on_delete=policy),
        ]
        if not_null:
            constraints.append(NotNull("pid"))
        relations.append(Relation(
            name, [Attribute("id", "INTEGER"), Attribute("pid", "INTEGER")],
            constraints,
        ))
    db = Database(Schema(relations))
    db.insert("p", {"id": 1})
    for name, *_ in children:
        db.insert(name, {"id": 1, "pid": 1})
    return db


def _image(db):
    """Rows, index buckets and exact statistics of every relation."""
    state = {}
    for name, table in db.tables.items():
        stats = db.statistics.peek(name)
        state[name] = (
            dict(table.scan()),
            [(index.name, index.entries()) for index in db.indexes[name]],
            None if stats is None else (stats.row_count, dict(stats.null_counts)),
        )
    return state


def _cascade_into_restrict():
    db = _fk_world([
        ("c", "p", DeletePolicy.CASCADE, False),
        ("d", "p", DeletePolicy.CASCADE, False),
        ("g", "d", DeletePolicy.RESTRICT, False),
    ])
    return db, lambda: db.delete("p", [1]), ForeignKeyViolation


def _cascade_into_not_null():
    db = _fk_world([
        ("c", "p", DeletePolicy.CASCADE, False),
        ("n", "p", DeletePolicy.SET_NULL, True),
    ])
    return db, lambda: db.delete("p", [1]), NotNullViolation


def _update_where_into_unique():
    db = _db()
    # the second publisher renamed to the first's name breaks UNIQUE
    return db, lambda: db.update_where(
        "publisher", None, {"pubname": "Zed"}
    ), UniqueViolation


class TestAutocommitStatements:
    """A statement outside any transaction that fails part-way leaves
    no trace: rows, indexes, statistics and the journal are as before."""

    @pytest.mark.parametrize("wal", [False, True], ids=["no-wal", "wal"])
    @pytest.mark.parametrize(
        "world",
        [_cascade_into_restrict, _cascade_into_not_null, _update_where_into_unique],
    )
    def test_failed_statement_is_undone(self, world, wal):
        db, statement, error = world()
        db.analyze()
        if wal:
            db.attach_wal()
        before = _image(db)
        with pytest.raises(error):
            statement()
        assert _image(db) == before
        assert db.verify_integrity() == []
        assert db.txn.pending == 0 and not db.txn.active
        if wal:
            assert db.wal.incomplete_txns() == {}
            assert db.recover().transactions == []
            assert _image(db) == before

    def test_interrupted_statement_undo_resumes_through_rollback(self):
        from repro.rdb import FaultInjectedError, FaultPlan

        db, statement, _error = _cascade_into_restrict()
        db.attach_wal()
        before = _image(db)
        db.faults.arm(FaultPlan(at=1, site="undo.rollback", action="error"))
        with pytest.raises(FaultInjectedError):
            statement()
        assert db.txn.pending == 1  # c's delete, still to be undone
        assert db.rollback() == 1
        assert db.txn.pending == 0
        assert _image(db) == before
        assert db.verify_integrity() == []
        assert db.wal.incomplete_txns() == {}


class TestTransactions:
    def test_rollback_restores_insert(self):
        db = _db()
        db.begin()
        db.insert("publisher", {"pubid": "Z01", "pubname": "Zed"})
        db.rollback()
        assert db.find_rowids("publisher", {"pubid": "Z01"}) == set()

    def test_rollback_restores_cascaded_delete(self):
        db = _db()
        before = {name: db.count(name) for name in db.tables}
        db.begin()
        db.delete_where("publisher", parse_expression("pubid = 'A01'"))
        replayed = db.rollback()
        assert replayed == 5
        assert {name: db.count(name) for name in db.tables} == before

    def test_rollback_restores_update(self):
        db = _db()
        rowid = db.find_rowids("book", {"bookid": "98001"}).pop()
        db.begin()
        db.update("book", rowid, {"price": 1.0})
        db.rollback()
        assert db.row("book", rowid)["price"] == 37.0

    def test_commit_clears_log(self):
        db = _db()
        db.begin()
        db.insert("publisher", {"pubid": "Z01", "pubname": "Zed"})
        db.commit()
        with pytest.raises(TransactionError):
            db.rollback()

    def test_nested_begin_rejected(self):
        db = _db()
        db.begin()
        with pytest.raises(TransactionError):
            db.begin()

    def test_rollback_restores_indexes(self):
        db = _db()
        db.begin()
        db.delete_where("publisher", parse_expression("pubid = 'A01'"))
        db.rollback()
        # index lookups still find the restored rows
        assert len(db.find_rowids("publisher", {"pubid": "A01"})) == 1
        assert len(db.find_rowids("book", {"pubid": "A01"})) == 2


class TestCloneAndTempTables:
    def test_clone_preserves_rows_and_rowids(self):
        db = _db()
        copy = db.clone()
        for name in db.tables:
            assert dict(db.table(name).scan()) == dict(copy.table(name).scan())

    def test_clone_carries_engine_knobs(self):
        db = _db()
        db.oracle_mode = True
        db.verify_plans = True
        db.ivm_threshold = float("inf")
        db.replan_threshold = 0.0
        db.replan_min_ops = 0
        copy = db.clone()
        for knob in ("oracle_mode", "verify_plans", "ivm_threshold",
                     "replan_threshold", "replan_min_ops"):
            assert getattr(copy, knob) == getattr(db, knob), knob

    def test_clone_is_independent(self):
        db = _db()
        copy = db.clone()
        copy.delete_where("review", None)
        assert db.count("review") == 2

    def test_temp_table_roundtrip(self):
        db = _db()
        db.create_temp_table("t", ["a"], [{"a": 1}, {"a": 2}])
        assert db.count("t") == 2
        assert db.indexes["t"] == []
        db.drop_table("t")
        with pytest.raises(Exception):
            db.count("t")

    def test_temp_table_replaces_existing(self):
        db = _db()
        db.create_temp_table("t", ["a"], [{"a": 1}])
        db.create_temp_table("t", ["b"], [{"b": 9}])
        assert db.rows("t") == [{"b": 9}]


class TestLookups:
    def test_find_rowids_uses_index(self):
        db = _db()
        index = db.index_on("book", ["bookid"])
        before = index.lookups
        db.find_rowids("book", {"bookid": "98001"})
        assert index.lookups == before + 1

    def test_find_rowids_scan_fallback(self):
        db = _db()
        rowids = db.find_rowids("book", {"title": "Data on the Web"})
        assert len(rowids) == 1

    def test_find_rowids_partial_index_narrowing(self):
        db = _db()
        rowids = db.find_rowids(
            "book", {"pubid": "A01", "title": "Data on the Web"}
        )
        assert len(rowids) == 1

    def test_select_rowids_with_predicate(self):
        db = _db()
        rowids = db.select_rowids("book", parse_expression("price > 40.00"))
        assert len(rowids) == 2

    def test_missing_relation_raises(self):
        with pytest.raises(DatabaseError):
            _db().table("ghost")
