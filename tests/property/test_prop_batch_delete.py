"""The batched write path: set-at-a-time cascade deletes and grouped
undo replay.

``Database.delete`` resolves each foreign key for a whole batch of
parents and maintains every index once per batch; ``rollback`` replays
runs of same-kind undo actions as one batch each.  The property suite
draws small random FK graphs (CASCADE, SET NULL and RESTRICT mixed, one
self-referencing FK, cycles made by updates) and checks ``delete``
against a plain dict-of-rows model of the same cascade rules, then
checks that ``rollback`` restores every row, every index bucket and the
exact statistics counters.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ForeignKeyViolation
from repro.rdb import FaultInjectedError, FaultPlan
from repro.rdb.constraints import DeletePolicy, ForeignKey, PrimaryKey
from repro.rdb.database import Database
from repro.rdb.index import HashIndex
from repro.rdb.schema import Attribute, Relation, Schema
from repro.workloads import books

POLICIES = [DeletePolicy.CASCADE, DeletePolicy.SET_NULL, DeletePolicy.RESTRICT]


# ---------------------------------------------------------------------------
# random FK graphs
# ---------------------------------------------------------------------------


@st.composite
def worlds(draw):
    """A schema spec, its rows, cycle-making updates and one delete."""
    count = draw(st.integers(2, 4))
    # fks[i]: (column, parent index, policy); parents precede children
    fks = []
    for i in range(count):
        parents = draw(st.lists(st.integers(0, i - 1), max_size=2)) if i else []
        fks.append([
            (f"f{parent}_{n}", parent, draw(st.sampled_from(POLICIES)))
            for n, parent in enumerate(parents)
        ])
    self_ref = draw(st.integers(0, count - 1))
    fks[self_ref].append(("up", self_ref, draw(st.sampled_from(POLICIES))))
    sizes = [draw(st.integers(1, 6)) for _ in range(count)]
    rows = []
    for i in range(count):
        table = []
        for rowid in range(1, sizes[i] + 1):
            row = {"id": rowid, "note": draw(st.sampled_from([None, "x"]))}
            for column, parent, _policy in fks[i]:
                # a self-reference may only point at an earlier row here
                top = rowid - 1 if parent == i else sizes[parent]
                row[column] = draw(st.sampled_from([None, *range(1, top + 1)]))
            table.append(row)
        rows.append(table)
    ids = st.integers(1, sizes[self_ref])
    updates = draw(st.lists(st.tuples(ids, ids), max_size=3))
    target = draw(st.integers(0, count - 1))
    victims = draw(st.lists(st.integers(1, sizes[target]), min_size=1, max_size=4))
    # an absent rowid is ignored
    victims += draw(st.sampled_from([[], [0], [sizes[target] + 1]]))
    wal = draw(st.booleans())
    return fks, self_ref, rows, updates, target, victims, wal


def build(fks, self_ref, rows, updates, wal):
    relations = []
    for i, columns in enumerate(fks):
        attributes = [Attribute("id", "INTEGER"), Attribute("note", "VARCHAR2(5)")]
        attributes += [Attribute(column, "INTEGER") for column, _p, _pol in columns]
        constraints = [PrimaryKey(["id"])] + [
            ForeignKey([column], f"t{parent}", ["id"], on_delete=policy)
            for column, parent, policy in columns
        ]
        relations.append(Relation(f"t{i}", attributes, constraints))
    db = Database(Schema(relations))
    for i, table in enumerate(rows):
        for row in table:
            db.insert(f"t{i}", row)
    for rowid, parent in updates:
        db.update(f"t{self_ref}", rowid, {"up": parent})
    if wal:
        db.attach_wal()
    db.analyze()
    return db


# ---------------------------------------------------------------------------
# the model: dict-of-rows, the same cascade rules
# ---------------------------------------------------------------------------


class Restricted(Exception):
    pass


class Model:
    """Tables as ``{rowid: row}`` dicts.  Children of a parent are found
    by scanning and come in the order they last took their current row
    image (an index bucket's order); everything else is the documented
    batch rule of ``Database._delete_batch``."""

    def __init__(self, db):
        self.schema = db.schema
        self.tables = {
            name: {rowid: dict(row) for rowid, row in table.scan()}
            for name, table in db.tables.items()
        }
        # set-up inserted each table in rowid order; the caller then
        # touches the rows the set-up updated, which moved to the end
        self.stamp = {}
        self.clock = 0
        for name, table in self.tables.items():
            for rowid in table:
                self.touch(name, rowid)

    def touch(self, relation, rowid):
        self.clock += 1
        self.stamp[relation, rowid] = self.clock

    def children(self, fk, parent_row):
        key = parent_row[fk.ref_columns[0]]
        if key is None:
            return []
        found = [
            rowid for rowid, row in self.tables[fk.relation_name].items()
            if row[fk.columns[0]] == key
        ]
        return sorted(found, key=lambda rowid: self.stamp[fk.relation_name, rowid])

    def delete(self, relation, rowids, doomed=None):
        table = self.tables[relation]
        batch = [rowid for rowid in dict.fromkeys(rowids) if rowid in table]
        if not batch:
            return 0
        doomed = {} if doomed is None else doomed
        doomed.setdefault(relation, set()).update(batch)
        fks = self.schema.foreign_keys_into(relation)
        for fk in fks:
            if fk.on_delete is DeletePolicy.RESTRICT:
                for rowid in batch:
                    children = self.children(fk, table[rowid])
                    if children:
                        raise Restricted(
                            f"cannot delete from {relation}: {len(children)} "
                            f"row(s) in {fk.relation_name} still reference it"
                        )
        removed = 0
        for fk in fks:
            if fk.on_delete is DeletePolicy.RESTRICT:
                continue
            spared = doomed.get(fk.relation_name, set())
            children = [
                child for rowid in batch
                for child in self.children(fk, table[rowid])
                if child not in spared
            ]
            if fk.on_delete is DeletePolicy.CASCADE:
                removed += self.delete(fk.relation_name, children, doomed)
            else:
                for child in children:
                    if child in self.tables[fk.relation_name]:
                        self.tables[fk.relation_name][child][fk.columns[0]] = None
                        self.touch(fk.relation_name, child)
        gone = [rowid for rowid in batch if rowid in table]
        for rowid in gone:
            del table[rowid]
        return removed + len(gone)


def snapshot(db):
    """Rows, every index's buckets and size, and exact statistics."""
    state = {}
    for name, table in db.tables.items():
        stats = db.statistics.peek(name)
        state[name] = (
            {rowid: dict(row) for rowid, row in table.scan()},
            [(index.name, index.entries(), index.counted_size(), len(index))
             for index in db.indexes[name]],
            None if stats is None else (stats.row_count, dict(stats.null_counts)),
        )
    return state


# ---------------------------------------------------------------------------
# the property
# ---------------------------------------------------------------------------


@given(world=worlds())
@settings(max_examples=150, deadline=None)
def test_batched_delete_matches_model_and_rollback_restores(world):
    fks, self_ref, rows, updates, target, victims, wal = world
    db = build(fks, self_ref, rows, updates, wal)
    model = Model(db)
    for rowid, _parent in updates:
        model.touch(f"t{self_ref}", rowid)
    before = snapshot(db)
    relation = f"t{target}"

    db.begin()
    try:
        outcome = ("removed", db.delete(relation, victims))
    except ForeignKeyViolation as error:
        outcome = ("restricted", str(error))
    try:
        expected = ("removed", model.delete(relation, victims))
    except Restricted as error:
        expected = ("restricted", str(error))
    assert outcome == expected
    # on success and on a RESTRICT raised deep in the cascade alike, the
    # engine's rows are the model's
    assert {
        name: {rowid: dict(row) for rowid, row in table.scan()}
        for name, table in db.tables.items()
    } == model.tables
    assert db.verify_integrity() == []

    db.rollback()
    assert db.txn.pending == 0
    assert snapshot(db) == before
    assert db.verify_integrity() == []


def test_self_referencing_cascade_cycle_terminates():
    """A row that references itself (or a two-row loop) under CASCADE is
    deleted once; the cascade does not chase it forever."""
    world = ([[("up", 0, DeletePolicy.CASCADE)]], 0,
             [[{"id": 1, "note": None, "up": None},
               {"id": 2, "note": None, "up": 1},
               {"id": 3, "note": None, "up": None}]],
             [(1, 2), (3, 3)], 0, [1, 3], False)
    fks, self_ref, rows, updates, _target, _victims, wal = world
    db = build(fks, self_ref, rows, updates, wal)
    before = snapshot(db)
    db.begin()
    assert db.delete("t0", [1, 3]) == 3
    assert db.count("t0") == 0
    assert db.rollback() == 3
    assert snapshot(db) == before
    assert db.verify_integrity() == []


def test_cascade_without_a_covering_fk_index_uses_find_rowids():
    """With no index covering exactly the FK columns, the children come
    from ``find_rowids``; the delete and its rollback are unchanged."""
    indexed = books.build_book_database()
    bare = books.build_book_database()
    bare.indexes["review"] = [
        index for index in bare.indexes["review"]
        if not index.matches(["bookid"])
    ]
    before = snapshot(bare)
    for db in (indexed, bare):
        db.begin()
        assert db.delete("publisher", db.find_rowids("publisher", {"pubid": "A01"})) == 5
    assert {name: dict(t.scan()) for name, t in bare.tables.items()} == {
        name: dict(t.scan()) for name, t in indexed.tables.items()
    }
    assert bare.rollback() == indexed.rollback() == 5
    assert snapshot(bare) == before
    assert bare.verify_integrity() == []


# ---------------------------------------------------------------------------
# an interrupted grouped replay stages exactly the unconsumed tail
# ---------------------------------------------------------------------------


def _book_state(db):
    return {
        name: sorted(
            (rowid, tuple(sorted(row.items(), key=lambda item: item[0])))
            for rowid, row in db.table(name).scan()
        )
        for name in db.tables
    }


def _batch_transaction():
    """A books database with a widened A01 subtree, and a transaction
    whose undo log mixes INSERT, UPDATE and multi-row DELETE groups."""
    db = books.build_book_database()
    for n in range(4):
        db.insert("book", {"bookid": f"x{n}", "title": f"X{n}", "pubid": "A01",
                           "price": 10.0 + n, "year": 2001})
        for r in range(2):
            db.insert("review", {"bookid": f"x{n}", "reviewid": f"r{r}",
                                 "comment": "c", "reviewer": "v"})
    db.analyze()
    before = _book_state(db)
    db.begin()
    db.insert("publisher", {"pubid": "Z01", "pubname": "Zed"})
    db.insert("publisher", {"pubid": "Z02", "pubname": "Zed 2"})
    db.update("book", db.find_rowids("book", {"bookid": "98002"}).pop(),
              {"price": 9.99})
    db.delete("publisher", db.find_rowids("publisher", {"pubid": "A01"}))
    return db, before


def test_fault_at_every_undo_site_stages_the_exact_tail():
    db, before = _batch_transaction()
    n = db.rollback()
    assert n > 10
    assert _book_state(db) == before
    for k in range(1, n + 1):
        db, before = _batch_transaction()
        db.faults.arm(FaultPlan(at=k, site="undo.rollback", action="error"))
        with pytest.raises(FaultInjectedError):
            db.rollback()
        assert db.txn.pending == n - k + 1
        assert db.rollback() == n - k + 1  # the one-shot plan is spent
        assert db.txn.pending == 0
        assert _book_state(db) == before
        assert db.verify_integrity() == []


def _site_hits(run, site):
    """How often *run* (a callable on a fresh database) passes *site*."""
    db = run()
    db.faults.start_recording()
    db.rollback()
    return sum(hit.startswith(f"{site}(") for hit in db.faults.stop_recording())


@pytest.mark.parametrize(
    "site",
    ["table.restore", "table.delete", "index.add_rows", "index.remove_rows"],
)
def test_fault_inside_a_group_leaves_a_resumable_rollback(site):
    """A fault at a table or index site in the middle of a batch
    primitive leaves a tear the resumed rollback repairs: a restore
    still indexes the rows whose table change landed, and a delete
    leaves the indexes before the table, so its rows are still stored
    for the resumed undo to delete again.  The rollback restores the
    pre-state with consistent indexes."""
    hits = _site_hits(lambda: _batch_transaction()[0], site)
    assert hits > 1
    clean, _ = _batch_transaction()
    clean.rollback()
    expected = snapshot(clean)
    for k in range(1, hits + 1):
        db, before = _batch_transaction()
        db.faults.arm(FaultPlan(at=k, site=site, action="error"))
        with pytest.raises(FaultInjectedError):
            db.rollback()
        db.rollback()
        assert db.txn.pending == 0
        assert _book_state(db) == before
        assert snapshot(db) == expected
        assert db.verify_integrity() == []


def test_fault_inside_an_autocommit_cascade_leaves_consistent_indexes():
    """An auto-commit delete is its own statement-scoped transaction: a
    fault at its k-th row undoes the rows before it, from the table and
    every index."""
    def run():
        db = books.build_book_database()
        db.analyze()
        return db

    db = run()
    before = snapshot(db)
    db.faults.start_recording()
    db.delete("publisher", db.find_rowids("publisher", {"pubid": "A01"}))
    hits = sum(
        hit.startswith("table.delete(") for hit in db.faults.stop_recording()
    )
    assert hits == 5
    for k in range(1, hits + 1):
        db = run()
        db.faults.arm(FaultPlan(at=k, site="table.delete", action="error"))
        with pytest.raises(FaultInjectedError):
            db.delete("publisher", db.find_rowids("publisher", {"pubid": "A01"}))
        assert db.txn.pending == 0
        assert snapshot(db) == before
        assert db.verify_integrity() == []


# ---------------------------------------------------------------------------
# HashIndex batch maintenance equals row-at-a-time maintenance
# ---------------------------------------------------------------------------


@given(
    rows=st.lists(
        st.tuples(st.sampled_from([None, 1, 2]), st.sampled_from([None, "a", "b"])),
        max_size=12,
    ),
    drop=st.sets(st.integers(0, 11)),
)
@settings(max_examples=80, deadline=None)
def test_index_batch_methods_match_single_row_methods(rows, drop):
    stored = [(rowid, {"a": a, "b": b}) for rowid, (a, b) in enumerate(rows, 1)]
    gone = [(rowid, row) for rowid, row in stored if rowid - 1 in drop]
    for columns in (("a",), ("a", "b")):
        single = HashIndex("one", "t", columns)
        batch = HashIndex("many", "t", columns)
        for rowid, row in stored:
            single.add(rowid, row)
        batch.add_rows(stored)
        batch.add_rows(stored)  # re-adding present entries is a no-op
        assert batch.entries() == single.entries()
        assert len(batch) == len(single) == batch.counted_size()
        for rowid, row in gone:
            single.remove(rowid, row)
        batch.remove_rows(gone)
        batch.remove_rows(gone)  # removing absent entries is a no-op
        assert batch.entries() == single.entries()
        assert len(batch) == len(single) == batch.counted_size()
