"""Set-at-a-time ``Database.load`` against a loop of single inserts.

``load`` checks a whole batch in one ordered pass (coerce, NOT NULL,
CHECK, uniqueness against the stored rows and the batch's earlier rows,
then each FK with one probe per distinct parent key) and stores it with
one batch primitive call.  The property draws random batches over a
schema with every constraint kind (a composite FK whose columns run in
the other order than the parent's index, an FK no parent index covers,
and a self-referencing FK) and compares ``load`` with ``insert`` called
row by row on an identical database:

* when every insert succeeds, both hold the same rows under the same
  rowids, the same index buckets, statistics counters, data versions
  and delta-log events, and pass the integrity audit;
* otherwise ``load`` raises the exception type and message of the
  loop's first failure and leaves the database as it found it, inside
  a transaction or outside one.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ForeignKeyViolation, ReproError
from repro.rdb.database import Database
from repro.rdb.schema import Schema
from repro.rdb.sql.engine import SQLEngine
from repro.rdb.sql.parser import parse_script

DDL = """
CREATE TABLE p(
    id INTEGER, k1 INTEGER, k2 VARCHAR2(2), tag VARCHAR2(2),
    CONSTRAINT ppk PRIMARY KEY (id),
    UNIQUE (k1, k2));
CREATE TABLE t(
    id INTEGER, u VARCHAR2(2), pid INTEGER, c2 VARCHAR2(2), c1 INTEGER,
    tag VARCHAR2(2), up INTEGER, n INTEGER NOT NULL, v INTEGER CHECK (v >= 0),
    PRIMARY KEY (id), UNIQUE (u),
    FOREIGN KEY (pid) REFERENCES p (id),
    FOREIGN KEY (c2, c1) REFERENCES p (k2, k1),
    FOREIGN KEY (tag) REFERENCES p (tag),
    FOREIGN KEY (up) REFERENCES t (id));
"""

PARENTS = [
    {"id": 1, "k1": 1, "k2": "a", "tag": "g"},
    {"id": 2, "k1": 2, "k2": "b", "tag": None},
    {"id": 3, "k1": 1, "k2": "b", "tag": "h"},
]

#: the values a column draws from (ids and self-references are drawn
#: per world, see :func:`worlds`)
DOMAINS = {
    "u": [None, None, None, None, *"abcdefghij"],
    "pid": [None, 1, 2, 3],
    ("c2", "c1"): [(None, None), ("a", 1), ("b", 2), ("b", 1), ("a", None)],
    "tag": [None, "g", "h"],
    "n": [0, 1],
    "v": [None, 0, 5],
}

#: at most one per row: a value of the wrong type or length, a NULL in a
#: NOT NULL or key column, a failing CHECK, a dangling reference, an
#: unknown column, or a column left out (it reads as NULL)
FAULTS = [
    ("id", "x"), ("u", "toolong"), ("id", None), ("n", None), ("v", -1),
    ("pid", 9), ("c2", "z"), ("c1", 9), ("tag", "q"), ("up", 99), ("zz", 1),
    ("n", ...), ("u", ...), ("id", ...),
]


@st.composite
def rows(draw, ids, earlier):
    """One row with the next of *ids*, often referencing one of the
    *earlier* ids; sometimes it repeats an earlier id instead, or
    carries one fault."""
    row = {}
    for columns, values in DOMAINS.items():
        value = draw(st.sampled_from(values))
        if isinstance(columns, tuple):
            row.update(zip(columns, value))
        else:
            row[columns] = value
    row["up"] = draw(st.sampled_from([None, None, *earlier[-4:]]))
    row["id"] = next(ids)
    if earlier and draw(st.integers(0, 9)) == 0:
        row["id"] = draw(st.sampled_from(earlier))  # a duplicate key
    elif draw(st.integers(0, 5)) == 0:
        column, value = draw(st.sampled_from(FAULTS))
        if value is ...:
            del row[column]
        else:
            row[column] = value
    if isinstance(row.get("id"), int):
        earlier.append(row["id"])
    return row


@st.composite
def worlds(draw):
    ids, earlier = iter(range(1, 100)), []
    stored = [draw(rows(ids, earlier)) for _ in range(draw(st.integers(0, 4)))]
    batch = [draw(rows(ids, earlier)) for _ in range(draw(st.integers(0, 8)))]
    return stored, batch, draw(st.booleans()), draw(st.booleans())


def build(stored, wal):
    db = Database(Schema())
    engine = SQLEngine(db)
    for statement in parse_script(DDL):
        engine.execute(statement)
    for row in PARENTS:
        db.insert("p", row)
    for row in stored:
        try:
            db.insert("t", row)
        except ReproError:
            pass
    if wal:
        db.attach_wal()
    db.analyze()
    db.deltas.enable()
    return db


def state(db):
    """Rows under their rowids, every index's buckets and size, exact
    statistics counters, data versions and the rowid allocator."""
    out = {}
    for name, table in db.tables.items():
        stats = db.statistics.peek(name)
        out[name] = (
            {rowid: dict(row) for rowid, row in table.scan()},
            table.next_rowid(),
            [(index.name, index.entries(), len(index)) for index in db.indexes[name]],
            None if stats is None else (stats.row_count, dict(stats.null_counts)),
        )
    return out, dict(db.data_versions), db.stats["inserts"]


def events(db):
    return [(e.relation, e.kind, e.rowid, e.old, e.new) for e in db.deltas.take()]


def outcome(call):
    try:
        return ("ok", call())
    except ReproError as error:
        return (type(error), str(error))


@given(world=worlds())
@settings(max_examples=300, deadline=None)
def test_load_matches_a_loop_of_inserts(world):
    stored, batch, in_transaction, wal = world
    loaded, looped = build(stored, wal), build(stored, wal)
    before = state(loaded)
    assert before == state(looped)
    if in_transaction:
        loaded.begin()
        looped.begin()
    log_before = loaded.txn.log_length

    got = outcome(lambda: loaded.load("t", batch))
    expected = ("ok", [])
    for row in batch:
        single = outcome(lambda: looped.insert("t", row))
        if single[0] in ("ok", ForeignKeyViolation):
            assert single[0] == references_checked(looped, row)[0]
        if single[0] != "ok":
            expected = single
            break
        expected[1].append(single[1])

    assert got == expected
    if got[0] == "ok":
        assert state(loaded) == state(looped)
        assert events(loaded) == events(looped)
    else:
        # nothing stored, nothing recorded, nothing journaled as landed
        assert state(loaded) == before
        assert events(loaded) == []
        assert loaded.txn.log_length == log_before
    assert loaded.verify_integrity() == []
    if in_transaction:
        loaded.rollback()
        assert stored_state(loaded) == stored_state_of(before)
        assert loaded.verify_integrity() == []


def references_checked(db, values):
    """The outcome of the per-row FK check updates use
    (``find_rowids`` for every key), an oracle for ``load``'s probes."""
    relation = db.relation("t")
    row = {
        name: attribute.sql_type.coerce(values.get(name))
        for name, attribute in relation.attributes.items()
    }
    return outcome(lambda: db._check_foreign_keys(relation, row))


def stored_state(db):
    return stored_state_of(state(db))


def stored_state_of(snapshot):
    """A :func:`state` without what a rollback does not rewind: the
    rowid allocator, the data versions and the insert count."""
    tables, _versions, _inserts = snapshot
    return {
        name: (rows, indexes, stats)
        for name, (rows, _next, indexes, stats) in tables.items()
    }
