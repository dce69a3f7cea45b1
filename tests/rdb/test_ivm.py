"""The delta log and the maintenance compiler (:mod:`repro.rdb.ivm`).

Unit tests pin the log's capture/coalescing contract (DML hooks,
rollback bulk markers, overflow collapse), the compiler's supported
shapes and refusals, batch-delta semantics ("state at the event":
later events of one drain are unwound before a join completes), and
the :class:`ProbeCache` fallback taxonomy with its counters.
"""

import dataclasses
import math

import pytest

from repro.analysis.planlint import (
    verified_plan_count,
    verify_maintenance_or_raise,
)
from repro.core import UpdateSession
from repro.errors import PlanVerificationError
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
from repro.rdb.ivm import (
    BULK,
    DELETE,
    INSERT,
    UPDATE,
    DeltaLog,
    IncrementalView,
    IvmError,
    compile_maintenance,
)
from repro.workloads import books, chains


@pytest.fixture()
def db(book_db):
    book_db.deltas.enable()
    return book_db


def reviewed_plan():
    return SelectPlan(
        from_items=[FromItem("book"), FromItem("review")],
        columns=[
            OutputColumn("bookid", "book"),
            OutputColumn("reviewid", "review"),
        ],
        where=conjoin(
            [
                Comparison("=", col("book.bookid"), col("review.bookid")),
                Comparison("<", col("book.price"), lit(50.0)),
            ]
        ),
    )


def byte_rows(rows):
    return [list(row.items()) for row in rows]


def assert_current(db, view):
    assert byte_rows(view.render()) == byte_rows(
        execute_select(db, view.plan)
    )


# ---------------------------------------------------------------------------
# DeltaLog capture
# ---------------------------------------------------------------------------

def test_dml_hooks_record_in_seq_order(db):
    rowid = db.insert(
        "review",
        {"bookid": "98001", "reviewid": "201", "comment": "c",
         "reviewer": "r"},
    )
    db.update("review", rowid, {"comment": "c2"})
    db.delete("review", {rowid})
    kinds = [(event.kind, event.relation) for event in db.deltas.take()]
    assert kinds == [
        (INSERT, "review"), (UPDATE, "review"), (DELETE, "review")
    ]


def test_take_drains_but_keeps_seq(db):
    db.insert(
        "review",
        {"bookid": "98001", "reviewid": "202", "comment": "c",
         "reviewer": "r"},
    )
    first = db.deltas.take()
    assert db.deltas.take() == []
    db.delete("review", db.find_rowids("review", {"reviewid": "202"}))
    second = db.deltas.take()
    # seq keeps climbing across drains — born_seq comparisons rely on it
    assert second[0].seq > first[-1].seq


def test_disabled_log_records_nothing(book_db):
    book_db.insert(
        "review",
        {"bookid": "98001", "reviewid": "203", "comment": "c",
         "reviewer": "r"},
    )
    assert len(book_db.deltas) == 0


def test_rollback_coalesces_to_bulk_markers(db):
    db.begin()
    db.insert(
        "review",
        {"bookid": "98001", "reviewid": "204", "comment": "c",
         "reviewer": "r"},
    )
    db.rollback()
    events = db.deltas.take()
    # the forward insert, then one bulk marker for the undone relation —
    # not a replayed physical delete
    assert [event.kind for event in events] == [INSERT, BULK]
    assert events[-1].relation == "review"


def test_cascading_delete_records_every_child(db):
    db.delete("book", db.find_rowids("book", {"bookid": "98001"}))
    events = db.deltas.take()
    assert sorted((event.kind, event.relation) for event in events) == [
        (DELETE, "book"), (DELETE, "review"), (DELETE, "review")
    ]


def test_ddl_records_bulk(db):
    from repro.rdb import parse_script, SQLEngine

    engine = SQLEngine(db)
    for statement in parse_script(
        "CREATE TABLE scratch(sid VARCHAR2(4),"
        " CONSTRAINTS ScrPK PRIMARYKEY (sid));"
    ):
        engine.execute(statement)
    assert any(event.kind == BULK for event in db.deltas.take())


def test_overflow_collapses_to_bulk():
    log = DeltaLog(capacity=3)
    log.enable()
    for i in range(5):
        log.record_insert("r", i, {"a": i})
    events = log.take()
    # the first three inserts collapsed into one marker; the detailed
    # events after the collapse still follow it in seq order
    assert [event.kind for event in events] == [BULK, INSERT, INSERT]
    assert len(events) <= 3
    # seq still advanced once per recorded event
    assert log.seq == 5


# ---------------------------------------------------------------------------
# compile_maintenance: supported shapes and refusals
# ---------------------------------------------------------------------------

def test_compiles_filter_join_plan(db):
    mplan = compile_maintenance(db, reviewed_plan())
    assert mplan is not None
    assert set(mplan.rules) == {"book", "review"}
    # the review rule joins book through its bookid binding
    level = mplan.rules["review"].levels[0]
    assert level.relation == "book"
    assert [column for column, _, _ in level.bindings] == ["bookid"]


def test_declines_aliases(db):
    plan = SelectPlan(from_items=[FromItem("book", alias="b")])
    assert compile_maintenance(db, plan) is None


def test_declines_self_joins(db):
    plan = SelectPlan(from_items=[FromItem("book"), FromItem("book")])
    assert compile_maintenance(db, plan) is None


def test_declines_unqualified_references(db):
    plan = SelectPlan(
        from_items=[FromItem("book")],
        where=Comparison("<", col("price"), lit(40.0)),
    )
    assert compile_maintenance(db, plan) is None


def test_declines_unknown_relations(db):
    plan = SelectPlan(from_items=[FromItem("nope")])
    assert compile_maintenance(db, plan) is None


# ---------------------------------------------------------------------------
# IncrementalView semantics
# ---------------------------------------------------------------------------

def test_insert_delete_update_maintained(db):
    view = IncrementalView.build(db, reviewed_plan())
    rowid = db.insert(
        "review",
        {"bookid": "98001", "reviewid": "205", "comment": "c",
         "reviewer": "r"},
    )
    assert view.apply(db, db.deltas.take()) == 1
    assert_current(db, view)

    db.update("review", rowid, {"comment": "c2"})
    assert view.apply(db, db.deltas.take()) == 2  # retract + assert
    assert_current(db, view)

    db.delete("review", {rowid})
    assert view.apply(db, db.deltas.take()) == 1
    assert_current(db, view)


def test_batch_uses_state_at_each_event(db):
    """Delete a book (cascading into its reviews) and re-insert it in
    ONE drain: each event joins against the other relation as it stood
    at that event, so the retractions and assertions line up."""
    view = IncrementalView.build(db, reviewed_plan())
    db.delete("book", db.find_rowids("book", {"bookid": "98001"}))
    db.insert(
        "book",
        {"bookid": "98001", "title": "T", "pubid": "A01", "price": 10.0,
         "year": 2001},
    )
    db.insert(
        "review",
        {"bookid": "98001", "reviewid": "206", "comment": "c",
         "reviewer": "r"},
    )
    assert view.apply(db, db.deltas.take()) is not None
    assert_current(db, view)


def test_null_join_values_match_nothing(db):
    """A delta row with a NULL join value completes against no rows —
    SQL '=' semantics, not Python ==."""
    view = IncrementalView.build(
        db,
        SelectPlan(
            from_items=[FromItem("book"), FromItem("publisher")],
            columns=[OutputColumn("bookid", "book")],
            where=Comparison(
                "=", col("book.pubid"), col("publisher.pubid")
            ),
        ),
    )
    before = byte_rows(view.render())
    db.insert(
        "book",
        {"bookid": "n9", "title": "T", "pubid": None, "price": 10.0,
         "year": 2001},
    )
    # one delta image absorbed, but it completes no join: no output
    # row appears or disappears
    assert view.apply(db, db.deltas.take()) == 1
    assert byte_rows(view.render()) == before
    assert_current(db, view)


def test_distinct_render_dedups_but_state_counts(db):
    plan = SelectPlan(
        from_items=[FromItem("book"), FromItem("publisher")],
        columns=[OutputColumn("pubname", "publisher")],
        where=Comparison("=", col("book.pubid"), col("publisher.pubid")),
        distinct=True,
    )
    view = IncrementalView.build(db, plan)
    # a second book under A01: one more derivation, same rendered row
    db.insert(
        "book",
        {"bookid": "n8", "title": "T", "pubid": "A01", "price": 10.0,
         "year": 2001},
    )
    assert view.apply(db, db.deltas.take()) == 1
    assert_current(db, view)
    # deleting one of the two derivations must NOT retract the output
    db.delete("book", db.find_rowids("book", {"bookid": "n8"}))
    assert view.apply(db, db.deltas.take()) == 1
    assert_current(db, view)


def test_bulk_marker_defeats_apply(db):
    view = IncrementalView.build(db, reviewed_plan())
    db.deltas.record_bulk("review")
    assert view.apply(db, db.deltas.take()) is None


def test_apply_is_idempotent_over_born_seq(db):
    view = IncrementalView.build(db, reviewed_plan())
    db.insert(
        "review",
        {"bookid": "98001", "reviewid": "207", "comment": "c",
         "reviewer": "r"},
    )
    events = db.deltas.take()
    assert view.apply(db, events) == 1
    # replaying the same drain is a no-op: born_seq already advanced
    assert view.apply(db, events) == 0
    assert_current(db, view)


def test_seed_rows_require_rowids(db):
    plan = reviewed_plan()
    rows = execute_select(db, plan)  # no rowid columns projected
    view = IncrementalView.build(db, plan, rows=rows)
    assert view is not None  # fell back to building by query
    assert_current(db, view)


def test_conflicting_delta_raises(db):
    view = IncrementalView.build(db, reviewed_plan())
    db.insert(
        "review",
        {"bookid": "98001", "reviewid": "208", "comment": "c",
         "reviewer": "r"},
    )
    events = db.deltas.take()
    assert view.apply(db, events) == 1
    # forcing the same assertion again must refuse, not corrupt
    rewound = [
        type(event)(
            seq=event.seq + 100,
            relation=event.relation,
            kind=event.kind,
            rowid=event.rowid,
            old=event.old,
            new=event.new,
        )
        for event in events
    ]
    with pytest.raises(IvmError):
        view.apply(db, rewound)


# ---------------------------------------------------------------------------
# ProbeCache.maintain: the fallback taxonomy
# ---------------------------------------------------------------------------

def run_insert(session, rid):
    template = """
    FOR $book IN document("BookView.xml")/book
    WHERE $book/title/text() = "Data on the Web"
    UPDATE $book {{
    INSERT
        <review>
            <reviewid>{rid}</reviewid>
            <comment>c {rid}</comment>
        </review>}}
"""
    return session.execute(
        [template.format(rid=rid)], mode="interleaved", atomic=False
    )


INSERT_PARENT_NAMED_A = """
    FOR $root IN document("GenView.xml")
    UPDATE $root {{
    INSERT
        <parent>
            <pid>{pid}</pid>
            <pname>a</pname>
        </parent> }}
"""

DELETE_PARENT = """
    FOR $root IN document("GenView.xml"),
        $p IN $root/parent
    WHERE $p/pid/text() = "{pid}"
    UPDATE $root {{ DELETE $p }}
"""


def run_guarded_round(session, k):
    """A child insert (served from the hot ``parent.pname = 'a'``
    context probe), then a parent named "a" inserted and deleted again:
    two deltas that reach that probe's guard, leaving the data as the
    round found it."""
    return session.execute(
        [
            chains.STREAM_INSERT_CHILD.format(cid=f"CX{k:03d}", num=k),
            INSERT_PARENT_NAMED_A.format(pid=f"PA{k:03d}"),
            DELETE_PARENT.format(pid=f"PA{k:03d}"),
        ],
        mode="interleaved",
        atomic=False,
    )


def hot_context_entry(session):
    (entry,) = [
        entry for key, entry in session.cache._entries.items()
        if key[0] == "context" and entry.hot
        and entry.guards.get("parent") == ("pname", "a")
    ]
    return entry


def assert_entry_current(db, entry):
    assert byte_rows(entry.probe.rows) == byte_rows(
        execute_select(db, entry.plan)
    )


def test_session_maintains_hot_probe_entries():
    db = chains.build_chain_db(seed_parents=4)
    session = UpdateSession(db, chains.CHAIN_VIEW, ivm=True)
    run_guarded_round(session, 0)  # context probe still cold here
    run_guarded_round(session, 1)  # second request: hot from now on
    entry = hot_context_entry(session)
    result = run_guarded_round(session, 2)
    assert result.ivm_maintained > 0
    assert all(e.status == "applied" for e in result.entries)
    # the same entry absorbed the deltas: still cached, still current
    assert hot_context_entry(session) is entry
    assert_entry_current(db, entry)
    stats = db.stats
    assert stats["ivm_maintained"] > 0
    assert stats["ivm_delta_rows"] >= stats["ivm_maintained"]


def test_threshold_falls_back_to_recompute():
    db = chains.build_chain_db(seed_parents=4)
    db.ivm_threshold = 0  # any routed delta is "too large"
    session = UpdateSession(db, chains.CHAIN_VIEW, ivm=True)
    for k in range(2):
        run_guarded_round(session, k)
    fallbacks = db.stats["ivm_fallbacks"]
    result = run_guarded_round(session, 2)
    assert all(e.status == "applied" for e in result.entries)
    # the child insert re-caches the (hot) context probe; the parent
    # deltas that follow reach its guard, trip the threshold and drop
    # it where the default threshold would have maintained it
    with pytest.raises(ValueError):
        hot_context_entry(session)
    assert db.stats["ivm_fallbacks"] > fallbacks
    assert db.stats["ivm_maintained"] == 0


def test_unbounded_threshold_maintains_what_zero_drops():
    """``ivm_threshold = math.inf`` maintains the very deltas that
    threshold 0 drops in :func:`test_threshold_falls_back_to_recompute`."""
    db = chains.build_chain_db(seed_parents=4)
    db.ivm_threshold = math.inf
    session = UpdateSession(db, chains.CHAIN_VIEW)
    for k in range(2):
        run_guarded_round(session, k)
    entry = hot_context_entry(session)
    maintained = db.stats["ivm_maintained"]
    run_guarded_round(session, 2)
    assert db.stats["ivm_maintained"] > maintained
    assert hot_context_entry(session) is entry
    assert_entry_current(db, entry)


def test_verify_plans_checks_maintenance_lowering():
    """With ``db.verify_plans`` armed, the maintenance compile a hot
    guarded entry triggers passes the maintenance-plan verifier."""
    db = chains.build_chain_db(seed_parents=4)
    db.verify_plans = True
    session = UpdateSession(db, chains.CHAIN_VIEW)
    for k in range(2):
        run_guarded_round(session, k)
    before = verified_plan_count()
    result = run_guarded_round(session, 2)
    assert result.ivm_maintained > 0
    assert verified_plan_count() > before
    assert_entry_current(db, hot_context_entry(session))


def test_maintenance_verifier_counts_clean_compiles(db):
    db.verify_plans = True
    before = verified_plan_count()
    assert compile_maintenance(db, reviewed_plan()) is not None
    assert verified_plan_count() == before + 1


def test_corrupted_maintenance_plan_is_rejected(db):
    mplan = compile_maintenance(db, reviewed_plan())
    review = mplan.rules["review"]
    # a lowering that forgot the review rule's join level would apply
    # its book conjuncts nowhere
    corrupted = dataclasses.replace(
        mplan,
        rules={**mplan.rules, "review": dataclasses.replace(review, levels=())},
    )
    with pytest.raises(PlanVerificationError) as excinfo:
        verify_maintenance_or_raise(db, corrupted)
    assert any("review" in finding for finding in excinfo.value.findings)


def test_forced_off_invalidates(book_db):
    session = UpdateSession(book_db, books.BOOK_VIEW_QUERY, ivm=False)
    run_insert(session, "310")
    assert not book_db.deltas.enabled or len(book_db.deltas) == 0
    assert book_db.stats["ivm_maintained"] == 0


def test_cold_entries_drop_instead_of_maintaining(book_db):
    """One-shot key probes must not accumulate maintenance work: a key
    requested once is dropped at its first relevant delta."""
    session = UpdateSession(book_db, books.BOOK_VIEW_QUERY, ivm=True)
    run_insert(session, "311")
    entries_after_one = len(session.cache._entries)
    for rid in ("312", "313", "314", "315"):
        run_insert(session, rid)
    # the per-rid key probes do not pile up as live entries
    assert len(session.cache._entries) <= entries_after_one + 1


# ---------------------------------------------------------------------------
# session integration: closure memoization
# ---------------------------------------------------------------------------

def test_cascade_closure_memoized_until_schema_changes(book_db):
    session = UpdateSession(book_db, books.BOOK_VIEW_QUERY)
    first = session._cascade_closure({"book"})
    assert session._cascade_closure({"book"}) == first
    # memo returns copies — mutating one must not poison the cache
    first.add("junk")
    assert "junk" not in session._cascade_closure({"book"})

    from repro.rdb import SQLEngine, parse_script

    engine = SQLEngine(book_db)
    for statement in parse_script(
        "CREATE TABLE extra(eid VARCHAR2(4), bookid VARCHAR2(20),"
        " CONSTRAINTS ExtraPK PRIMARYKEY (eid),"
        " FOREIGNKEY (bookid) REFERENCES book (bookid));"
    ):
        engine.execute(statement)
    # fk_epoch bumped: the closure must now see the new FK edge
    assert "extra" in session._cascade_closure({"book"})
