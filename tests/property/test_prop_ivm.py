"""Property-based tests on incremental view maintenance.

The central invariant: an :class:`~repro.rdb.ivm.IncrementalView` fed
the delta log of an arbitrary DML stream renders **byte-identical**
rows to re-running its plan from scratch — on both the optimized and
the interpreted (``optimize=False``) executors — after every batch,
through inserts, cascading deletes, updates, joins and DISTINCT.  The
same holds one level up, for a :class:`~repro.core.translation.ProbeCache`
routing each delta only to the entries whose guard it can satisfy.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.translation import ProbeCache, ProbeResult
from repro.errors import DatabaseError
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
from repro.rdb.ivm import IncrementalView
from repro.workloads import books

publisher_ids = st.sampled_from(["A01", "A02", "B01", "X01"])
book_ids = st.sampled_from(["98001", "98002", "98003", "n1", "n2"])
review_ids = st.sampled_from(["101", "102", "103"])

operations = st.lists(
    st.one_of(
        st.tuples(
            st.just("insert_book"),
            book_ids,
            publisher_ids,
            st.floats(min_value=1, max_value=49, allow_nan=False),
        ),
        st.tuples(st.just("delete_book"), book_ids),
        st.tuples(st.just("insert_review"), book_ids, review_ids),
        st.tuples(st.just("delete_review"), book_ids, review_ids),
        st.tuples(
            st.just("update_price"),
            book_ids,
            st.floats(min_value=1, max_value=99, allow_nan=False),
        ),
        # prices the guarded probes below filter on
        st.tuples(st.just("update_price"), book_ids, st.sampled_from([37.0, 48.0])),
        st.tuples(st.just("update_comment"), book_ids, review_ids),
    ),
    min_size=1,
    max_size=6,
)


def apply_ops(db, ops):
    for op in ops:
        try:
            if op[0] == "insert_book":
                db.insert(
                    "book",
                    {"bookid": op[1], "title": f"T-{op[1]}", "pubid": op[2],
                     "price": op[3], "year": 2000},
                )
            elif op[0] == "delete_book":
                # cascades into review — every cascaded delete must
                # surface in the delta log too
                db.delete("book", db.find_rowids("book", {"bookid": op[1]}))
            elif op[0] == "insert_review":
                db.insert(
                    "review",
                    {"bookid": op[1], "reviewid": op[2], "comment": "c",
                     "reviewer": "r"},
                )
            elif op[0] == "delete_review":
                db.delete(
                    "review",
                    db.find_rowids(
                        "review", {"bookid": op[1], "reviewid": op[2]}
                    ),
                )
            elif op[0] == "update_price":
                for rowid in sorted(
                    db.find_rowids("book", {"bookid": op[1]})
                ):
                    db.update("book", rowid, {"price": op[2]})
            elif op[0] == "update_comment":
                for rowid in sorted(
                    db.find_rowids(
                        "review", {"bookid": op[1], "reviewid": op[2]}
                    )
                ):
                    db.update("review", rowid, {"comment": "edited"})
        except DatabaseError:
            pass  # constraint rejections are part of normal operation


def plans():
    """The plan shapes under maintenance: filter, join, DISTINCT."""
    cheap_books = SelectPlan(
        from_items=[FromItem("book")],
        columns=[
            OutputColumn("bookid", "book"),
            OutputColumn("price", "book"),
        ],
        where=Comparison("<", col("book.price"), lit(40.0)),
    )
    reviewed = SelectPlan(
        from_items=[FromItem("book"), FromItem("review")],
        columns=[
            OutputColumn("bookid", "book"),
            OutputColumn("reviewid", "review"),
            OutputColumn("comment", "review"),
        ],
        where=conjoin(
            [
                Comparison("=", col("book.bookid"), col("review.bookid")),
                Comparison("<", col("book.price"), lit(50.0)),
            ]
        ),
    )
    publishers_in_print = SelectPlan(
        from_items=[FromItem("book"), FromItem("publisher")],
        columns=[OutputColumn("pubname", "publisher")],
        where=Comparison("=", col("book.pubid"), col("publisher.pubid")),
        distinct=True,
    )
    return [cheap_books, reviewed, publishers_in_print]


def byte_rows(rows):
    # dict.__eq__ ignores key order; byte-identical must not
    return [list(row.items()) for row in rows]


@given(batches=st.lists(operations, min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_maintained_views_match_recompute_after_every_batch(batches):
    db = books.build_book_database()
    db.deltas.enable()
    views = [IncrementalView.build(db, plan) for plan in plans()]
    assert all(view is not None for view in views)

    for ops in batches:
        apply_ops(db, ops)
        events = db.deltas.take()
        for view in views:
            absorbed = view.apply(db, events)
            assert absorbed is not None  # no bulk markers in DML streams
            fresh = execute_select(db, view.plan)
            oracle = execute_select(db, view.plan, optimize=False)
            assert byte_rows(view.render()) == byte_rows(fresh)
            assert byte_rows(view.render()) == byte_rows(oracle)


@given(ops=operations)
@settings(max_examples=60, deadline=None)
def test_rolled_back_streams_leave_bulk_markers(ops):
    """A rollback coalesces into per-relation bulk markers: apply()
    reports the stream unmaintainable instead of guessing."""
    db = books.build_book_database()
    db.deltas.enable()
    view = IncrementalView.build(db, plans()[1])
    db.begin()
    apply_ops(db, ops)
    db.rollback()
    events = db.deltas.take()
    touched = {
        event.relation for event in events
    } & view.relations
    result = view.apply(db, events)
    if touched:
        assert result is None  # bulk marker → caller recomputes
    else:
        assert result == 0
    # after a recompute the view maintains cleanly again
    rebuilt = IncrementalView.build(db, view.plan)
    apply_ops(db, ops)
    absorbed = rebuilt.apply(db, db.deltas.take())
    if absorbed is not None:
        assert byte_rows(rebuilt.render()) == byte_rows(
            execute_select(db, rebuilt.plan)
        )


def guarded_plan(kind, value):
    """A probe shape whose first ``rel.col = literal`` conjunct guards
    its routing (joins stay unguarded on the other relation)."""
    if kind == "book":
        return SelectPlan(
            from_items=[FromItem("book")],
            columns=None,
            where=Comparison("=", col("book.bookid"), lit(value)),
            include_rowids=True,
        )
    if kind == "price":
        return SelectPlan(
            from_items=[FromItem("book")],
            columns=None,
            where=Comparison("=", lit(value), col("book.price")),
            include_rowids=True,
        )
    if kind == "reviews-of":
        return SelectPlan(
            from_items=[FromItem("book"), FromItem("review")],
            columns=None,
            where=conjoin(
                [
                    Comparison("=", col("book.bookid"), col("review.bookid")),
                    Comparison("=", col("review.bookid"), lit(value)),
                ]
            ),
            include_rowids=True,
        )
    if kind == "review":
        return SelectPlan(
            from_items=[FromItem("review")],
            columns=[OutputColumn("bookid", "review")],
            where=Comparison("=", col("review.reviewid"), lit(value)),
        )
    assert kind == "publisher"
    return SelectPlan(
        from_items=[FromItem("book"), FromItem("publisher")],
        columns=[OutputColumn("pubname", "publisher")],
        where=conjoin(
            [
                Comparison("=", col("book.pubid"), col("publisher.pubid")),
                Comparison("=", col("book.pubid"), lit(value)),
            ]
        ),
        distinct=True,
    )


guarded_probes = st.one_of(
    st.tuples(st.just("book"), book_ids),
    st.tuples(st.just("price"), st.sampled_from([37, 37.0, 48.0, 1.5])),
    st.tuples(st.just("reviews-of"), book_ids),
    st.tuples(st.just("review"), review_ids),
    st.tuples(st.just("publisher"), publisher_ids),
)


@given(
    probes=st.lists(st.tuples(guarded_probes, st.booleans()), max_size=12),
    batches=st.lists(operations, min_size=1, max_size=4),
)
@settings(max_examples=60, deadline=None)
def test_routed_probe_cache_matches_recompute(probes, batches):
    """Many guarded and unguarded entries in one cache, arbitrary DML
    (cascading deletes included) drained through ``maintain``: every
    entry still cached renders exactly what a fresh run returns."""
    db = books.build_book_database()
    db.deltas.enable()
    cache = ProbeCache()
    shapes = [(plan, True) for plan in plans()] + [
        (guarded_plan(*probe), hot) for probe, hot in probes
    ]
    for number, (plan, hot) in enumerate(shapes):
        key = ("context", number, False, ())
        for _ in range(2 if hot else 1):
            cache.get(key)
        cache.put(
            key,
            ProbeResult(sql=plan.to_sql(), rows=execute_select(db, plan)),
            frozenset(item.relation_name for item in plan.from_items),
            plan=plan,
            born_seq=db.deltas.seq,
        )

    for ops in batches:
        apply_ops(db, ops)
        cache.maintain(db, db.deltas.take())
        for entry in cache._entries.values():
            fresh = execute_select(db, entry.plan)
            oracle = execute_select(db, entry.plan, optimize=False)
            assert byte_rows(entry.probe.rows) == byte_rows(fresh)
            assert byte_rows(entry.probe.rows) == byte_rows(oracle)
