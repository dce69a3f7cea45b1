"""ProbeCache key canonicalization, invalidation and delta routing.

The cache used to key probes on bare ``repr()`` of predicate literals
and key values: ``1`` vs ``1.0`` on a DOUBLE column (or ``"1"`` vs
``1`` on an INTEGER column) composed the *same* SQL but missed each
other's entries — and any repr collision across types would have
wrongly shared one.  Keys now canonicalize through column-type
coercion + ``sql_literal``.  Invalidation is cross-checked against the
session's FK cascade closure: a mutation must drop every entry whose
read set a cascade could reach, and nothing else.  Under maintenance,
each delta event is routed only to the entries whose ``rel.col =
literal`` guard its row images can satisfy; the routing tests pin the
edge cases of that lookup and the request ledger's bound.
"""

import pytest

from repro.core import UFilter, UpdateSession
from repro.core.translation import ProbeCache, ProbeResult
from repro.core.update_binding import PredicateResolution, ResolvedUpdate
from repro.core.asg import ValueConstraint
from repro.rdb import (
    Comparison,
    FromItem,
    SelectPlan,
    col,
    conjoin,
    execute_select,
    lit,
)
from repro.workloads import books, chains

from test_qa import CHAIN_VIEW, build_chain_db


def resolved_with(relation, attribute, op, literal):
    resolution = PredicateResolution(
        predicate=None,
        relation=relation,
        attribute=attribute,
        constraint=ValueConstraint(op=op, literal=literal),
    )
    return ResolvedUpdate(update=None, predicates=[resolution])


@pytest.fixture()
def book_translator(book_db):
    return UFilter(book_db, books.BOOK_VIEW_QUERY).checker.translator


@pytest.fixture()
def chain_translator():
    db = build_chain_db()
    return UFilter(db, CHAIN_VIEW).checker.translator


class FakeNode:
    node_id = "n1"


# ---------------------------------------------------------------------------
# context keys (PQ1/PQ2)
# ---------------------------------------------------------------------------

def context_key(translator, literal):
    return ProbeCache.context_key(
        FakeNode(),
        resolved_with("book", "price", "=", literal),
        narrow=False,
        canon=translator._literal_signature,
    )


def test_int_and_float_literal_share_a_double_key(book_translator):
    assert context_key(book_translator, 37) == context_key(book_translator, 37.0)


def test_lexical_and_numeric_literal_share_an_integer_key(chain_translator):
    lexical = ProbeCache.context_key(
        FakeNode(),
        resolved_with("child", "cnum", "=", "1"),
        narrow=False,
        canon=chain_translator._literal_signature,
    )
    numeric = ProbeCache.context_key(
        FakeNode(),
        resolved_with("child", "cnum", "=", 1),
        narrow=False,
        canon=chain_translator._literal_signature,
    )
    assert lexical == numeric


def test_type_distinct_literals_stay_apart(book_translator):
    """'37' on a VARCHAR column renders quoted; 37 on DOUBLE does not —
    canonicalization must not merge across genuinely distinct types."""
    on_title = ProbeCache.context_key(
        FakeNode(),
        resolved_with("book", "title", "=", "37"),
        narrow=False,
        canon=book_translator._literal_signature,
    )
    on_price = context_key(book_translator, 37)
    assert on_title != on_price


def test_distinct_values_stay_apart(book_translator):
    assert context_key(book_translator, 37) != context_key(book_translator, 48)


def test_default_canon_uses_sql_literal_not_repr():
    key_a = ProbeCache.context_key(
        FakeNode(), resolved_with("r", "a", "=", 1.0), narrow=False
    )
    key_b = ProbeCache.context_key(
        FakeNode(), resolved_with("r", "a", "=", 1), narrow=False
    )
    # sql_literal(1.0) == '1.0' vs sql_literal(1) == '1': without a
    # schema there is no coercion, but the rendering is still SQL
    assert key_a != key_b
    assert key_a[3][0][3] == "1.0"
    assert key_b[3][0][3] == "1"


# ---------------------------------------------------------------------------
# key-probe keys (PQ3)
# ---------------------------------------------------------------------------

def test_key_probe_key_canonicalizes_strings_vs_numbers():
    assert ProbeCache.key_probe_key("child", (1,)) == ProbeCache.key_probe_key(
        "child", (1,)
    )
    # quoted string and bare int render differently — distinct entries
    assert ProbeCache.key_probe_key("child", ("1",)) != ProbeCache.key_probe_key(
        "child", (1,)
    )


def test_key_probe_cache_hit_after_type_coercion(chain_translator):
    """The translator coerces key values through the column types before
    keying, so a lexical '1' and a numeric 1 probe collapse."""
    from repro.core.translation import TupleInsert

    first = TupleInsert("child", {"cid": "C1", "pid": "P1", "cname": "c", "cnum": 1})
    probe_cache = ProbeCache()
    chain_translator.cache = probe_cache
    chain_translator.key_probe(first)
    misses = probe_cache.misses
    chain_translator.key_probe(first)
    assert probe_cache.hits == 1
    assert probe_cache.misses == misses


# ---------------------------------------------------------------------------
# invalidation under the FK cascade closure
# ---------------------------------------------------------------------------

def entry(cache, name, read_relations):
    cache.put(
        ("context", name, False, ()),
        ProbeResult(sql=f"-- {name}", rows=[]),
        frozenset(read_relations),
    )


def test_invalidate_drops_intersecting_entries_only():
    cache = ProbeCache()
    entry(cache, "on-child", {"parent", "child"})
    entry(cache, "on-grand", {"grand"})
    dropped = cache.invalidate({"child"})
    assert dropped == 1
    assert cache.get(("context", "on-grand", False, ())) is not None
    assert cache.get(("context", "on-child", False, ())) is None


def test_cascade_closure_reaches_fk_descendants():
    db = build_chain_db()
    session = UpdateSession(db, CHAIN_VIEW)
    closure = session._cascade_closure({"parent"})
    assert closure == {"parent", "child", "grand"}
    assert session._cascade_closure({"grand"}) == {"grand"}


def test_invalidate_under_cascade_closure():
    """A parent mutation must drop entries reading any FK descendant (a
    cascade may touch them); entries on disjoint relations survive."""
    db = build_chain_db()
    session = UpdateSession(db, CHAIN_VIEW)
    cache = session.cache
    entry(cache, "reads-grand", {"grand"})
    entry(cache, "reads-offview", {"offview"})
    dropped = cache.invalidate(session._cascade_closure({"parent"}))
    assert dropped == 1
    assert cache.get(("context", "reads-offview", False, ())) is not None
    assert cache.get(("context", "reads-grand", False, ())) is None


DELETE_P2 = """
FOR $root IN document("GenView.xml"),
    $p IN $root/parent
WHERE $p/pid/text() = "P2"
UPDATE $root {
    DELETE $p }
"""


def test_interleaved_session_invalidates_cascade_reachable_entries():
    """End to end: applying a parent-level delete through an interleaved
    session (maintenance off) drops cached probes over the
    cascade-reachable relations."""
    db = build_chain_db()
    session = UpdateSession(db, CHAIN_VIEW, ivm=False)
    entry(session.cache, "reads-grand", {"grand"})
    entry(session.cache, "reads-offview", {"offview"})
    session.add(DELETE_P2)
    result = session.execute(mode="interleaved")
    assert result.committed
    assert session.cache.get(("context", "reads-offview", False, ())) is not None
    assert session.cache.get(("context", "reads-grand", False, ())) is None


def test_interleaved_session_maintenance_is_delta_precise():
    """Under maintenance the same delete keeps the entry over ``grand``:
    no grand row actually changed (P2 has no FK descendants), so the
    delta stream carries nothing for it — precision the cascade-closure
    invalidation cannot offer.  An entry whose relation *did* change
    (and which carries no maintainable plan) still drops."""
    db = build_chain_db()
    session = UpdateSession(db, CHAIN_VIEW, ivm=True)
    entry(session.cache, "reads-grand", {"grand"})
    entry(session.cache, "reads-parent", {"parent"})
    session.add(DELETE_P2)
    result = session.execute(mode="interleaved")
    assert result.committed
    assert session.cache.get(("context", "reads-grand", False, ())) is not None
    assert session.cache.get(("context", "reads-parent", False, ())) is None
    assert result.ivm_fallbacks >= 1  # the planless parent entry


# ---------------------------------------------------------------------------
# delta routing: events reach only the entries whose guard they can satisfy
# ---------------------------------------------------------------------------

def byte_rows(rows):
    return [list(row.items()) for row in rows]


def parent_plan(pname, alias=None):
    name = alias or "parent"
    return SelectPlan(
        from_items=[FromItem("parent", alias)],
        columns=None,
        where=Comparison("=", col(f"{name}.pname"), lit(pname)),
        include_rowids=True,
    )


def family_plan(*extra):
    """parent ⋈ child, plus *extra* conjuncts."""
    return SelectPlan(
        from_items=[FromItem("parent"), FromItem("child")],
        columns=None,
        where=conjoin(
            [Comparison("=", col("parent.pid"), col("child.pid")), *extra]
        ),
        include_rowids=True,
    )


def cache_plan(cache, db, name, plan, hot=True):
    """Run *plan* and cache it under *name* (requested twice when
    *hot*, so maintenance engages instead of the cold drop)."""
    key = ("context", name, False, ())
    if hot:
        cache.get(key)
        cache.get(key)
    rows = execute_select(db, plan)
    cache.put(
        key,
        ProbeResult(sql=plan.to_sql(), rows=rows),
        frozenset(item.relation_name for item in plan.from_items),
        plan=plan,
        born_seq=db.deltas.seq,
    )
    return key


@pytest.fixture()
def chain_db():
    db = chains.build_chain_db()
    db.deltas.enable()
    return db


def drain(cache, db):
    before = dict(db.stats)
    cache.maintain(db, db.deltas.take())
    return {
        name: db.stats[name] - before[name]
        for name in ("ivm_maintained", "ivm_fallbacks", "ivm_delta_rows")
    }


def assert_current(cache, db, key):
    entry = cache._entries[key]
    assert byte_rows(entry.probe.rows) == byte_rows(execute_select(db, entry.plan))


def rowid_of(db, relation, **eq):
    (rowid,) = db.find_rowids(relation, eq)
    return rowid


def test_guard_is_the_first_equality_literal_conjunct(chain_db):
    cache = ProbeCache()
    key = cache_plan(cache, chain_db, "a", parent_plan("a"))
    assert cache._entries[key].guards == {"parent": ("pname", "a")}
    assert cache._guarded == {"parent": {"pname": {"a": {key: None}}}}
    # a literal on the left-hand side guards too
    flipped = SelectPlan(
        from_items=[FromItem("child")],
        columns=None,
        where=Comparison("=", lit("C1"), col("child.cid")),
    )
    key = cache_plan(cache, chain_db, "c1", flipped)
    assert cache._entries[key].guards == {"child": ("cid", "C1")}


def test_update_moving_into_and_out_of_the_guard(chain_db):
    cache = ProbeCache()
    key = cache_plan(cache, chain_db, "a", parent_plan("a"))
    p2 = rowid_of(chain_db, "parent", pid="P2")

    chain_db.update("parent", p2, {"pname": "c"})  # 'b' -> 'c': misses
    assert drain(cache, chain_db)["ivm_maintained"] == 0

    chain_db.update("parent", p2, {"pname": "a"})  # only the new image
    counts = drain(cache, chain_db)
    assert counts["ivm_maintained"] == 1 and counts["ivm_delta_rows"] == 2
    assert [row["pid"] for row in cache._entries[key].probe.rows] == ["P1", "P2"]
    assert_current(cache, chain_db, key)

    chain_db.update("parent", p2, {"pname": "z"})  # only the old image
    assert drain(cache, chain_db)["ivm_maintained"] == 1
    assert [row["pid"] for row in cache._entries[key].probe.rows] == ["P1"]
    assert_current(cache, chain_db, key)


def test_null_guard_value_reaches_only_unguarded_entries(chain_db):
    cache = ProbeCache()
    guarded = cache_plan(cache, chain_db, "a", parent_plan("a"))
    everything = SelectPlan(
        from_items=[FromItem("parent")], columns=None, include_rowids=True
    )
    unguarded = cache_plan(cache, chain_db, "all", everything)
    assert cache._entries[unguarded].guards == {"parent": None}
    chain_db.insert("parent", {"pid": "P9", "pname": None})
    counts = drain(cache, chain_db)
    assert counts["ivm_maintained"] == 1  # the unguarded entry only
    assert cache._entries[guarded].born_seq < chain_db.deltas.seq
    assert cache._entries[unguarded].born_seq == chain_db.deltas.seq
    assert_current(cache, chain_db, guarded)
    assert_current(cache, chain_db, unguarded)


def test_bulk_marker_reaches_guarded_entries(chain_db):
    cache = ProbeCache()
    key = cache_plan(cache, chain_db, "a", parent_plan("a"))
    other = cache_plan(cache, chain_db, "c1", family_plan(
        Comparison("=", col("child.cid"), lit("C1"))
    ))
    chain_db.begin()
    chain_db.insert("parent", {"pid": "P9", "pname": "q"})
    chain_db.rollback()  # coalesces into a bulk marker on parent
    counts = drain(cache, chain_db)
    assert counts["ivm_fallbacks"] == 2
    assert key not in cache._entries and other not in cache._entries
    assert cache._guarded == {} and cache._unguarded == {}


def test_integer_guard_literal_matches_a_double_row_value(book_db):
    book_db.deltas.enable()
    cache = ProbeCache()
    plan = SelectPlan(
        from_items=[FromItem("book")],
        columns=None,
        where=Comparison("=", col("book.price"), lit(1)),
        include_rowids=True,
    )
    key = cache_plan(cache, book_db, "one", plan)
    assert cache._entries[key].probe.rows == []
    book_db.insert(
        "book",
        {"bookid": "n1", "title": "T", "pubid": "A01", "price": 1.0,
         "year": 2000},
    )
    counts = drain(cache, book_db)
    assert counts["ivm_maintained"] == 1
    rows = cache._entries[key].probe.rows
    assert [row["bookid"] for row in rows] == ["n1"]
    assert isinstance(rows[0]["price"], float)
    assert_current(cache, book_db, key)


def test_aliased_plan_stays_unguarded(chain_db):
    cache = ProbeCache()
    key = cache_plan(cache, chain_db, "p", parent_plan("a", alias="p"))
    assert cache._entries[key].guards == {"parent": None}
    # an event far from 'a' still reaches it — and the maintenance
    # compiler declines aliases, so it drops to a recompute
    chain_db.insert("parent", {"pid": "P9", "pname": "q"})
    assert drain(cache, chain_db)["ivm_fallbacks"] == 1
    assert key not in cache._entries


def test_skipped_later_event_on_the_joined_relation(chain_db):
    """A drain whose routed event joins against a relation that a later,
    skipped event of the same drain touched: state-at-event candidates
    come out the same with or without that event."""
    cache = ProbeCache()
    by_parent = cache_plan(cache, chain_db, "by-parent", family_plan(
        Comparison("=", col("parent.pname"), lit("a"))
    ))
    by_child = cache_plan(cache, chain_db, "by-child", family_plan(
        Comparison("=", col("child.cname"), lit("x"))
    ))
    assert cache._entries[by_parent].guards == {
        "parent": ("pname", "a"), "child": None,
    }
    assert cache._entries[by_child].guards == {
        "parent": None, "child": ("cname", "x"),
    }
    p2 = rowid_of(chain_db, "parent", pid="P2")
    # routed to by-parent (child unguarded there); then a parent update
    # by-parent skips: P2 is 'b' at the event and 'c' after it
    chain_db.insert("child", {"cid": "C8", "pid": "P2", "cname": "y", "cnum": 8})
    chain_db.update("parent", p2, {"pname": "c"})
    # routed to by-child (parent unguarded there); then a child insert
    # by-child skips ('y'), and one it takes ('x')
    chain_db.insert("parent", {"pid": "P9", "pname": "q"})
    chain_db.insert("child", {"cid": "C9", "pid": "P9", "cname": "y", "cnum": 9})
    chain_db.insert("child", {"cid": "CA", "pid": "P9", "cname": "x", "cnum": 10})
    counts = drain(cache, chain_db)
    # by-parent takes the 3 child inserts; by-child the P2 update (2
    # images), the P9 insert and the 'x' child
    assert counts["ivm_maintained"] == 2
    assert counts["ivm_delta_rows"] == 3 + 4
    assert_current(cache, chain_db, by_parent)
    assert_current(cache, chain_db, by_child)
    assert [row["cid"] for row in cache._entries[by_child].probe.rows] == ["CA"]


def test_cold_entries_drop_at_their_first_event_guard_or_not(chain_db):
    cache = ProbeCache()
    cold = cache_plan(cache, chain_db, "cold", family_plan(
        Comparison("=", col("parent.pname"), lit("a"))
    ), hot=False)
    hot = cache_plan(cache, chain_db, "hot", parent_plan("a"))
    assert cache._unguarded == {"child": {cold: None}, "parent": {cold: None}}
    # an event on the cold entry's *other* relation, nowhere near its
    # guard: the cold entry drops, the hot one is not even reached
    chain_db.insert("child", {"cid": "C8", "pid": "P2", "cname": "y", "cnum": 8})
    counts = drain(cache, chain_db)
    assert counts == {"ivm_maintained": 0, "ivm_fallbacks": 1, "ivm_delta_rows": 0}
    assert cold not in cache._entries and hot in cache._entries
    assert cache._unguarded == {}

    # a second request re-indexes a cold entry under its guard
    promoted = cache_plan(cache, chain_db, "promoted", parent_plan("b"), hot=False)
    assert cache.get(promoted) is not None  # first request: still cold
    assert promoted in cache._unguarded["parent"]
    assert cache.get(promoted) is not None
    assert cache._entries[promoted].hot and cache._unguarded == {}
    assert promoted in cache._guarded["parent"]["pname"]["b"]
    p2 = rowid_of(chain_db, "parent", pid="P2")
    chain_db.update("parent", p2, {"pname": "c"})
    assert drain(cache, chain_db)["ivm_maintained"] == 1
    assert cache._entries[promoted].probe.rows == []


def test_drop_invalidate_and_clear_empty_the_buckets(chain_db):
    cache = ProbeCache()
    keys = [
        cache_plan(cache, chain_db, f"g{i}", parent_plan(name))
        for i, name in enumerate("aab")
    ]
    cache_plan(cache, chain_db, "cold", parent_plan("a"), hot=False)
    assert set(cache._guarded["parent"]["pname"]) == {"a", "b"}
    # re-putting a key replaces its registration instead of doubling it
    cache_plan(cache, chain_db, "g0", parent_plan("b"))
    assert keys[0] in cache._guarded["parent"]["pname"]["b"]
    assert keys[0] not in cache._guarded["parent"]["pname"]["a"]
    cache.invalidate({"parent"})
    assert len(cache) == 0
    assert cache._guarded == {} and cache._unguarded == {}
    cache_plan(cache, chain_db, "again", parent_plan("a"))
    cache.clear()
    assert cache._guarded == {} and cache._requests == {}


# ---------------------------------------------------------------------------
# the request ledger
# ---------------------------------------------------------------------------

def test_request_ledger_stays_bounded_and_keeps_hot_keys():
    cache = ProbeCache()
    cache.REQUEST_CAP = 64
    hot = [("key", "child", (f"'h{i}'",)) for i in range(3)]
    for key in hot:
        cache.get(key)
        cache.get(key)
    peak = 0
    for i in range(20 * cache.REQUEST_CAP):
        cache.get(("key", "child", (f"'once{i}'",)))
        peak = max(peak, len(cache._requests))
    assert peak <= cache.REQUEST_CAP + 1
    assert all(cache._requests[key] == 2 for key in hot)


def test_request_ledger_prunes_amortised_when_most_keys_are_hot():
    """More hot keys than the cap: a prune cannot get under it, so the
    next one waits for the ledger to double instead of firing on every
    get."""
    cache = ProbeCache()
    hot = [("key", "child", (f"'h{i}'",)) for i in range(200)]
    for key in hot:
        cache.get(key)
        cache.get(key)
    cache.REQUEST_CAP = 64
    prunes = 0
    size = len(cache._requests)
    one_shots = 2000
    for i in range(one_shots):
        cache.get(("key", "child", (f"'once{i}'",)))
        if len(cache._requests) < size:
            prunes += 1
        size = len(cache._requests)
    assert prunes <= one_shots // len(hot) + 1
    assert all(cache._requests[key] >= 2 for key in hot)
    assert size <= 2 * len(hot) + 1
