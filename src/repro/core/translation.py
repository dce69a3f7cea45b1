"""The update translation engine (and the probe-query composer).

Given an update that survived Steps 1–2, this module:

* composes the **context probe query** — the view query joined with the
  update's predicates (PQ1/PQ2 in the paper), returning the base tuples
  (values + rowids) behind the view elements the update anchors at;
* builds the **translated SQL**: single-table DELETEs addressing the
  node's *clean source* relation, or parent-first INSERT sequences whose
  missing values are completed from the probe result and the join
  conditions (U1/U2/U3 in the paper);
* applies **translation minimization** for dirty deletes (shared tuples
  are only deleted when nothing else references them — and never when
  the relation is republished elsewhere in the view);
* enforces **duplication consistency** for dirty inserts (duplicate
  parts must agree with existing data; the driving relation must be new).
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass
from typing import Any, Optional

from ..errors import TypeMismatchError, UFilterError
from ..rdb.database import Database
from ..rdb.expr import ColumnRef, Comparison, Expr, Literal, conjoin
from ..rdb.ivm import (
    BULK,
    UPDATE,
    DeltaEvent,
    IncrementalView,
    IvmError,
)
from ..rdb.optimizer import ConjunctInfo
from ..rdb.plan import FromItem, OutputColumn, SelectPlan, execute_select
from ..rdb.types import sql_literal
from ..xml.nodes import XMLElement
from .asg import NodeKind, ValueConstraint, ViewASG, ViewNode
from .update_binding import OpResolution, ResolvedUpdate

__all__ = [
    "ProbeCache",
    "ProbeResult",
    "TupleInsert",
    "TupleDelete",
    "TupleUpdate",
    "Translator",
]

Row = dict[str, Any]


@dataclass
class ProbeResult:
    """Rows returned by a probe query, with the SQL that produced them."""

    sql: str
    rows: list[Row]
    #: executor rows visited to produce this result — 0 when the probe
    #: was served from a :class:`ProbeCache` (no engine work happened)
    rows_scanned: int = 0

    @property
    def empty(self) -> bool:
        return not self.rows

    def copy(self) -> "ProbeResult":
        return ProbeResult(
            sql=self.sql,
            rows=[dict(row) for row in self.rows],
            rows_scanned=self.rows_scanned,
        )


#: literal types whose ``hash`` agrees with ``==`` across every value
#: the engine stores (``bool`` is an ``int``, ``datetime`` a ``date``),
#: so a dict lookup on a row value is exactly ``Comparison``'s ``=``
_GUARD_TYPES = (int, float, str, datetime.date)


def _guards(
    plan: Optional[SelectPlan], read: frozenset[str]
) -> dict[str, Optional[tuple[str, Any]]]:
    """Each read relation's routing guard: the ``(column, value)`` of
    the plan's first top-level ``rel.col = literal`` conjunct on it
    (literal on either side, non-NULL, hash-exact), or ``None`` (every
    event on the relation reaches the entry).  Plans with aliases or
    repeated relations stay unguarded: a qualifier must name the
    relation the delta events are keyed by."""
    guards: dict[str, Optional[tuple[str, Any]]] = dict.fromkeys(sorted(read))
    if plan is None or plan.where is None:
        return guards
    names = [item.name for item in plan.from_items]
    if len(set(names)) != len(names) or any(
        item.alias not in (None, item.relation_name) for item in plan.from_items
    ):
        return guards
    for conjunct in plan.where.conjuncts():
        for relation, column, other, other_relation in ConjunctInfo(conjunct).eq_sides:
            if other_relation is not None:
                continue  # a join condition, not a literal
            value = other.value
            if (
                isinstance(value, _GUARD_TYPES)
                and value == value  # NaN equals nothing
                and relation in guards
                and guards[relation] is None
            ):
                guards[relation] = (column, value)
    return guards


def _index_add(index: dict, path: tuple, key: tuple) -> None:
    node = index
    for step in path:
        node = node.setdefault(step, {})
    node[key] = None


def _index_remove(index: dict, path: tuple, key: tuple) -> None:
    """Remove *key* from the bucket at *path*, deleting the buckets it
    leaves empty on the way back up."""
    nodes = [index]
    for step in path:
        nodes.append(nodes[-1][step])
    del nodes[-1][key]
    for depth in range(len(path) - 1, -1, -1):
        if nodes[depth + 1]:
            break
        del nodes[depth][path[depth]]


class _CacheEntry:
    """One cached probe plus what it takes to keep it current."""

    __slots__ = (
        "probe", "read", "plan", "born_seq", "view", "no_view",
        "guards", "hot", "slots",
    )

    def __init__(
        self,
        probe: ProbeResult,
        read: frozenset[str],
        plan: Optional[SelectPlan],
        born_seq: int,
        hot: bool,
    ) -> None:
        self.probe = probe
        self.read = read
        self.plan = plan
        #: delta-log position the rows reflect; only later events apply
        self.born_seq = born_seq
        #: lazily-built maintainer (first maintenance pass compiles it)
        self.view: Optional[IncrementalView] = None
        #: the maintenance compiler declined this plan — don't retry
        self.no_view = plan is None
        #: relation -> (column, literal) routing guard, or None
        self.guards = _guards(plan, read)
        #: requested at least twice: maintained rather than dropped
        self.hot = hot
        #: (index, path) buckets the entry is registered in
        self.slots: list[tuple[dict, tuple]] = []


class ProbeCache:
    """Memoized probe results, shared across the updates of a batch.

    Context probes (PQ1/PQ2) are keyed on ``(view node, narrow flag,
    predicate signature)``: two updates anchored at the same view node
    with the same literal predicates compose the exact same probe
    query, so a session only executes it once.  Key probes (PQ3) are
    keyed on ``(relation, key values)``.

    Every entry records the set of base relations its query read and
    the plan that produced it.  Mutations reach the cache one of two
    ways: :meth:`invalidate` drops the entries whose read set
    intersects the mutated relations (the recompute path), while
    :meth:`maintain` streams DML delta events into the entries they can
    reach through :class:`~repro.rdb.ivm.IncrementalView` — falling back
    to a drop (counted in ``db.stats['ivm_fallbacks']``) on bulk
    markers, unsupported plans, routed deltas over ``db.ivm_threshold``,
    or **cold entries**: maintenance is reserved for keys requested more
    than once, so the one-shot key probes a write stream leaves behind
    are dropped at their first delta on any relation they read instead
    of being maintained forever (per-drain work would otherwise grow
    with every update ever run through the session).

    Delta events are **routed**, not broadcast.  Per relation it reads,
    a hot entry is indexed under the *guard* of that relation — the
    first top-level ``rel.col = literal`` conjunct of its plan — or, if
    there is none, as unguarded.  A row event reaches the unguarded
    entries of its relation plus the entries whose guard value equals
    its old or new image's guard column (a dict lookup, the same
    equality ``Comparison`` evaluates); a bulk marker reaches every
    entry reading the relation.  Cold entries are indexed as unguarded
    on every relation they read — any event there reaches, and drops,
    them — until their second :meth:`get` promotes them.
    """

    #: past this many distinct requested keys, forget the cold ones
    REQUEST_CAP = 4096

    def __init__(self) -> None:
        self._entries: dict[tuple, _CacheEntry] = {}
        self._requests: dict[tuple, int] = {}
        #: the ledger size that triggers the next prune — at least
        #: twice the hot keys the last prune kept, so pruning stays
        #: amortised O(1) per get however many keys are hot
        self._hot_floor = 0
        #: relation -> cold entry keys, and hot ones without a guard on it
        self._unguarded: dict[str, dict[tuple, None]] = {}
        #: relation -> guard column -> guard value -> hot entry keys
        self._guarded: dict[str, dict[str, dict[Any, dict[tuple, None]]]] = {}
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    @staticmethod
    def context_key(
        node: ViewNode,
        resolved: Optional[ResolvedUpdate],
        narrow: bool,
        canon: Optional[Any] = None,
    ) -> tuple:
        """The (view node, predicate signature) cache key of the issue's
        design: literal predicates are order-insensitive.

        Literals are canonicalized through *canon* — ``canon(relation,
        attribute, literal)`` returns the literal's SQL rendering after
        column-type coercion (:meth:`Translator._literal_signature`), so
        SQL-equal literals of distinct Python types (``1`` vs ``1.0`` on
        a DOUBLE column, ``"1"`` vs ``1`` on an INTEGER column) share
        one entry, while type-distinct renderings (``'1'`` vs ``1``)
        stay apart.  The bare-``repr()`` keys this replaces split those
        entries (cache misses) or — for values whose ``repr`` collides
        across types — wrongly shared them.
        """
        if canon is None:
            def canon(relation: str, attribute: str, literal: Any) -> str:
                return sql_literal(literal)
        signature: list[tuple] = []
        if resolved is not None:
            for resolution in resolved.predicates:
                if resolution.constraint is None or resolution.relation is None:
                    continue
                signature.append(
                    (
                        resolution.relation,
                        resolution.attribute,
                        resolution.constraint.op,
                        canon(
                            resolution.relation,
                            resolution.attribute,
                            resolution.constraint.literal,
                        ),
                    )
                )
        return ("context", node.node_id, narrow, tuple(sorted(signature)))

    @staticmethod
    def key_probe_key(relation: str, key_values: tuple) -> tuple:
        """PQ3 cache key: canonical SQL literals, not bare ``repr``."""
        return ("key", relation, tuple(sql_literal(value) for value in key_values))

    def get(self, key: tuple) -> Optional[ProbeResult]:
        if len(self._requests) > max(self.REQUEST_CAP, self._hot_floor):
            self._requests = {
                k: n for k, n in self._requests.items() if n >= 2
            }
            self._hot_floor = 2 * len(self._requests)
        count = self._requests.get(key, 0) + 1
        self._requests[key] = count
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        if count >= 2 and not entry.hot:
            self._unregister(entry, key)
            entry.hot = True
            self._register(entry, key)
        self.hits += 1
        probe = entry.probe.copy()
        probe.rows_scanned = 0  # served from cache: no executor work
        return probe

    def put(
        self,
        key: tuple,
        probe: ProbeResult,
        read_relations: frozenset[str],
        plan: Optional[SelectPlan] = None,
        born_seq: int = 0,
    ) -> None:
        if key in self._entries:
            self._drop(key)
        entry = _CacheEntry(
            probe.copy(), read_relations, plan, born_seq,
            hot=self._requests.get(key, 0) >= 2,
        )
        self._entries[key] = entry
        self._register(entry, key)

    def _register(self, entry: _CacheEntry, key: tuple) -> None:
        for relation, guard in entry.guards.items():
            if not entry.hot or guard is None:
                slot = (self._unguarded, (relation,))
            else:
                slot = (self._guarded, (relation, *guard))
            _index_add(*slot, key)
            entry.slots.append(slot)

    def _unregister(self, entry: _CacheEntry, key: tuple) -> None:
        for index, path in entry.slots:
            _index_remove(index, path, key)
        entry.slots.clear()

    def _drop(self, key: tuple) -> None:
        self._unregister(self._entries.pop(key), key)

    def invalidate(self, relations: set[str]) -> int:
        """Drop entries that read any of *relations*; returns the count."""
        stale = [
            key
            for key, entry in self._entries.items()
            if entry.read & relations
        ]
        for key in stale:
            self._drop(key)
        self.invalidations += len(stale)
        return len(stale)

    def _route(self, events: list[DeltaEvent]) -> dict[tuple, list[DeltaEvent]]:
        """The events each hot entry must absorb, in log order.

        Skipping an event is exact.  A skipped row event fails the
        entry's guard ``rel.col = literal`` in both its images — a
        single-relation conjunct, which ``compile_maintenance``
        re-checks in two places: as an ``own`` conjunct of *rel*'s
        delta rule (so the event itself would contribute no rows), and
        as a binding or residual of *rel*'s level in every other rule.  Leaving it out of another event's
        ``later`` list therefore changes no state-at-event candidate
        that could match: the row it would unwind to fails the guard
        either way, and a failing row is as good as an absent one.
        """
        routed: dict[tuple, list[DeltaEvent]] = {}

        def reach(keys: dict[tuple, None], event: DeltaEvent) -> None:
            for key in keys:
                routed.setdefault(key, []).append(event)

        for event in events:
            relation = event.relation
            unguarded = self._unguarded.get(relation)
            if unguarded:
                reach(unguarded, event)
            by_column = self._guarded.get(relation)
            if not by_column:
                continue
            for column, buckets in by_column.items():
                if event.kind == BULK:
                    for bucket in buckets.values():
                        reach(bucket, event)
                    continue
                old = new = None
                if event.old is not None:
                    old = buckets.get(event.old.get(column))
                    if old:
                        reach(old, event)
                if event.new is not None:
                    new = buckets.get(event.new.get(column))
                    if new and new is not old:
                        reach(new, event)
        return routed

    def maintain(self, db: Database, events: list[DeltaEvent]) -> int:
        """Stream drained delta *events* into the entries they reach.

        Each hot entry applies exactly the routed events newer than the
        state its rows reflect.  Entries that cannot be maintained —
        bulk markers in their delta, a plan the maintenance compiler
        declined, a routed delta over ``db.ivm_threshold``, or a
        multiplicity conflict — are dropped, which makes the next probe
        recompute them; so is every cold key (requested once: no
        evidence it will ever be served again) at its first event on
        any relation it reads.  Returns the entries maintained.
        """
        if not events:
            return 0
        maintained = 0
        for key, routed in self._route(events).items():
            entry = self._entries[key]
            relevant = [
                event for event in routed if event.seq > entry.born_seq
            ]
            if not relevant:
                continue
            drop = not entry.hot or entry.no_view or any(
                event.kind == BULK for event in relevant
            )
            delta_rows = sum(
                2 if event.kind == UPDATE else 1 for event in relevant
            )
            if not drop and delta_rows > db.ivm_threshold:
                drop = True
            if not drop and entry.view is None:
                try:
                    entry.view = IncrementalView.build(
                        db,
                        entry.plan,
                        rows=entry.probe.rows,
                        born_seq=entry.born_seq,
                    )
                except IvmError:
                    entry.view = None
                if entry.view is None:
                    entry.no_view = True
                    drop = True
            if not drop:
                try:
                    absorbed = entry.view.apply(db, relevant)
                except IvmError:
                    absorbed = None
                if absorbed is None:
                    drop = True
                else:
                    entry.probe.rows = entry.view.render()
                    entry.born_seq = relevant[-1].seq
                    maintained += 1
                    db.stats["ivm_maintained"] += 1
                    db.stats["ivm_delta_rows"] += absorbed
            if drop:
                self._drop(key)
                self.invalidations += 1
                db.stats["ivm_fallbacks"] += 1
        return maintained

    def clear(self) -> None:
        self._entries.clear()
        self._requests.clear()
        self._hot_floor = 0
        self._unguarded.clear()
        self._guarded.clear()

    def __len__(self) -> int:
        return len(self._entries)


@dataclass
class TupleInsert:
    relation: str
    values: dict[str, Any]
    #: "driving" tuples must be new; "supporting" ones may already exist
    role: str = "driving"

    def sql(self) -> str:
        rendered = ", ".join(sql_literal(v) for v in self.values.values())
        columns = ", ".join(self.values)
        return f"INSERT INTO {self.relation} ({columns}) VALUES ({rendered})"


@dataclass
class TupleDelete:
    relation: str
    rowids: set[int]
    #: display form (the executed op addresses rowids directly)
    description: str = ""
    #: "primary" targets the clean source, "minimized" an unshared dirty
    #: tuple, "expanded" one subtree level of the multi-statement mode —
    #: the QA pass scopes its referenced-tuple audit by this tag
    kind: str = "primary"

    def sql(self) -> str:
        if not self.rowids:
            # an empty IN () list is not valid SQL; render the no-op the
            # executor actually performs (zero matching rowids)
            return f"DELETE FROM {self.relation} WHERE 1 = 0"
        ids = ", ".join(str(r) for r in sorted(self.rowids))
        return f"DELETE FROM {self.relation} WHERE ROWID IN ({ids})"


@dataclass
class TupleUpdate:
    """A single-attribute UPDATE — the natural translation of a REPLACE
    over a simple (tag/leaf) view element."""

    relation: str
    rowids: set[int]
    changes: dict[str, Any]

    def sql(self) -> str:
        assignments = ", ".join(
            f"{column} = {sql_literal(value)}" for column, value in self.changes.items()
        )
        if not self.rowids:
            return f"UPDATE {self.relation} SET {assignments} WHERE 1 = 0"
        ids = ", ".join(str(r) for r in sorted(self.rowids))
        return f"UPDATE {self.relation} SET {assignments} WHERE ROWID IN ({ids})"


class Translator:
    """Probe composition and SQL generation against one view's ASGs.

    When *cache* is attached (batch sessions do), probe executions are
    memoized through it; standalone checkers keep the paper's
    probe-per-update behaviour.  Either way, probes composed from the
    same view node share a structural shape, so the engine's compiled
    plan cache (:mod:`repro.rdb.compiled`) serves repeated shapes —
    even across differing update literals — without re-planning.
    """

    def __init__(
        self,
        db: Database,
        asg: ViewASG,
        cache: Optional[ProbeCache] = None,
    ) -> None:
        self.db = db
        self.asg = asg
        self.cache = cache
        # schema-level results per view node, keyed by ``id(node)``; each
        # value holds its node, so the id cannot be reused while cached
        # (the ASG is immutable once built: bindings are frozensets)
        self._republished: dict[int, tuple[ViewNode, frozenset[str]]] = {}
        self._subtrees: dict[int, tuple[ViewNode, tuple[ViewNode, ...]]] = {}

    # ------------------------------------------------------------------
    # probe queries
    # ------------------------------------------------------------------

    def _relations_for(self, node: ViewNode) -> list[str]:
        """UCBinding(node) ordered parents-first along the nesting path."""
        ordered: list[str] = []
        chain = [node]
        chain.extend(
            ancestor
            for ancestor in node.ancestors()
        )
        for member in reversed(chain):
            if member.kind not in (NodeKind.INTERNAL, NodeKind.ROOT):
                continue
            for relation in sorted(self.asg.current_relations(member)):
                if relation not in ordered:
                    ordered.append(relation)
        return ordered

    def _coerce_literal(self, relation: str, attribute: str, literal: Any) -> Any:
        try:
            return (
                self.db.relation(relation).attribute(attribute).sql_type.coerce(literal)
            )
        except TypeMismatchError:
            return literal

    def _literal_signature(self, relation: str, attribute: str, literal: Any) -> str:
        """Canonical cache-key rendering of a predicate literal: coerce
        through the column's SQL type (exactly what probe composition
        does), then render with :func:`sql_literal` — the key equals the
        probe SQL the literal actually produces."""
        return sql_literal(self._coerce_literal(relation, attribute, literal))

    def _constraint_expr(
        self, relation: str, attribute: str, constraint: ValueConstraint
    ) -> Expr:
        literal = self._coerce_literal(relation, attribute, constraint.literal)
        return Comparison(
            constraint.op, ColumnRef(attribute, relation), Literal(literal)
        )

    def probe_plan(
        self,
        node: ViewNode,
        resolved: Optional[ResolvedUpdate] = None,
        narrow: bool = False,
    ) -> SelectPlan:
        """The probe query for *node*'s context (PQ1/PQ2 composition).

        ``narrow=True`` projects only what a translation needs — key
        columns and join-condition attributes — the way the paper's
        external strategy "only retrieves the necessary information to
        form a lineitem tuple".  The internal strategy needs the full
        width (all attributes of all joined relations), which is
        exactly the Fig. 15 overhead.
        """
        relations = self._relations_for(node)
        if not relations:
            raise UFilterError(
                f"node {node.node_id} binds no relations — nothing to probe"
            )
        predicates: list[Expr] = []
        for condition in self.asg.conditions_in_scope(node):
            predicates.append(
                Comparison(
                    condition.op,
                    ColumnRef(condition.attr_a, condition.rel_a),
                    ColumnRef(condition.attr_b, condition.rel_b),
                )
            )
        for relation, attribute, constraint in self.asg.value_filters_in_scope(node):
            predicates.append(self._constraint_expr(relation, attribute, constraint))
        if resolved is not None:
            for resolution in resolved.predicates:
                if (
                    resolution.constraint is not None
                    and resolution.relation in relations
                ):
                    predicates.append(
                        self._constraint_expr(
                            resolution.relation,
                            resolution.attribute,
                            resolution.constraint,
                        )
                    )
        if narrow:
            needed: dict[str, set[str]] = {relation: set() for relation in relations}
            for relation in relations:
                key = self.db.relation(relation).primary_key
                if key is not None:
                    needed[relation].update(key.columns)
            for condition in self.asg.conditions_in_scope(node):
                for rel, attr in (
                    (condition.rel_a, condition.attr_a),
                    (condition.rel_b, condition.attr_b),
                ):
                    if rel in needed:
                        needed[rel].add(attr)
            columns = [
                OutputColumn(
                    column=attribute,
                    qualifier=relation,
                    label=f"{relation}.{attribute}",
                )
                for relation in relations
                for attribute in sorted(needed[relation])
            ]
        else:
            columns = [
                OutputColumn(
                    column=attribute,
                    qualifier=relation,
                    label=f"{relation}.{attribute}",
                )
                for relation in relations
                for attribute in self.db.relation(relation).attribute_names
            ]
        return SelectPlan(
            from_items=[FromItem(relation) for relation in relations],
            columns=columns,
            where=conjoin(predicates),
            include_rowids=True,
        )

    def run_probe(
        self,
        node: ViewNode,
        resolved: Optional[ResolvedUpdate] = None,
        narrow: bool = False,
    ) -> ProbeResult:
        key: Optional[tuple] = None
        if self.cache is not None:
            key = ProbeCache.context_key(
                node, resolved, narrow, canon=self._literal_signature
            )
            cached = self.cache.get(key)
            if cached is not None:
                return cached
        plan = self.probe_plan(node, resolved, narrow=narrow)
        scanned_before = self.db.stats["rows_scanned"]
        rows = execute_select(self.db, plan)
        probe = ProbeResult(
            sql=plan.to_sql(),
            rows=rows,
            rows_scanned=self.db.stats["rows_scanned"] - scanned_before,
        )
        if self.cache is not None and key is not None:
            self.cache.put(
                key,
                probe,
                frozenset(item.relation_name for item in plan.from_items),
                plan=plan,
                born_seq=self.db.deltas.seq,
            )
        return probe

    def explain_probe(
        self,
        node: ViewNode,
        resolved: Optional[ResolvedUpdate] = None,
        narrow: bool = False,
    ) -> str:
        """The physical operator tree the probe for *node* runs through
        (per-node row estimates included).  Served from the plan cache
        after the probe first compiles, so reading it is cheap.
        """
        from repro.rdb.plan import explain_select

        plan = self.probe_plan(node, resolved, narrow=narrow)
        return explain_select(self.db, plan)

    # ------------------------------------------------------------------
    # delete translation
    # ------------------------------------------------------------------

    def build_deletes(
        self,
        op: OpResolution,
        probe: ProbeResult,
        minimize: bool,
    ) -> tuple[list[TupleDelete], list[str]]:
        """Translate a delete op given its probe rows.

        Returns (deletes, notes).  The primary delete targets the clean
        source; under minimization, other current relations' tuples are
        deleted only when provably unreferenced and not republished.
        """
        node = op.node
        assert node is not None
        subject = node
        while subject.kind not in (NodeKind.INTERNAL, NodeKind.ROOT):
            assert subject.parent is not None
            subject = subject.parent
        source = subject.clean_source
        if source is None:
            raise UFilterError(
                f"no clean source recorded for {subject.node_id} — "
                f"STAR should have rejected this delete"
            )
        notes: list[str] = []
        deletes: list[TupleDelete] = []
        key = f"{source}.ROWID"
        primary_rowids = {row[key] for row in probe.rows if key in row}
        deletes.append(
            TupleDelete(
                relation=source,
                rowids=primary_rowids,
                description=f"delete the clean source tuples of <{subject.name}>",
            )
        )
        if not minimize:
            return deletes, notes

        republished = self._republished_relations(subject)
        for relation in sorted(self.asg.current_relations(subject) - {source}):
            if relation in republished:
                notes.append(
                    f"minimization: keep {relation} tuples — the relation is "
                    f"republished elsewhere in the view"
                )
                continue
            keep, extra = self._deletable_shared_tuples(
                relation, source, primary_rowids, probe
            )
            notes.extend(keep)
            deletes.extend(extra)
        return deletes, notes

    def subtree_internal_nodes(
        self, op: OpResolution
    ) -> tuple[ViewNode, tuple[ViewNode, ...]]:
        """The delete subject plus its internal subtree, TOP first.

        Used by the *expanded* translation mode: one DELETE statement
        per relation of the subtree instead of relying on the engine's
        cascades — the multi-statement shape the paper's Fig. 13/14/17
        experiments execute (and the only correct one under RESTRICT
        foreign keys).  Strategies iterate the levels themselves:
        outside walks top-first and stops at the first empty probe;
        hybrid executes every level (deepest first).
        """
        node = op.node
        assert node is not None
        subject = node
        while subject.kind not in (NodeKind.INTERNAL, NodeKind.ROOT):
            assert subject.parent is not None
            subject = subject.parent
        cached = self._subtrees.get(id(subject))
        if cached is None:
            members = [
                member
                for member in subject.iter_subtree()
                if member.kind is NodeKind.INTERNAL
            ]
            members.sort(key=lambda member: len(list(member.ancestors())))
            cached = self._subtrees[id(subject)] = (subject, tuple(members))
        return subject, cached[1]

    def member_deletes(
        self,
        member: ViewNode,
        subject: ViewNode,
        probe: ProbeResult,
        minimize: bool,
    ) -> tuple[list[TupleDelete], list[str]]:
        """Per-relation deletes for one subtree level, given its probe."""
        deletes: list[TupleDelete] = []
        notes: list[str] = []
        republished = self._republished_relations(subject)
        targets = set(self.asg.current_relations(member))
        if member is subject and subject.clean_source is not None:
            primary: Optional[str] = subject.clean_source
        else:
            primary = member.driving_relation or (
                sorted(targets)[0] if targets else None
            )
        for relation in sorted(targets):
            if relation != primary and minimize and relation in republished:
                notes.append(
                    f"minimization: keep {relation} tuples — republished "
                    f"elsewhere in the view"
                )
                continue
            key = f"{relation}.ROWID"
            rowids = {row[key] for row in probe.rows if key in row}
            deletes.append(
                TupleDelete(
                    relation=relation,
                    rowids=rowids,
                    description=f"expanded delete at <{member.name}>",
                    kind="expanded" if relation != primary else "primary",
                )
            )
        return deletes, notes

    def _republished_relations(self, node: ViewNode) -> frozenset[str]:
        """Relations bound by some internal node outside *node*'s subtree."""
        cached = self._republished.get(id(node))
        if cached is None:
            subtree = {id(member) for member in node.iter_subtree()}
            republished: set[str] = set()
            for other in self.asg.internal_nodes():
                if id(other) in subtree:
                    continue
                republished |= other.uc_binding
            cached = self._republished[id(node)] = (node, frozenset(republished))
        return cached[1]

    def _deletable_shared_tuples(
        self,
        relation: str,
        source: str,
        deleted_rowids: set[int],
        probe: ProbeResult,
    ) -> tuple[list[str], list[TupleDelete]]:
        """Shared tuples are deletable when nothing else references them."""
        notes: list[str] = []
        deletes: list[TupleDelete] = []
        seen: set[int] = set()
        for row in probe.rows:
            rowid = row.get(f"{relation}.ROWID")
            if rowid is None or rowid in seen:
                continue
            seen.add(rowid)
            referenced = False
            for fk in self.db.schema.foreign_keys_into(relation):
                target = self.db.row(relation, rowid)
                key = {
                    column: target[ref_column]
                    for column, ref_column in zip(fk.columns, fk.ref_columns)
                }
                referrers = self.db.find_rowids(fk.relation_name, key)
                if fk.relation_name == source:
                    referrers = referrers - deleted_rowids
                if referrers:
                    referenced = True
                    break
            if referenced:
                notes.append(
                    f"minimization: keep {relation} rowid {rowid} — still "
                    f"referenced after the delete"
                )
            else:
                deletes.append(
                    TupleDelete(
                        relation=relation,
                        rowids={rowid},
                        description=f"minimized delete of unshared {relation} tuple",
                        kind="minimized",
                    )
                )
        return notes, deletes

    # ------------------------------------------------------------------
    # insert translation
    # ------------------------------------------------------------------

    def build_inserts(
        self,
        op: OpResolution,
        context_row: Optional[Row],
    ) -> list[TupleInsert]:
        """Translate an insert op into parent-first tuple inserts."""
        node = op.node
        assert node is not None and op.fragment is not None
        known: dict[tuple[str, str], Any] = {}
        if context_row is not None:
            for key, value in context_row.items():
                if key.endswith(".ROWID"):
                    continue
                relation, attribute = key.split(".", 1)
                known[(relation, attribute)] = value
        tuples: list[TupleInsert] = []
        self._collect_region(node, op.fragment, dict(known), tuples)
        for tuple_insert in tuples:
            self._synthesize_missing_key(tuple_insert)
        return self._order_parent_first(tuples)

    def _synthesize_missing_key(self, insert: TupleInsert) -> None:
        """Generate surrogate key values the view does not publish.

        PSD-style schemas key tuples by ids (feature.fid) that the view
        never exposes; an insert through the view must mint fresh ones,
        the way a production view-update system would use a sequence.
        """
        relation_schema = self.db.relation(insert.relation)
        key = relation_schema.primary_key
        if key is None:
            return
        for column in key.columns:
            if insert.values.get(column) is not None:
                continue
            sql_type = relation_schema.attribute(column).sql_type
            existing = [
                row[column]
                for _, row in self.db.table(insert.relation).scan()
                if row.get(column) is not None
            ]
            from ..rdb.types import Integer

            if isinstance(sql_type, Integer):
                insert.values[column] = (
                    max((v for v in existing if isinstance(v, int)), default=0) + 1
                )
            else:
                counter = len(existing) + 1
                candidate = f"GEN{counter:06d}"
                taken = set(existing)
                while candidate in taken:
                    counter += 1
                    candidate = f"GEN{counter:06d}"
                insert.values[column] = candidate

    def _collect_region(
        self,
        node: ViewNode,
        fragment: XMLElement,
        known: dict[tuple[str, str], Any],
        out: list[TupleInsert],
    ) -> None:
        """One region = one instance of a many-cardinality node."""
        values: dict[tuple[str, str], Any] = {}
        nested: list[tuple[ViewNode, XMLElement]] = []
        self._harvest(node, fragment, values, nested)
        merged = dict(known)
        merged.update(values)
        self._propagate(node, merged)
        region_relations = self.asg.current_relations(node)
        driving = node.driving_relation
        for relation in sorted(region_relations):
            relation_schema = self.db.relation(relation)
            tuple_values = {
                attribute: merged.get((relation, attribute))
                for attribute in relation_schema.attribute_names
            }
            out.append(
                TupleInsert(
                    relation=relation,
                    values=tuple_values,
                    role="driving" if relation == driving else "supporting",
                )
            )
        for child_node, child_fragment in nested:
            self._collect_region(child_node, child_fragment, merged, out)

    def _harvest(
        self,
        node: ViewNode,
        fragment: XMLElement,
        values: dict[tuple[str, str], Any],
        nested: list[tuple[ViewNode, XMLElement]],
    ) -> None:
        """Read leaf values of the flat (cardinality 1/?) region."""
        for child_node in node.children:
            edge = self.asg.edge(node, child_node)
            elements = fragment.child_elements(child_node.name)
            if child_node.kind is NodeKind.TAG:
                if not elements:
                    continue
                leaf = child_node.children[0] if child_node.children else None
                if leaf is None or leaf.kind is not NodeKind.LEAF:
                    continue
                text = elements[0].text_content().strip()
                value: Any = text if text else None
                if value is not None and leaf.sql_type is not None:
                    try:
                        value = leaf.sql_type.coerce(value)
                    except TypeMismatchError:
                        pass
                assert leaf.relation is not None and leaf.attribute is not None
                values[(leaf.relation, leaf.attribute)] = value
            elif child_node.kind is NodeKind.INTERNAL:
                if edge.cardinality.is_many:
                    for element in elements:
                        nested.append((child_node, element))
                elif elements:
                    self._harvest(child_node, elements[0], values, nested)

    def _propagate(
        self, node: ViewNode, values: dict[tuple[str, str], Any]
    ) -> None:
        """Complete missing values through equality join conditions."""
        conditions = [
            condition
            for condition in self.asg.conditions_in_scope(node)
            if condition.op == "="
        ]
        changed = True
        while changed:
            changed = False
            for condition in conditions:
                a = (condition.rel_a, condition.attr_a)
                b = (condition.rel_b, condition.attr_b)
                if values.get(a) is not None and values.get(b) is None:
                    values[b] = values[a]
                    changed = True
                elif values.get(b) is not None and values.get(a) is None:
                    values[a] = values[b]
                    changed = True

    def _order_parent_first(self, tuples: list[TupleInsert]) -> list[TupleInsert]:
        schema = self.db.schema
        ordered: list[TupleInsert] = []
        remaining = list(tuples)
        placed: set[int] = set()
        progress = True
        while remaining and progress:
            progress = False
            for index, candidate in enumerate(list(remaining)):
                parents = {
                    fk.ref_relation
                    for fk in schema.relation(candidate.relation).foreign_keys
                }
                pending_parents = {
                    other.relation
                    for other in remaining
                    if other is not candidate and other.relation in parents
                }
                if not pending_parents:
                    ordered.append(candidate)
                    remaining.remove(candidate)
                    progress = True
        ordered.extend(remaining)  # FK cycles: best-effort order
        return ordered

    # ------------------------------------------------------------------
    # leaf replacement (REPLACE over a simple element)
    # ------------------------------------------------------------------

    def build_leaf_replace(
        self, op: OpResolution, probe: ProbeResult
    ) -> TupleUpdate:
        """Translate ``REPLACE $x/attr WITH <attr>value</attr>``.

        The paper folds replace into delete-then-insert (footnote 4);
        for simple elements the composed effect is a one-attribute SQL
        UPDATE on the tuples the probe located.
        """
        node = op.node
        assert node is not None and op.fragment is not None
        leaf = node
        if leaf.kind is not NodeKind.LEAF:
            for child in node.children:
                if child.kind is NodeKind.LEAF:
                    leaf = child
                    break
        if leaf.kind is not NodeKind.LEAF or leaf.relation is None:
            raise UFilterError(
                f"replace target <{node.name}> is not a simple element"
            )
        text = op.fragment.text_content().strip()
        value: Any = text if text else None
        if value is not None and leaf.sql_type is not None:
            try:
                value = leaf.sql_type.coerce(value)
            except TypeMismatchError:
                pass
        rowids = {
            row[f"{leaf.relation}.ROWID"]
            for row in probe.rows
            if f"{leaf.relation}.ROWID" in row
        }
        assert leaf.attribute is not None
        return TupleUpdate(
            relation=leaf.relation,
            rowids=rowids,
            changes={leaf.attribute: value},
        )

    # ------------------------------------------------------------------
    # point probes (outside strategy)
    # ------------------------------------------------------------------

    def key_probe(self, insert: TupleInsert) -> Optional[ProbeResult]:
        """PQ3-style probe: does the keyed tuple already exist?"""
        relation_schema = self.db.relation(insert.relation)
        key = relation_schema.primary_key
        if key is None:
            return None
        if any(insert.values.get(column) is None for column in key.columns):
            return None
        cache_key: Optional[tuple] = None
        if self.cache is not None:
            cache_key = ProbeCache.key_probe_key(
                insert.relation,
                tuple(
                    self._coerce_literal(
                        insert.relation, column, insert.values[column]
                    )
                    for column in key.columns
                ),
            )
            cached = self.cache.get(cache_key)
            if cached is not None:
                return cached
        predicates = [
            Comparison(
                "=",
                ColumnRef(column, insert.relation),
                Literal(insert.values[column]),
            )
            for column in key.columns
        ]
        plan = SelectPlan(
            from_items=[FromItem(insert.relation)],
            columns=None,
            where=conjoin(predicates),
            include_rowids=True,
        )
        scanned_before = self.db.stats["rows_scanned"]
        rows = execute_select(self.db, plan)
        probe = ProbeResult(
            sql=plan.to_sql(),
            rows=rows,
            rows_scanned=self.db.stats["rows_scanned"] - scanned_before,
        )
        if self.cache is not None and cache_key is not None:
            self.cache.put(
                cache_key,
                probe,
                frozenset({insert.relation}),
                plan=plan,
                born_seq=self.db.deltas.seq,
            )
        return probe
