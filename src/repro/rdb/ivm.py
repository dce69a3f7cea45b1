"""Delta-driven incremental view maintenance for cached probe results.

Sessions used to *invalidate* every cached probe whose relation closure
an applied update touched, then recompute from scratch — under
write-heavy batches the recompute is the dominant cost.  This module
turns invalidation into maintenance:

* :class:`DeltaLog` — a per-database stream of row-level DML events
  (+row / −row / update), recorded by the physical primitives of
  :class:`~repro.rdb.database.Database` right next to the statistics
  hooks.  Savepoint rollbacks coalesce into one
  *bulk* marker per touched relation (exactly like the coalesced
  ``data_versions`` bumps), DDL records a bulk marker through
  ``_bump_schema_version``, and crash recovery discards the log
  outright — the recovery epoch already forces sessions to drop their
  caches.
* :func:`compile_maintenance` — lowers a probe's :class:`SelectPlan`
  into one :class:`DeltaRule` per FROM relation: the conjuncts the
  delta row can be filtered through directly, then a greedy join
  completion over the *other* relations using the same equality
  bindings (:class:`~repro.rdb.optimizer.ConjunctInfo`) the optimizer
  uses, served by ``Database.find_rowids`` index probes.
* :class:`IncrementalView` — a maintained result: a multiset keyed on
  the FROM-order rowid tuple (multiplicity counts, so deletes retract
  correctly through joins and DISTINCT) whose :meth:`render` output is
  byte-identical to re-running the plan — rows are built by the same
  projection the executors use, in the same rowid sort order.

Batch semantics: events apply in log order, and each event's delta
joins against the other relations *as they stood at that event* — the
current end state adjusted by reversing the batch's later events on
those relations.  That is what makes a single drain of a multi-relation
batch (insert a parent, then its child) count each new join result
exactly once.

The caller, :class:`~repro.core.translation.ProbeCache`, routes each
event only to the cached results whose ``rel.col = literal`` guard its
row images can satisfy; an event that fails such a single-relation
conjunct contributes no rows here, because :func:`compile_maintenance`
re-checks that conjunct both in the event's own rule and on its
relation's level of every other rule.

Fallbacks (counted in ``db.stats['ivm_fallbacks']``): bulk markers
(rollback, DDL), plan shapes this compiler does not support
(self-joins, aliases, unqualified column refs), routed deltas larger
than ``db.ivm_threshold``, and any multiplicity the maintained state
cannot absorb (:class:`IvmError` — never wrong results, always a
recompute).
``REPRO_IVM=0`` forces the old invalidate-and-recompute path;
``REPRO_IVM=1`` forces maintenance regardless of the threshold.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional, Sequence

from ..errors import ReproError
from .compiled import dedup_rows
from .expr import Expr
from .optimizer import ConjunctInfo

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .database import Database
    from .plan import SelectPlan

__all__ = [
    "BULK",
    "DELETE",
    "DeltaEvent",
    "DeltaLog",
    "DeltaLevel",
    "DeltaRule",
    "INSERT",
    "IncrementalView",
    "IvmError",
    "MaintenancePlan",
    "UPDATE",
    "compile_maintenance",
    "ivm_forced",
]

Row = dict[str, Any]

#: event kinds
INSERT = "+"
DELETE = "-"
UPDATE = "~"
#: coarse marker: "this relation changed in a way the log did not
#: track row by row" (rollback replay, DDL, log overflow) — maintained
#: results over it must fall back to recompute
BULK = "!"


class IvmError(ReproError):
    """Maintenance cannot proceed (the caller falls back to recompute)."""


def ivm_forced() -> Optional[bool]:
    """The ``REPRO_IVM`` override: None (threshold-driven policy),
    False (``"0"``: force invalidate-and-recompute) or True (force
    maintenance regardless of ``db.ivm_threshold``)."""
    value = os.environ.get("REPRO_IVM", "")
    if value == "":
        return None
    return value != "0"


# ---------------------------------------------------------------------------
# the delta log
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DeltaEvent:
    """One row-level change (or a bulk marker) on one relation."""

    seq: int
    relation: str
    kind: str           # INSERT / DELETE / UPDATE / BULK
    rowid: int
    old: Optional[Row]  # pre-image (DELETE / UPDATE)
    new: Optional[Row]  # post-image (INSERT / UPDATE)

    def images(self) -> list[tuple[int, Row]]:
        """The signed delta rows of this event.

        An update retracts its pre-image before asserting its
        post-image, so a maintained multiset never sees the same rowid
        tuple twice at once.
        """
        if self.kind == INSERT:
            assert self.new is not None
            return [(1, self.new)]
        if self.kind == DELETE:
            assert self.old is not None
            return [(-1, self.old)]
        if self.kind == UPDATE:
            assert self.old is not None and self.new is not None
            return [(-1, self.old), (1, self.new)]
        raise IvmError(f"bulk markers carry no row images ({self.relation})")


class DeltaLog:
    """The per-database DML event stream feeding maintained probes.

    Recording is off until a session opts in (:meth:`enable`) — loads
    and engine-only workloads pay nothing.  ``seq`` is monotonic for
    the life of the database and never resets on :meth:`take`, so a
    cached result can remember the sequence point it was computed at
    and apply exactly the events after it.
    """

    __slots__ = ("events", "seq", "enabled", "capacity")

    def __init__(self, capacity: int = 20000) -> None:
        self.events: list[DeltaEvent] = []
        self.seq = 0
        self.enabled = False
        #: undrained events beyond this collapse into bulk markers —
        #: an unattended log degrades to coarse invalidation instead
        #: of growing without bound
        self.capacity = capacity

    def enable(self) -> None:
        self.enabled = True

    def record_insert(self, relation: str, rowid: int, row: Row) -> None:
        self._append(relation, INSERT, rowid, None, dict(row))

    def record_delete(self, relation: str, rowid: int, old: Row) -> None:
        self._append(relation, DELETE, rowid, dict(old), None)

    def record_update(
        self, relation: str, rowid: int, old: Row, new: Row
    ) -> None:
        self._append(relation, UPDATE, rowid, dict(old), dict(new))

    def record_bulk(self, relation: str) -> None:
        self._append(relation, BULK, 0, None, None)

    def _append(
        self,
        relation: str,
        kind: str,
        rowid: int,
        old: Optional[Row],
        new: Optional[Row],
    ) -> None:
        if len(self.events) >= self.capacity:
            # overflow: the detail is gone, the coarse fact remains —
            # markers inherit the current seq so every result computed
            # before them still sees them as "after me"
            relations = sorted({event.relation for event in self.events})
            self.events = [
                DeltaEvent(self.seq, name, BULK, 0, None, None)
                for name in relations
            ]
        self.seq += 1
        self.events.append(DeltaEvent(self.seq, relation, kind, rowid, old, new))

    def take(self) -> list[DeltaEvent]:
        """Drain the pending events (``seq`` keeps counting)."""
        events, self.events = self.events, []
        return events

    def __len__(self) -> int:
        return len(self.events)


# ---------------------------------------------------------------------------
# the maintenance compiler
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DeltaLevel:
    """One join-completion step against an untouched relation.

    ``bindings`` are the equality conjuncts that pin columns of this
    relation to already-bound values — served by an index probe through
    ``Database.find_rowids`` when one covers them.  Every conjunct
    assigned to the level (binding or residual) is re-checked on each
    candidate row, so duplicate bindings and SQL NULL semantics cost
    nothing extra to get right.
    """

    relation: str
    #: (column, value expression, original conjunct)
    bindings: tuple[tuple[str, Expr, Expr], ...]
    residuals: tuple[Expr, ...]

    def predicates(self) -> list[Expr]:
        return [expr for _, _, expr in self.bindings] + list(self.residuals)


@dataclass(frozen=True)
class DeltaRule:
    """How a delta row of one relation propagates into the result."""

    relation: str
    #: conjuncts referencing only the delta relation (or no relation):
    #: the delta row filters through these before any join work
    own: tuple[Expr, ...]
    #: join completion over the other FROM relations, in greedy
    #: binding-first order
    levels: tuple[DeltaLevel, ...]


@dataclass(frozen=True)
class MaintenancePlan:
    """A probe plan lowered into per-relation delta rules."""

    plan: "SelectPlan"
    names: tuple[str, ...]
    rules: dict[str, DeltaRule]

    def delta_for_event(
        self,
        db: "Database",
        event: DeltaEvent,
        later: Sequence[DeltaEvent],
    ) -> list[tuple[tuple, Row, int]]:
        """The signed result rows *event* contributes.

        *later* holds the remaining events of the batch being applied:
        join completion targets each other relation's state *at the
        event*, i.e. the current end state with those later events
        reversed.
        """
        from .plan import _project

        rule = self.rules[event.relation]
        out: list[tuple[tuple, Row, int]] = []
        for sign, image in event.images():
            env: dict[str, Row] = {event.relation: image}
            if not all(conjunct.eval(env) is True for conjunct in rule.own):
                continue
            rowids = {event.relation: event.rowid}

            def complete(index: int, multiplier: int) -> None:
                if index == len(rule.levels):
                    ordered_env = {name: env[name] for name in self.names}
                    ordered_ids = {name: rowids[name] for name in self.names}
                    key = tuple(ordered_ids[name] for name in self.names)
                    row = _project(db, self.plan, ordered_env, ordered_ids)
                    out.append((key, row, multiplier))
                    return
                level = rule.levels[index]
                for rowid, row in _candidates(db, level, env, later):
                    env[level.relation] = row
                    rowids[level.relation] = rowid
                    complete(index + 1, multiplier)
                    del env[level.relation]
                    del rowids[level.relation]

            complete(0, sign)
        return out


def _candidates(
    db: "Database",
    level: DeltaLevel,
    env: dict[str, Row],
    later: Sequence[DeltaEvent],
) -> list[tuple[int, Row]]:
    """Candidate rows of *level*'s relation as it stood at the event
    being propagated.

    The end state provides the base (index-probed via the bindings when
    possible); the batch's later events on this relation are then
    unwound latest-first over a rowid-keyed dict — a row inserted later
    was not there yet, a row deleted or updated later still showed its
    pre-image.  Keying on rowid makes opposing later events on the same
    row net out instead of surfacing as two signed images (a delete
    re-asserting a key another event already retracted would otherwise
    trip the multiplicity check).
    """
    eq: dict[str, Any] = {}
    for column, value_expr, _ in level.bindings:
        if column not in eq:
            eq[column] = value_expr.eval(env)
    table = db.table(level.relation)
    state: dict[int, Row] = {}
    if level.bindings:
        if any(value is None for value in eq.values()):
            base: Sequence[int] = ()  # SQL '=': NULL matches nothing
        else:
            base = sorted(db.find_rowids(level.relation, eq))
        for rowid in base:
            if rowid in table:
                state[rowid] = table.get(rowid)
    else:
        for rowid, row in table.scan():
            state[rowid] = row
    # later events on rows outside the index-probed base still unwind:
    # the predicates re-check every candidate, so over-approximating
    # the base never admits a wrong row
    for event in reversed(later):
        if event.relation != level.relation or event.kind == BULK:
            continue
        if event.old is not None:
            state[event.rowid] = event.old
        else:
            state.pop(event.rowid, None)
    predicates = level.predicates()
    matched: list[tuple[int, Row]] = []
    for rowid in sorted(state):
        row = state[rowid]
        db.stats["rows_scanned"] += 1
        env[level.relation] = row
        satisfied = all(p.eval(env) is True for p in predicates)
        del env[level.relation]
        if satisfied:
            matched.append((rowid, row))
    return matched


def compile_maintenance(
    db: "Database", plan: "SelectPlan"
) -> Optional[MaintenancePlan]:
    """Lower *plan* into per-relation delta rules, or ``None`` when the
    shape is unsupported (the caller falls back to recompute).

    Unsupported: aliases and self-joins (delta events are keyed by
    relation name, which must identify the FROM item), unqualified
    column references, and unknown relations.
    """
    names = tuple(item.name for item in plan.from_items)
    if not names or len(set(names)) != len(names):
        return None
    for item in plan.from_items:
        if item.alias is not None and item.alias != item.relation_name:
            return None
        if item.relation_name not in db.tables:
            return None
    conjuncts = plan.where.conjuncts() if plan.where is not None else []
    infos = [ConjunctInfo(conjunct) for conjunct in conjuncts]
    name_set = set(names)
    for info in infos:
        if not info.qualified_only or not info.qualifiers <= name_set:
            return None
    rules: dict[str, DeltaRule] = {}
    for delta_name in names:
        own = tuple(
            info.expr for info in infos if info.qualifiers <= {delta_name}
        )
        pending = [
            info for info in infos if not (info.qualifiers <= {delta_name})
        ]
        bound = {delta_name}
        remaining = [name for name in names if name != delta_name]
        levels: list[DeltaLevel] = []
        while remaining:
            pick = next(
                (
                    name for name in remaining
                    if any(
                        info.binding_for(name, bound) is not None
                        for info in pending
                    )
                ),
                remaining[0],
            )
            newly = bound | {pick}
            bindings: list[tuple[str, Expr, Expr]] = []
            residuals: list[Expr] = []
            still: list[ConjunctInfo] = []
            for info in pending:
                binding = info.binding_for(pick, bound)
                if binding is not None:
                    bindings.append((binding[0], binding[1], info.expr))
                elif info.qualifiers <= newly:
                    residuals.append(info.expr)
                else:
                    still.append(info)
            pending = still
            levels.append(
                DeltaLevel(pick, tuple(bindings), tuple(residuals))
            )
            bound = newly
            remaining.remove(pick)
        if pending:  # every conjunct is qualified over names; unreachable
            return None
        rules[delta_name] = DeltaRule(delta_name, own, tuple(levels))
    mplan = MaintenancePlan(plan=plan, names=names, rules=rules)
    from ..analysis.planlint import plan_verify_enabled, verify_maintenance_or_raise

    if plan_verify_enabled():
        verify_maintenance_or_raise(db, mplan)
    return mplan


# ---------------------------------------------------------------------------
# the maintained result
# ---------------------------------------------------------------------------

class IncrementalView:
    """A query result kept current by applying deltas instead of
    re-running the plan.

    State is a multiset keyed on the FROM-order rowid tuple of each
    join result.  Because every key identifies one base-tuple
    combination, a live key always has multiplicity one — signed deltas
    either add a new combination or retract an existing one, and
    anything else raises :class:`IvmError` (the caller recomputes).
    :meth:`render` reproduces the executors' output exactly: rows
    sorted by that rowid tuple, deduplicated when the plan is DISTINCT.
    """

    def __init__(
        self, mplan: MaintenancePlan, state: dict[tuple, Row], born_seq: int
    ) -> None:
        self.mplan = mplan
        self.plan = mplan.plan
        self.relations = frozenset(mplan.names)
        self._state = state
        self.born_seq = born_seq

    # -- construction --------------------------------------------------

    @classmethod
    def build(
        cls,
        db: "Database",
        plan: "SelectPlan",
        rows: Optional[Sequence[Row]] = None,
        born_seq: Optional[int] = None,
    ) -> Optional["IncrementalView"]:
        """A maintained view over *plan*, or ``None`` when the shape is
        unsupported.

        *rows* seeds the state from an already-computed result (its
        rows must carry rowids and the plan must not be DISTINCT —
        deduplicated rows have lost derivations a retraction could
        expose); *born_seq* is the log position that result reflects.
        Without *rows*, the state is seeded by running the plan now.
        """
        mplan = compile_maintenance(db, plan)
        if mplan is None:
            return None
        if rows is not None and not plan.distinct:
            state = cls._state_from_rows(plan, mplan.names, rows)
            if state is not None:
                seq = born_seq if born_seq is not None else db.deltas.seq
                return cls(mplan, state, seq)
        return cls._build_by_query(db, mplan)

    @staticmethod
    def _state_from_rows(
        plan: "SelectPlan", names: tuple[str, ...], rows: Sequence[Row]
    ) -> Optional[dict[tuple, Row]]:
        state: dict[tuple, Row] = {}
        for row in rows:
            if plan.select_rowids and len(names) == 1:
                key = (row.get("ROWID"),)
            else:
                key = tuple(row.get(f"{name}.ROWID") for name in names)
            if any(rowid is None for rowid in key):
                return None  # rowids not in the output: cannot seed
            if key in state:
                raise IvmError(f"duplicate rowid tuple {key} in seed rows")
            state[key] = row
        return state

    @classmethod
    def _build_by_query(
        cls, db: "Database", mplan: MaintenancePlan
    ) -> "IncrementalView":
        from .plan import SelectPlan, execute_select

        plan = mplan.plan
        born_seq = db.deltas.seq
        shadow = SelectPlan(
            from_items=plan.from_items,
            columns=plan.columns,
            where=plan.where,
            include_rowids=True,
        )
        state: dict[tuple, Row] = {}
        for row in execute_select(db, shadow):
            key = tuple(row[f"{name}.ROWID"] for name in mplan.names)
            if plan.select_rowids:
                if len(mplan.names) == 1:
                    stored: Row = {"ROWID": key[0]}
                else:
                    stored = {
                        f"{name}.ROWID": rowid
                        for name, rowid in zip(mplan.names, key)
                    }
            elif plan.include_rowids:
                stored = row
            else:
                added = {f"{name}.ROWID" for name in mplan.names}
                stored = {k: v for k, v in row.items() if k not in added}
            if key in state:
                raise IvmError(f"duplicate rowid tuple {key} seeding view")
            state[key] = stored
        return cls(mplan, state, born_seq)

    # -- maintenance ---------------------------------------------------

    def apply(
        self, db: "Database", events: Sequence[DeltaEvent]
    ) -> Optional[int]:
        """Stream *events* into the state.

        Returns the number of delta rows absorbed, or ``None`` when a
        bulk marker makes maintenance impossible (the caller must
        recompute).  Raises :class:`IvmError` if the deltas disagree
        with the maintained state — same remedy.
        """
        relevant = [
            event for event in events
            if event.relation in self.relations and event.seq > self.born_seq
        ]
        if any(event.kind == BULK for event in relevant):
            return None
        absorbed = 0
        for position, event in enumerate(relevant):
            later = relevant[position + 1:]
            for key, row, mult in self.mplan.delta_for_event(db, event, later):
                if mult == 1:
                    if key in self._state:
                        raise IvmError(
                            f"delta asserts live rowid tuple {key}"
                        )
                    self._state[key] = row
                elif mult == -1:
                    if key not in self._state:
                        raise IvmError(
                            f"delta retracts absent rowid tuple {key}"
                        )
                    del self._state[key]
                elif mult != 0:
                    raise IvmError(f"multiplicity {mult} at {key}")
            absorbed += 2 if event.kind == UPDATE else 1
        if relevant:
            self.born_seq = relevant[-1].seq
        return absorbed

    def render(self) -> list[Row]:
        """The plan's current result, byte-identical to re-running it."""
        rows = [self._state[key] for key in sorted(self._state)]
        if self.plan.distinct:
            rows = dedup_rows(rows)
        return rows

    def __len__(self) -> int:
        return len(self._state)
