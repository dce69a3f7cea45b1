"""The unified plan IR: one lowering pipeline for every query path.

Every query the engine runs — ``execute_select``'s join probes,
``Database.find_rowids``'s equality lookups, ``Database.select_rowids``'s
single-relation predicates — lowers through the same three stages:

1. **Logical plan** (:class:`LogicalPlan`) — the :class:`SelectPlan` (or
   rowid-path equivalent) normalized into FROM items plus a canonically
   ordered conjunct list.  Its literal-agnostic :attr:`LogicalPlan.signature`
   keys the plan cache, so two queries that differ only in literal values
   (or in conjunct order) share one compiled artifact.
2. **Physical plan** (:class:`PlanNode` trees) — ``lower_select`` asks the
   optimizer's DP enumerator (:func:`repro.rdb.optimizer.enumerate_joins`)
   for a bushy join tree costed from the statistics subsystem, then
   assigns every conjunct to the lowest operator that can evaluate it:
   :class:`IndexProbe` keys, :class:`HashJoin` keys, :class:`Filter`
   predicates, or root residuals.  :class:`Sort` pins the output to the
   rowid order of the original FROM clause and :class:`Project` /
   :class:`Distinct` shape the rows, so the chosen join order never
   changes what callers observe.  ``PlanNode.explain()`` renders the tree
   with per-node row estimates.
3. **Compiled execution** (:mod:`repro.rdb.compiled`) — the physical tree
   compiles once into nested closures; literals travel in a parameter
   vector extracted per call in the logical plan's canonical order.

SQL NULL semantics are defined once, here, in the predicate lowering:
equality keys never match NULL (index and hash probes with a NULL
component find nothing, and compiled comparisons return *unknown*), so a
NULL-valued probe matches nothing on every path — scan, index or hash.

Plans the compiler does not understand — and every call with
``optimize=False`` — run on the interpreted nested-loop executor at the
bottom of this module, which survives solely as the semantic oracle for
tests and benchmarks.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional, Sequence

from ..errors import SchemaError
from .compiled import CompiledPlan, compile_tree, dedup_rows
from .expr import ColumnRef, Comparison, Expr, IsNull, Literal, conjoin
from .optimizer import (
    ConjunctInfo,
    JoinTree,
    applicable as _applicable,
    binding_equalities as _binding_equalities,
    choose_index as _choose_index,
    enumerate_joins,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (database -> plan)
    from .database import Database
    from .index import HashIndex

__all__ = [
    "Distinct",
    "Filter",
    "FromItem",
    "HashJoin",
    "IndexProbe",
    "LogicalPlan",
    "NestedLoopJoin",
    "OutputColumn",
    "PlanNode",
    "Project",
    "Scan",
    "SelectPlan",
    "Sort",
    "dedup_rows",
    "execute_select",
    "explain_select",
    "lower_rowid_plan",
    "lower_select",
]

Row = dict[str, Any]


@dataclass(frozen=True)
class FromItem:
    """One entry of the FROM clause: a relation with an optional alias."""

    relation_name: str
    alias: Optional[str] = None

    @property
    def name(self) -> str:
        return self.alias or self.relation_name


@dataclass(frozen=True)
class OutputColumn:
    """One entry of the SELECT list."""

    column: str
    qualifier: Optional[str] = None
    #: output name; defaults to the column name
    label: Optional[str] = None

    @property
    def output_name(self) -> str:
        return self.label or self.column


@dataclass
class SelectPlan:
    """A select-project-join query (no aggregates).

    ``columns=None`` means ``SELECT *`` (all columns of all FROM items,
    qualified names used on collisions).
    """

    from_items: list[FromItem]
    columns: Optional[list[OutputColumn]] = None
    where: Optional[Expr] = None
    #: special ROWID projection support (the paper's PQ4 selects ROWID)
    select_rowids: bool = False
    #: add "<alias>.ROWID" entries next to the projected columns —
    #: probe queries use this to feed translated DELETE statements
    include_rowids: bool = False
    #: SELECT DISTINCT — lowered to a :class:`Distinct` operator
    distinct: bool = False

    def to_sql(self) -> str:
        if self.select_rowids:
            select_list = "ROWID"
        elif self.columns is None:
            select_list = "*"
        else:
            parts = []
            for column in self.columns:
                text = (
                    f"{column.qualifier}.{column.column}"
                    if column.qualifier
                    else column.column
                )
                if column.label and column.label != column.column:
                    text += f" AS {column.label}"
                parts.append(text)
            select_list = ", ".join(parts)
        if self.distinct:
            select_list = f"DISTINCT {select_list}"
        from_list = ", ".join(
            f"{item.relation_name} {item.alias}" if item.alias else item.relation_name
            for item in self.from_items
        )
        sql = f"SELECT {select_list} FROM {from_list}"
        if self.where is not None:
            sql += f" WHERE {self.where.to_sql()}"
        return sql

    def explain(self, db: Database) -> str:
        """The physical operator tree this plan lowers to (rendered)."""
        return explain_select(db, self)


# ---------------------------------------------------------------------------
# logical plan: canonical conjuncts + literal-agnostic signature
# ---------------------------------------------------------------------------

class LogicalPlan:
    """A :class:`SelectPlan` normalized for the planning pipeline.

    Conjuncts are held in a canonical order (stable sort on their
    structural signatures), so plans that differ only in conjunct order
    — or only in literal values — share one :attr:`signature` and
    therefore one plan-cache entry and one compiled artifact.
    :meth:`parameters` extracts the runtime values in the same canonical
    order, which is the slot order the compiler assigns.
    """

    __slots__ = ("plan", "conjuncts", "signature")

    def __init__(
        self, plan: SelectPlan, conjuncts: list[Expr], signature: tuple
    ) -> None:
        self.plan = plan
        self.conjuncts = conjuncts
        self.signature = signature

    @classmethod
    def build(cls, plan: SelectPlan) -> Optional["LogicalPlan"]:
        """Normalize *plan*; None when some conjunct has no structural
        signature (the shape must run interpreted and is not cached)."""
        raw = plan.where.conjuncts() if plan.where is not None else []
        signatures = []
        for conjunct in raw:
            signature = conjunct.signature()
            if signature is None:
                return None
            signatures.append(signature)
        if len(raw) > 1:
            # repr() gives a total order over heterogeneous signature
            # tuples (None vs str components don't compare directly)
            order = sorted(
                range(len(raw)), key=lambda i: (repr(signatures[i]), i)
            )
        else:
            order = range(len(raw))
        conjuncts = [raw[i] for i in order]
        if plan.columns is None:
            columns_part: Optional[tuple] = None
        else:
            columns_part = tuple(
                (column.column, column.qualifier, column.label)
                for column in plan.columns
            )
        signature = (
            tuple((item.relation_name, item.alias) for item in plan.from_items),
            columns_part,
            tuple(signatures[i] for i in order),
            plan.select_rowids,
            plan.include_rowids,
            plan.distinct,
        )
        return cls(plan, conjuncts, signature)

    def parameters(self) -> tuple:
        """Runtime values (literals, IN sets) in canonical slot order."""
        out: list = []
        for conjunct in self.conjuncts:
            conjunct.collect_parameters(out)
        return tuple(out)


# ---------------------------------------------------------------------------
# physical plan IR
# ---------------------------------------------------------------------------

def _shape_sql(expr: Expr) -> str:
    """Render *expr* with literals abstracted to ``?`` — compiled plans
    are literal-agnostic, so explain output must not pin one binding."""
    if isinstance(expr, Literal):
        return "?"
    if isinstance(expr, Comparison):
        return f"{_shape_sql(expr.left)} {expr.op} {_shape_sql(expr.right)}"
    if isinstance(expr, IsNull):
        suffix = "IS NOT NULL" if expr.negate else "IS NULL"
        return f"{_shape_sql(expr.operand)} {suffix}"
    return expr.to_sql()


class PlanNode:
    """Base of the physical operator tree.

    Every node carries ``estimated_rows`` — the optimizer's output-size
    estimate at planning time — surfaced by :meth:`explain`.  ``kind``
    is the compiler's dispatch tag (:mod:`repro.rdb.compiled` compiles
    trees without importing the node classes back).
    """

    kind = "node"
    estimated_rows: float = 0.0

    def children(self) -> tuple["PlanNode", ...]:
        return ()

    def label(self) -> str:  # pragma: no cover - overridden everywhere
        return type(self).__name__

    def explain(self) -> str:
        """Indented operator tree with per-node row estimates."""
        lines: list[str] = []

        def render(node: "PlanNode", depth: int) -> None:
            lines.append("  " * depth + node.label())
            for child in node.children():
                render(child, depth + 1)

        render(self, 0)
        return "\n".join(lines)

    def _est(self) -> str:
        return f"(est. {self.estimated_rows:g} rows)"


class Scan(PlanNode):
    """Full scan of one relation, binding its rows to *name*."""

    kind = "scan"

    def __init__(self, name: str, relation_name: str) -> None:
        self.name = name
        self.relation_name = relation_name

    def label(self) -> str:
        alias = "" if self.name == self.relation_name else f" AS {self.name}"
        return f"Scan {self.relation_name}{alias} {self._est()}"


class IndexProbe(PlanNode):
    """One index lookup per activation, keys evaluated against the
    already-bound outer relations (or the parameter vector).

    ``keys`` holds ``(conjunct, value_expr)`` pairs aligned with
    ``index.columns`` — the compiler reuses the conjunct's compiled side
    closures, so parameter slots stay aligned with the logical plan.
    A NULL key component matches nothing (SQL equality).
    """

    kind = "index_probe"

    def __init__(
        self,
        name: str,
        relation_name: str,
        index: "HashIndex",
        keys: tuple,
    ) -> None:
        self.name = name
        self.relation_name = relation_name
        self.index = index
        self.keys = keys

    def label(self) -> str:
        rendered = ", ".join(
            f"{column} = {_shape_sql(value)}"
            for column, (_conjunct, value) in zip(self.index.columns, self.keys)
        )
        return (
            f"IndexProbe {self.relation_name} via {self.index.name} "
            f"[{rendered}] {self._est()}"
        )


class Filter(PlanNode):
    """Residual predicates applied at the lowest point they are bound."""

    kind = "filter"

    def __init__(self, child: PlanNode, predicates: tuple) -> None:
        self.child = child
        self.predicates = predicates
        self.estimated_rows = child.estimated_rows

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def label(self) -> str:
        rendered = " AND ".join(_shape_sql(p) for p in self.predicates)
        return f"Filter [{rendered}] {self._est()}"


class NestedLoopJoin(PlanNode):
    """Re-run *inner* for every row the *outer* side emits."""

    kind = "nested_loop"

    def __init__(self, outer: PlanNode, inner: PlanNode) -> None:
        self.outer = outer
        self.inner = inner

    def children(self) -> tuple[PlanNode, ...]:
        return (self.outer, self.inner)

    def label(self) -> str:
        return f"NestedLoopJoin {self._est()}"


class HashJoin(PlanNode):
    """Build a transient hash table over *inner* once, probe per outer row.

    ``keys`` holds ``(conjunct, outer_expr, inner_expr)`` triples; rows
    whose inner key has a NULL component are never added to the build,
    and NULL probe keys find nothing (SQL equality).
    """

    kind = "hash_join"

    def __init__(self, outer: PlanNode, inner: PlanNode, keys: tuple) -> None:
        self.outer = outer
        self.inner = inner
        self.keys = keys

    def children(self) -> tuple[PlanNode, ...]:
        return (self.outer, self.inner)

    def label(self) -> str:
        rendered = " AND ".join(
            f"{_shape_sql(outer)} = {_shape_sql(inner)}"
            for _conjunct, outer, inner in self.keys
        )
        return f"HashJoin [{rendered}] {self._est()}"


class Sort(PlanNode):
    """Order the output on the rowid tuple of the original FROM clause,
    so results are independent of the join order chosen."""

    kind = "sort"

    def __init__(self, child: PlanNode, names: tuple[str, ...]) -> None:
        self.child = child
        self.names = names
        self.estimated_rows = child.estimated_rows

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def label(self) -> str:
        return f"Sort [rowid order: {', '.join(self.names)}] {self._est()}"


class Project(PlanNode):
    """Shape the output rows.

    ``mode`` is ``"star"`` (all columns, qualified on collisions),
    ``"columns"`` (an explicit SELECT list), ``"rowids"`` (the ROWID
    dictionaries probe queries ask for) or ``"rowid_list"`` (bare rowid
    integers — the ``find_rowids`` / ``select_rowids`` output).
    """

    kind = "project"

    def __init__(
        self,
        child: PlanNode,
        mode: str,
        from_items: Sequence[FromItem],
        columns: Optional[list[OutputColumn]] = None,
        include_rowids: bool = False,
    ) -> None:
        self.child = child
        self.mode = mode
        self.from_items = list(from_items)
        self.columns = columns
        self.include_rowids = include_rowids
        self.estimated_rows = child.estimated_rows

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def label(self) -> str:
        if self.mode == "star":
            what = "*"
        elif self.mode == "columns":
            what = ", ".join(column.output_name for column in self.columns)
        elif self.mode == "rowids":
            what = "ROWID"
        else:
            what = "rowid list"
        suffix = " +rowids" if self.include_rowids else ""
        return f"Project [{what}]{suffix} {self._est()}"


class Distinct(PlanNode):
    """Drop duplicate projected rows, keeping first occurrences."""

    kind = "distinct"

    def __init__(self, child: PlanNode) -> None:
        self.child = child
        self.estimated_rows = child.estimated_rows

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def label(self) -> str:
        return f"Distinct {self._est()}"


# ---------------------------------------------------------------------------
# lowering: logical plan -> physical operator tree
# ---------------------------------------------------------------------------

class _Lowering:
    """Tracks which conjuncts the tree walk has already assigned."""

    def __init__(self, db: Database, conjuncts: Sequence[Expr]) -> None:
        self.db = db
        self.infos = [ConjunctInfo(conjunct) for conjunct in conjuncts]
        self.consumed: set[int] = set()

    # -- conjunct bookkeeping -------------------------------------------------

    def _bindings(self, target: str, bound: set[str]) -> list[tuple]:
        """Equality bindings for *target*: (column, info, value_expr),
        first conjunct per column (mirrors the estimator)."""
        seen: set[str] = set()
        out = []
        for info in self.infos:
            if id(info) in self.consumed:
                continue
            binding = info.binding_for(target, bound)
            if binding is not None and binding[0] not in seen:
                seen.add(binding[0])
                out.append((binding[0], info, binding[1]))
        return out

    def _take_applicable(
        self, bound_after: set[str], already: set[frozenset]
    ) -> list[Expr]:
        """Consume conjuncts that become evaluable at *bound_after* but
        were not evaluable at any of the *already*-bound subsets."""
        taken: list[Expr] = []
        for info in self.infos:
            if id(info) in self.consumed or not info.qualified_only:
                continue
            if not (info.qualifiers <= bound_after):
                continue
            if any(info.qualifiers <= prior for prior in already):
                continue  # pragma: no cover - subtree walks consume first
            self.consumed.add(id(info))
            taken.append(info.expr)
        return taken

    def residual(self) -> list[Expr]:
        """Everything never assigned (e.g. unqualified references)."""
        out = []
        for info in self.infos:
            if id(info) not in self.consumed:
                self.consumed.add(id(info))
                out.append(info.expr)
        return out

    # -- access paths ---------------------------------------------------------

    @staticmethod
    def _inner_ref(info: ConjunctInfo, value_expr: Expr) -> Expr:
        """The target-side expression of a binding's conjunct."""
        expr = info.expr
        return expr.right if value_expr is expr.left else expr.left

    def _access_decision(
        self, item: FromItem, bound: set[str]
    ) -> tuple[list[tuple], Optional[Any]]:
        """The (bindings, covering index) pair for opening *item* —
        derived once, shared by the branch decision and the node build."""
        bindings = self._bindings(item.name, bound)
        index = (
            _choose_index(self.db, item.relation_name, {b[0] for b in bindings})
            if bindings
            else None
        )
        return bindings, index

    def access(
        self,
        item: FromItem,
        bound: set[str],
        est_rows: float,
        decision: Optional[tuple] = None,
    ) -> PlanNode:
        """Open *item* given the *bound* outer names: an
        :class:`IndexProbe` when the equality bindings pin an index, a
        :class:`HashJoin` build candidate or plain :class:`Scan`
        otherwise (the join wrapper is the caller's decision), with the
        relation's own predicates attached as a :class:`Filter`.
        *decision* carries a precomputed :meth:`_access_decision` so a
        caller that already branched on it never re-derives it."""
        target = item.name
        bindings, index = (
            decision if decision is not None
            else self._access_decision(item, bound)
        )
        node: PlanNode
        if index is not None:
            by_column = {column: (info, value) for column, info, value in bindings}
            keys = []
            for column in index.columns:
                info, value = by_column[column]
                self.consumed.add(id(info))
                keys.append((info.expr, value))
            node = IndexProbe(target, item.relation_name, index, tuple(keys))
        else:
            node = Scan(target, item.relation_name)
        node.estimated_rows = est_rows
        own = self._take_applicable({target}, already=set())
        if own:
            node = Filter(node, tuple(own))
            node.estimated_rows = est_rows
        return node

    def hash_keys(
        self, target_names: frozenset, bound: set[str]
    ) -> tuple:
        """Consume the equality conjuncts joining *bound* (or literals)
        to the *target_names* subtree; returns HashJoin key triples."""
        keys = []
        for info in self.infos:
            if id(info) in self.consumed:
                continue
            for qualifier, _column, value_expr, value_qualifier in info.eq_sides:
                if qualifier not in target_names:
                    continue
                if value_qualifier is not None and value_qualifier not in bound:
                    continue
                self.consumed.add(id(info))
                keys.append(
                    (info.expr, value_expr, self._inner_ref(info, value_expr))
                )
                break
        return tuple(keys)

    # -- tree walk ------------------------------------------------------------

    def lower_join(
        self, tree: JoinTree, from_items: Sequence[FromItem]
    ) -> tuple[PlanNode, set[str]]:
        if tree.is_leaf:
            node = self.access(tree.item, set(), tree.est_rows)
            return node, {tree.item.name}
        outer_node, outer_names = self.lower_join(tree.outer, from_items)
        if tree.inner.is_leaf:
            item = tree.inner.item
            target = item.name
            # what the DP priced for one instantiation of this inner —
            # the leaf's own est_rows is its standalone estimate
            inner_est = (
                tree.inner_emitted
                if tree.inner_emitted is not None
                else tree.inner.est_rows
            )
            bindings, index = self._access_decision(item, outer_names)
            if index is not None:
                inner_node = self.access(
                    item, outer_names, inner_est,
                    decision=(bindings, index),
                )
                node: PlanNode = NestedLoopJoin(outer_node, inner_node)
            elif bindings:
                # build side: the leaf with its own predicates applied
                # during the (single) build pass
                inner_node = self.access(item, set(), inner_est)
                keys = self.hash_keys(frozenset((target,)), outer_names)
                node = HashJoin(outer_node, inner_node, keys)
            else:
                inner_node = self.access(item, set(), inner_est)
                node = NestedLoopJoin(outer_node, inner_node)
            inner_names = {target}
        else:
            inner_node, inner_names = self.lower_join(tree.inner, from_items)
            keys = self.hash_keys(frozenset(inner_names), outer_names)
            node = HashJoin(outer_node, inner_node, keys)
        node.estimated_rows = tree.est_rows
        bound_after = outer_names | inner_names
        newly = self._take_applicable(
            bound_after, already={frozenset(outer_names), frozenset(inner_names)}
        )
        if newly:
            node = Filter(node, tuple(newly))
            node.estimated_rows = tree.est_rows
        return node, bound_after


def lower_select(db: Database, logical: LogicalPlan) -> tuple[PlanNode, JoinTree]:
    """Logical plan → physical operator tree (plus the join tree the
    enumerator chose, for the caller's bushy/reorder accounting)."""
    plan = logical.plan
    tree = enumerate_joins(db, plan.from_items, logical.conjuncts)
    lowering = _Lowering(db, logical.conjuncts)
    node, _bound = lowering.lower_join(tree, plan.from_items)
    residual = lowering.residual()
    if residual:
        node = Filter(node, tuple(residual))
        node.estimated_rows = tree.est_rows
    node = Sort(node, tuple(item.name for item in plan.from_items))
    if plan.select_rowids:
        mode = "rowids"
    elif plan.columns is None:
        mode = "star"
    else:
        mode = "columns"
    node = Project(
        node, mode, plan.from_items, plan.columns, plan.include_rowids
    )
    if plan.distinct:
        node = Distinct(node)
    _verify_lowered(db, node, tuple(item.name for item in plan.from_items))
    return node, tree


def lower_rowid_plan(
    db: Database, relation_name: str, conjuncts: Sequence[Expr]
) -> PlanNode:
    """The single-relation rowid paths' lowering: same IR, same NULL
    semantics, ``rowid_list`` projection (ascending rowids via Sort).

    Deliberately bypasses the statistics subsystem — a single relation
    has exactly one access decision (widest covering index or scan), and
    these plans compile on the constraint-check hot path where a lazy
    statistics build would charge DML for a planner-only scan.
    """
    item = FromItem(relation_name)
    lowering = _Lowering(db, conjuncts)
    node = lowering.access(item, set(), float(len(db.table(relation_name))))
    residual = lowering.residual()
    if residual:
        node = Filter(node, tuple(residual))
    node = Sort(node, (relation_name,))
    root = Project(node, "rowid_list", [item])
    _verify_lowered(db, root, (relation_name,))
    return root


def _verify_lowered(
    db: Database, root: PlanNode, expected_names: Sequence[str]
) -> None:
    """Debug hook: statically verify the lowered tree when the
    ``REPRO_PLAN_VERIFY`` environment variable arms it (lazy import —
    the verifier lives above the engine, in :mod:`repro.analysis`)."""
    if os.environ.get("REPRO_PLAN_VERIFY", "") in ("", "0"):
        return
    from ..analysis.planlint import verify_or_raise

    verify_or_raise(db, root, expected_names)


#: executor counters the planning path mutates — EXPLAIN must not
_PLANNING_COUNTERS = ("plans_compiled", "plan_cache_hits", "reorders",
                      "bushy_plans", "replans_avoided")


def explain_select(db: Database, plan: SelectPlan) -> str:
    """EXPLAIN: the (cached) physical tree a plan runs through.

    Observational for the execution counters: `plans_compiled`,
    `plan_cache_hits`, `reorders`, `bushy_plans` and `replans_avoided`
    track query *executions*, and an EXPLAIN is not one — planning work
    done here is not counted there (the compiled artifact still lands
    in the plan cache, so a later execution of the same shape skips
    planning).  `stats_rebuilds` is deliberately *excluded* from that
    contract: a lazy statistics build triggered by the enumerator is
    real, cached work the next planner access reuses, and restoring its
    counter would make it lie.  Plans the pipeline cannot lower —
    unknown expression nodes, or an uncompilable shape — report the
    interpreted fallback instead.
    """
    logical = LogicalPlan.build(plan)
    if logical is None:
        return (
            "Interpreted nested loop (shape has no structural signature; "
            "runs on the oracle executor)"
        )
    snapshot = {counter: db.stats[counter] for counter in _PLANNING_COUNTERS}
    try:
        compiled = _plan(db, plan, logical)
    finally:
        db.stats.update(snapshot)
    if compiled is None:
        return (
            "Interpreted nested loop (plan not compilable; "
            "runs on the oracle executor)"
        )
    return compiled.explain_text


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------

def execute_select(
    db: Database, plan: SelectPlan, optimize: bool = True
) -> list[Row]:
    """Run the plan; returns projected rows (dicts keyed by output name).

    ``optimize=False`` forces the interpreted FROM-order nested-loop
    executor — the pre-optimizer baseline benchmarks compare against.
    """
    db.stats["selects"] += 1
    for item in plan.from_items:
        if item.relation_name not in db.tables:
            raise SchemaError(f"unknown relation {item.relation_name!r}")
    names = [item.name for item in plan.from_items]
    if len(set(names)) != len(names):
        raise SchemaError("duplicate FROM aliases")

    if not plan.from_items:
        # degenerate no-FROM query: one empty row (the DP has no
        # relations to enumerate — the oracle defines the semantics)
        return _execute_interpreted(db, plan)
    if db.oracle_mode:
        optimize = False
    if optimize:
        logical = LogicalPlan.build(plan)
        if logical is not None:
            compiled = _plan(db, plan, logical)
            if compiled is not None:
                return compiled.run(db, logical.parameters())
    return _execute_interpreted(db, plan)


def _plan(
    db: Database, plan: SelectPlan, logical: LogicalPlan
) -> Optional[CompiledPlan]:
    """Cache lookup → (lower + compile) → cache store."""
    entry = db.plan_cache.get(logical.signature, db)
    if entry is not None:
        if entry.compiled is not None:
            db.stats["plan_cache_hits"] += 1
        return entry.compiled
    root, tree = lower_select(db, logical)
    positions = tree.leaf_positions()
    compiled = compile_tree(
        db,
        root,
        logical.conjuncts,
        reordered=positions != sorted(positions),
        bushy=tree.is_bushy(),
    )
    relations = {item.relation_name for item in plan.from_items}
    db.plan_cache.put(logical.signature, db, compiled, relations)
    if compiled is not None:
        db.stats["plans_compiled"] += 1
        if compiled.reordered:
            db.stats["reorders"] += 1
        if compiled.bushy:
            db.stats["bushy_plans"] += 1
    return compiled


#: inert: perfbench/tracer.py looks this name up and wraps it; nothing
#: in the engine calls it
compile_tree_vectorized = None


def _execute_interpreted(db: Database, plan: SelectPlan) -> list[Row]:
    """FROM-order nested-loop execution, one ``Expr`` walk per row.

    Kept as the semantic oracle: the compiled executor must return the
    same rows (tests/property/test_prop_optimizer.py pins that down).
    """
    conjuncts = plan.where.conjuncts() if plan.where is not None else []
    names = tuple(item.name for item in plan.from_items)
    keyed_results: list[tuple[tuple, Row]] = []

    def recurse(position: int, env: dict[str, Row], rowids: dict[str, int],
                remaining: list[Expr]) -> None:
        if position == len(plan.from_items):
            if remaining:
                residual = conjoin(remaining)
                if residual is not None and residual.eval(env) is not True:
                    return
            key = tuple(rowids[name] for name in names)
            keyed_results.append((key, _project(db, plan, env, rowids)))
            return
        item = plan.from_items[position]
        bound = set(env)
        target = item.name
        # collect equality bindings usable for an index probe
        equalities: dict[str, Expr] = {}
        used: list[tuple[Expr, str]] = []
        deferred: list[Expr] = []
        for conjunct in remaining:
            binding = _binding_equalities(conjunct, target, bound)
            if binding is not None and binding[0] not in equalities:
                equalities[binding[0]] = binding[1]
                used.append((conjunct, binding[0]))
            else:
                deferred.append(conjunct)
        # evaluate now-applicable residual predicates for this level
        bound_after = bound | {target}
        applicable_now = [c for c in deferred if _applicable(c, bound_after)]
        still_remaining = [c for c in deferred if c not in applicable_now]

        table = db.table(item.relation_name)
        candidate_rowids = None
        if equalities:
            index = _choose_index(db, item.relation_name, set(equalities))
            if index is not None:
                key = tuple(equalities[column].eval(env) for column in index.columns)
                candidate_rowids = index.lookup_rowids(key)
                # equalities covered by the index are consumed; others filter
                covered = set(index.columns)
                applicable_now = applicable_now + [
                    conjunct for conjunct, column in used if column not in covered
                ]
            else:
                applicable_now = applicable_now + [conjunct for conjunct, _ in used]
        if candidate_rowids is None:
            iterator = table.scan()
        else:
            db.stats["index_joins"] += 1
            iterator = (
                (rowid, table.get(rowid))
                for rowid in candidate_rowids
                if rowid in table
            )
        # hoisted out of the row loop: one conjunction per level entry
        predicate = conjoin(applicable_now) if applicable_now else None
        for rowid, row in iterator:
            db.stats["rows_scanned"] += 1
            env[target] = row
            rowids[target] = rowid
            if predicate is not None and predicate.eval(env) is not True:
                del env[target]
                del rowids[target]
                continue
            recurse(position + 1, env, rowids, still_remaining)
            del env[target]
            del rowids[target]

    recurse(0, {}, {}, conjuncts)
    # deterministic output: rowid order of the original FROM clause,
    # established once here instead of sorting every index probe
    keyed_results.sort(key=lambda pair: pair[0])
    rows = [row for _, row in keyed_results]
    if plan.distinct:
        rows = dedup_rows(rows)
    return rows


def _project(
    db: Database, plan: SelectPlan, env: dict[str, Row], rowids: dict[str, int]
) -> Row:
    if plan.select_rowids:
        if len(plan.from_items) == 1:
            return {"ROWID": rowids[plan.from_items[0].name]}
        return {f"{name}.ROWID": rid for name, rid in rowids.items()}
    projected: Row = {}
    if plan.columns is None:
        for item in plan.from_items:
            row = env[item.name]
            for column, value in row.items():
                key = column if column not in projected else f"{item.name}.{column}"
                projected[key] = value
    else:
        for column in plan.columns:
            ref = ColumnRef(column.column, column.qualifier)
            projected[column.output_name] = ref.eval(env)
    if plan.include_rowids:
        for name, rowid in rowids.items():
            projected[f"{name}.ROWID"] = rowid
    return projected
