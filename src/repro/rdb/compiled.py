"""Compiled physical plans: operator trees lowered into nested closures.

The plan IR in :mod:`repro.rdb.plan` describes *what* to run (Scan /
IndexProbe / Filter / NestedLoopJoin / HashJoin / Sort / Project /
Distinct); this module turns one tree into *how*: every operator
compiles to a closure in continuation-passing style — a node receives
the compiled continuation of everything downstream and bakes it in, so
executing a plan is one chain of direct calls with no per-row dispatch,
no ``Expr`` walks and no intermediate row materialization outside hash
builds.

Literals and pre-materialized ``IN`` sets are lifted out as a parameter
vector (slot order = the logical plan's canonical conjunct order), so
one compiled artifact serves every query with the same structural
signature — the common case inside ``UpdateSession`` batches, where
probe shapes repeat with different predicate constants.

Two caches hold compiled artifacts per database:

* :class:`PlanCache` — SELECT plans keyed on the logical plan
  signature, invalidated by DDL and by DML drift past the re-planning
  threshold;
* :class:`RowidPlanCache` — the single-relation ``find_rowids`` /
  ``select_rowids`` plans, keyed on cheap per-call signatures and
  pinned to the owning relation's schema version.

Anything the compiler does not understand (unknown expression nodes,
unresolvable column references) falls back to the interpreted executor
in :mod:`repro.rdb.plan`; the negative result is cached too.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Mapping, Optional

from .columnar import ColumnBatch
from .expr import (
    COMPARATORS,
    And,
    ColumnRef,
    Comparison,
    Expr,
    InSubquery,
    IsNull,
    Literal,
    Not,
    Or,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (plan -> compiled)
    from .database import Database
    from .plan import (
        Filter,
        HashJoin,
        IndexProbe,
        PlanNode,
        Project,
        Scan,
    )

__all__ = ["CompiledPlan", "PlanCache", "RowidPlanCache", "Uncompilable",
           "VectorizedPlan", "compile_tree", "compile_tree_vectorized",
           "dedup_rows", "extract_where_params", "where_signature"]

Row = dict[str, Any]
Env = dict[str, Row]
Params = tuple
EvalFn = Callable[[Env, Params], Any]


class Uncompilable(Exception):
    """Raised internally when a plan must run interpreted."""


# ---------------------------------------------------------------------------
# predicate signatures and parameter extraction
# ---------------------------------------------------------------------------

def where_signature(predicate: Expr) -> Optional[tuple]:
    """Literal-agnostic structural key of a WHERE tree, one entry per
    conjunct (None: some node the compiled executors don't understand).

    This is the cheap per-call key of the rowid-path cache; the SELECT
    plan cache keys on the richer :class:`repro.rdb.plan.LogicalPlan`
    signature, which canonicalizes conjunct order on top of this.
    """
    conjunct_sigs = []
    for conjunct in predicate.conjuncts():
        sig = conjunct.signature()
        if sig is None:
            return None
        conjunct_sigs.append(sig)
    return tuple(conjunct_sigs)


def extract_where_params(predicate: Expr) -> Params:
    """A WHERE tree's runtime values, in the compiler's slot order."""
    out: list = []
    for conjunct in predicate.conjuncts():
        conjunct.collect_parameters(out)
    return tuple(out)


def dedup_rows(rows: list[Row]) -> list[Row]:
    """DISTINCT: drop duplicate rows, keeping the first occurrence.

    Every row of one projection shares the same keys, so the dedup
    column order is computed once, not per row.
    """
    if not rows:
        return rows
    key_columns = sorted(rows[0])
    seen: set[tuple] = set()
    unique_rows = []
    for row in rows:
        key = tuple(row[column] for column in key_columns)
        if key not in seen:
            seen.add(key)
            unique_rows.append(row)
    return unique_rows


# ---------------------------------------------------------------------------
# expression compiler
# ---------------------------------------------------------------------------

class _ExprCompiler:
    """Compiles ``Expr`` trees into ``fn(env, params)`` closures.

    Parameter slots are assigned in the traversal order
    :meth:`Expr.collect_parameters` uses, so one compiled plan can be
    re-run with the parameter vector of any same-signature plan.
    """

    def __init__(self, columns_of: dict[str, set[str]]) -> None:
        #: FROM-item name -> attribute names of its relation
        self.columns_of = columns_of
        self.slots = 0

    def compile(self, expr: Expr) -> EvalFn:
        if isinstance(expr, Literal):
            slot = self.slots
            self.slots += 1
            return lambda env, params: params[slot]
        if isinstance(expr, ColumnRef):
            return self._compile_column(expr)
        if isinstance(expr, Comparison):
            left = self.compile(expr.left)
            right = self.compile(expr.right)
            return _make_comparison(left, right, COMPARATORS[expr.op])
        if isinstance(expr, And):
            left = self.compile(expr.left)
            right = self.compile(expr.right)

            def and_fn(env: Env, params: Params) -> Optional[bool]:
                lhs = left(env, params)
                if lhs is False:
                    return False
                rhs = right(env, params)
                if rhs is False:
                    return False
                if lhs is None or rhs is None:
                    return None
                return True

            return and_fn
        if isinstance(expr, Or):
            left = self.compile(expr.left)
            right = self.compile(expr.right)

            def or_fn(env: Env, params: Params) -> Optional[bool]:
                lhs = left(env, params)
                if lhs is True:
                    return True
                rhs = right(env, params)
                if rhs is True:
                    return True
                if lhs is None or rhs is None:
                    return None
                return False

            return or_fn
        if isinstance(expr, Not):
            operand = self.compile(expr.operand)

            def not_fn(env: Env, params: Params) -> Optional[bool]:
                value = operand(env, params)
                if value is None:
                    return None
                return not value

            return not_fn
        if isinstance(expr, IsNull):
            operand = self.compile(expr.operand)
            negate = expr.negate

            def is_null_fn(env: Env, params: Params) -> bool:
                result = operand(env, params) is None
                return not result if negate else result

            return is_null_fn
        if isinstance(expr, InSubquery):
            operand = self.compile(expr.operand)
            slot = self.slots
            self.slots += 1

            def in_fn(env: Env, params: Params) -> Optional[bool]:
                value = operand(env, params)
                if value is None:
                    return None
                return value in params[slot]

            return in_fn
        raise Uncompilable(f"unknown expression node {type(expr).__name__}")

    def _compile_column(self, ref: ColumnRef) -> EvalFn:
        qualifier, column = ref.qualifier, ref.column
        if qualifier is not None:
            known = self.columns_of.get(qualifier)
            if known is None or column not in known:
                # the interpreted executor reports this lazily (and only
                # for rows it actually reaches) — preserve that
                raise Uncompilable(f"unresolvable reference {ref.to_sql()}")
            return lambda env, params: env[qualifier][column]
        candidates = [
            name for name, columns in self.columns_of.items() if column in columns
        ]
        if len(candidates) == 1:
            name = candidates[0]
            return lambda env, params: env[name][column]
        if not candidates:
            raise Uncompilable(f"unknown column {column!r}")
        # ambiguity is tolerated when every candidate agrees — keep the
        # interpreted resolution for that rare case
        return lambda env, params: ref.eval(env)


def _make_comparison(
    left: EvalFn, right: EvalFn, op: Callable[[Any, Any], bool]
) -> EvalFn:
    def comparison(env: Env, params: Params) -> Optional[bool]:
        lhs = left(env, params)
        rhs = right(env, params)
        if lhs is None or rhs is None:
            return None
        return op(lhs, rhs)

    return comparison


class _Conjunct:
    __slots__ = ("expr", "fn", "left_fn", "right_fn")

    def __init__(
        self,
        expr: Expr,
        fn: EvalFn,
        left_fn: Optional[EvalFn] = None,
        right_fn: Optional[EvalFn] = None,
    ) -> None:
        self.expr = expr
        self.fn = fn
        self.left_fn = left_fn
        self.right_fn = right_fn


def _compile_conjuncts(
    compiler: _ExprCompiler, conjuncts: list[Expr]
) -> dict[int, _Conjunct]:
    """Compile conjuncts in canonical order so parameter slots line up
    with the logical plan's :meth:`parameters` extraction; comparisons
    keep their side closures so an equality can serve as an index or
    hash key function without consuming fresh slots."""
    compiled: dict[int, _Conjunct] = {}
    for conjunct in conjuncts:
        if isinstance(conjunct, Comparison):
            left_fn = compiler.compile(conjunct.left)
            right_fn = compiler.compile(conjunct.right)
            fn = _make_comparison(left_fn, right_fn, COMPARATORS[conjunct.op])
            compiled[id(conjunct)] = _Conjunct(conjunct, fn, left_fn, right_fn)
        else:
            compiled[id(conjunct)] = _Conjunct(
                conjunct, compiler.compile(conjunct)
            )
    return compiled


# ---------------------------------------------------------------------------
# runtime context
# ---------------------------------------------------------------------------

class _Ctx:
    """Per-execution state threaded through the compiled closures."""

    __slots__ = ("stats", "env", "rowids", "params", "tables", "hashes",
                 "results")

    def __init__(
        self,
        stats: dict[str, int],
        params: Params,
        tables: list,
        hash_count: int,
    ) -> None:
        self.stats = stats
        self.env: Env = {}
        self.rowids: dict[str, int] = {}
        self.params = params
        self.tables = tables
        self.hashes: list[Optional[dict]] = [None] * hash_count
        self.results: list = []


RunFn = Callable[[_Ctx], None]


# ---------------------------------------------------------------------------
# compiled plan
# ---------------------------------------------------------------------------

class CompiledPlan:
    """One physical plan tree, compiled into nested closures."""

    #: executor discriminator — :class:`VectorizedPlan` overrides this,
    #: and the planner uses it to honor a forced executor choice against
    #: a cached artifact compiled the other way
    vectorized = False

    __slots__ = (
        "root_run", "leaf_relations", "hash_count", "mode", "distinct",
        "reordered", "bushy", "index_only", "_explain_root", "_explain_text",
    )

    def __init__(
        self,
        root_run: RunFn,
        leaf_relations: list[str],
        hash_count: int,
        mode: str,
        distinct: bool,
        reordered: bool,
        bushy: bool,
        explain_root: "PlanNode",
        index_only: Optional[tuple] = None,
    ) -> None:
        self.root_run = root_run
        self.leaf_relations = leaf_relations
        self.hash_count = hash_count
        self.mode = mode
        self.distinct = distinct
        self.reordered = reordered
        self.bushy = bushy
        #: the physical tree, kept for :attr:`explain_text` — rendering
        #: is lazy so the rowid-path compiles on the constraint-check
        #: hot path (which never surface EXPLAIN) pay nothing
        self._explain_root = explain_root
        self._explain_text: Optional[str] = None
        #: ``(index, key_fns)`` when the whole plan is one covering
        #: index lookup emitting rowids — served straight from the
        #: bucket, no row fetch, no scan accounting (the ``find_rowids``
        #: constraint-check hot path)
        self.index_only = index_only

    @property
    def explain_text(self) -> str:
        """The rendered operator tree (memoized on first read)."""
        if self._explain_text is None:
            self._explain_text = self._explain_root.explain()
        return self._explain_text

    def _execute(self, db: "Database", params: Params) -> list:
        ctx = _Ctx(
            db.stats,
            params,
            [db.table(name) for name in self.leaf_relations],
            self.hash_count,
        )
        self.root_run(ctx)
        return ctx.results

    def run(self, db: "Database", params: Params) -> list:
        if self.index_only is not None:
            index, key_fns = self.index_only
            try:
                key = tuple(fn({}, params) for fn in key_fns)
                return sorted(index.lookup(key))
            except TypeError:  # unhashable probe value: no match
                return []
        results = self._execute(db, params)
        if self.mode == "rowid_list":
            # ascending rowids on every path: scan order drifts once
            # undo restores re-append old rowids, and index bucket
            # order is arbitrary — sorting is the one ordering the
            # compiled and interpreted executors can always agree on
            results.sort()
            return results
        # deterministic output: rowid order of the original FROM clause
        results.sort(key=_sort_key)
        rows = [row for _, row in results]
        if self.distinct:
            rows = dedup_rows(rows)
        return rows

    def run_rowid_set(self, db: "Database", params: Params) -> set:
        """``find_rowids``' contract: membership only, no ordering —
        skips the ascending sort :meth:`run` pays for ``select_rowids``."""
        if self.index_only is not None:
            index, key_fns = self.index_only
            try:
                key = tuple(fn({}, params) for fn in key_fns)
                return index.lookup(key)
            except TypeError:  # unhashable probe value: no match
                return set()
        return set(self._execute(db, params))


def _sort_key(pair: tuple) -> Any:
    # a rowid tuple, or a bare rowid for single-relation plans — both
    # order identically to the interpreted executor's tuple keys
    return pair[0]


# ---------------------------------------------------------------------------
# tree compilation
# ---------------------------------------------------------------------------

def compile_tree(
    db: "Database",
    root: "PlanNode",
    conjuncts: list[Expr],
    count_index_joins: bool = True,
    reordered: bool = False,
    bushy: bool = False,
) -> Optional[CompiledPlan]:
    """Compile a physical plan tree; None → the plan runs interpreted.

    *conjuncts* is the canonical conjunct list of the owning logical
    plan — every ``Filter`` predicate and every index/hash key in the
    tree references one of these expressions, and compiling them first
    (in order) pins the parameter slot layout.

    *reordered* / *bushy* are the enumerator's verdicts about the join
    tree this physical plan lowered from (``JoinTree.leaf_positions`` /
    ``JoinTree.is_bushy``) — the compiler records them for the
    ``reorders`` / ``bushy_plans`` counters rather than re-deriving its
    own notion from the lowered tree.

    ``count_index_joins=False`` suppresses the ``index_joins`` counter —
    the single-relation rowid paths never counted their probes as join
    levels, and constraint checks would otherwise dominate the metric.
    """
    try:
        return _TreeCompiler(
            db, root, conjuncts, count_index_joins, reordered, bushy
        ).compile()
    except Uncompilable:
        return None


def _leaf_nodes(node: "PlanNode") -> list:
    if node.kind in ("scan", "index_probe"):
        return [node]
    return [child for sub in node.children() for child in _leaf_nodes(sub)]


class _TreeCompiler:
    def __init__(
        self,
        db: "Database",
        root: "PlanNode",
        conjuncts: list[Expr],
        count_index_joins: bool,
        reordered: bool,
        bushy: bool,
    ) -> None:
        self.db = db
        self.root = root
        self.count_index_joins = count_index_joins
        self.reordered = reordered
        self.bushy = bushy
        leaves = _leaf_nodes(root)
        self.leaf_relations = [leaf.relation_name for leaf in leaves]
        self.leaf_slots = {id(leaf): slot for slot, leaf in enumerate(leaves)}
        self.hash_count = 0
        columns_of = {
            leaf.name: set(db.relation(leaf.relation_name).attribute_names)
            for leaf in leaves
        }
        self.expr_compiler = _ExprCompiler(columns_of)
        self.conjunct_map = _compile_conjuncts(self.expr_compiler, conjuncts)

    # -- helpers -------------------------------------------------------------

    def _side_fn(self, conjunct: Expr, side: Expr) -> EvalFn:
        """The compiled closure of one side of an equality conjunct —
        reused from the conjunct's compilation so parameter slots stay
        aligned with the logical plan's extraction order."""
        compiled = self.conjunct_map[id(conjunct)]
        return compiled.left_fn if side is conjunct.left else compiled.right_fn

    def _predicate_fns(self, predicates: tuple[Expr, ...]) -> tuple[EvalFn, ...]:
        return tuple(self.conjunct_map[id(p)].fn for p in predicates)

    # -- node compilation (continuation-passing) -----------------------------

    def compile(self) -> CompiledPlan:
        node = self.root
        distinct = False
        if node.kind == "distinct":
            distinct = True
            node = node.child
        if node.kind != "project":
            raise Uncompilable(f"unexpected root {node.kind}")
        project_node = node
        sort_node = project_node.child
        if sort_node.kind != "sort":
            raise Uncompilable(f"unexpected project child {sort_node.kind}")
        join_root = sort_node.child
        mode = project_node.mode

        index_only = self._index_only(mode, join_root)
        if index_only is not None:
            return CompiledPlan(
                root_run=lambda ctx: None,
                leaf_relations=[],
                hash_count=0,
                mode=mode,
                distinct=distinct,
                reordered=False,
                bushy=False,
                explain_root=self.root,
                index_only=index_only,
            )

        if mode == "rowid_list":
            only_name = sort_node.names[0]

            def collect(ctx: _Ctx) -> None:
                ctx.results.append(ctx.rowids[only_name])
        else:
            project = self._compile_projection(project_node)
            sort_names = sort_node.names
            # the sort key only has to order consistently with the
            # interpreted executor's rowid tuples — for the common one-
            # and two-relation shapes, skip the generic tuple() build
            # (this closure runs once per emitted row)
            if len(sort_names) == 1:
                only = sort_names[0]

                def collect(ctx: _Ctx) -> None:
                    rowids = ctx.rowids
                    ctx.results.append(
                        (rowids[only], project(ctx.env, rowids, ctx.params))
                    )
            elif len(sort_names) == 2:
                first, second = sort_names

                def collect(ctx: _Ctx) -> None:
                    rowids = ctx.rowids
                    ctx.results.append(
                        (
                            (rowids[first], rowids[second]),
                            project(ctx.env, rowids, ctx.params),
                        )
                    )
            else:

                def collect(ctx: _Ctx) -> None:
                    rowids = ctx.rowids
                    ctx.results.append(
                        (
                            tuple(rowids[name] for name in sort_names),
                            project(ctx.env, rowids, ctx.params),
                        )
                    )

        root_run = self._compile_node(join_root, collect)
        return CompiledPlan(
            root_run=root_run,
            leaf_relations=self.leaf_relations,
            hash_count=self.hash_count,
            mode=mode,
            distinct=distinct,
            reordered=self.reordered,
            bushy=self.bushy,
            explain_root=self.root,
        )

    def _index_only(self, mode: str, join_root: "PlanNode") -> Optional[tuple]:
        """``rowid_list`` plans that are one covering index lookup with
        literal keys and no residual predicates skip execution entirely:
        the bucket *is* the answer."""
        if mode != "rowid_list" or join_root.kind != "index_probe":
            return None
        if not all(
            isinstance(value, Literal) for _conjunct, value in join_root.keys
        ):
            return None
        key_fns = tuple(
            self._side_fn(conjunct, value) for conjunct, value in join_root.keys
        )
        return (join_root.index, key_fns)

    def _compile_node(self, node: "PlanNode", emit: RunFn) -> RunFn:
        kind = node.kind
        if kind == "scan":
            return self._compile_scan(node, emit)
        if kind == "index_probe":
            return self._compile_index_probe(node, emit)
        if kind == "filter":
            return self._compile_filter(node, emit)
        if kind == "nested_loop":
            inner = self._compile_node(node.inner, emit)
            return self._compile_node(node.outer, inner)
        if kind == "hash_join":
            return self._compile_hash_join(node, emit)
        raise Uncompilable(f"unknown plan node {kind}")

    def _compile_scan(self, node: "Scan", emit: RunFn) -> RunFn:
        slot = self.leaf_slots[id(node)]
        name = node.name

        def run(ctx: _Ctx) -> None:
            stats = ctx.stats
            env = ctx.env
            rowids = ctx.rowids
            for rowid, row in ctx.tables[slot].scan():
                stats["rows_scanned"] += 1
                env[name] = row
                rowids[name] = rowid
                emit(ctx)
            env.pop(name, None)
            rowids.pop(name, None)

        return run

    def _compile_index_probe(self, node: "IndexProbe", emit: RunFn) -> RunFn:
        slot = self.leaf_slots[id(node)]
        name = node.name
        index = node.index
        key_fns = tuple(
            self._side_fn(conjunct, value) for conjunct, value in node.keys
        )
        count_probes = self.count_index_joins

        def run(ctx: _Ctx) -> None:
            stats = ctx.stats
            if count_probes:
                stats["index_joins"] += 1
            env = ctx.env
            params = ctx.params
            try:
                key = tuple(fn(env, params) for fn in key_fns)
                bucket = index.lookup_rowids(key)
            except TypeError:  # unhashable probe value: no match
                bucket = ()
            table = ctx.tables[slot]
            present = table.__contains__
            fetch = table.get
            rowids = ctx.rowids
            for rowid in bucket:
                if not present(rowid):
                    continue
                stats["rows_scanned"] += 1
                env[name] = fetch(rowid)
                rowids[name] = rowid
                emit(ctx)
            env.pop(name, None)
            rowids.pop(name, None)

        return run

    def _compile_filter(self, node: "Filter", emit: RunFn) -> RunFn:
        fns = self._predicate_fns(node.predicates)

        def check(ctx: _Ctx) -> None:
            env = ctx.env
            params = ctx.params
            for fn in fns:
                if fn(env, params) is not True:
                    return
            emit(ctx)

        return self._compile_node(node.child, check)

    def _compile_hash_join(self, node: "HashJoin", emit: RunFn) -> RunFn:
        inner_names = tuple(
            sorted(leaf.name for leaf in _leaf_nodes(node.inner))
        )
        outer_key_fns = tuple(
            self._side_fn(conjunct, outer) for conjunct, outer, _inner in node.keys
        )
        inner_key_fns = tuple(
            self._side_fn(conjunct, inner) for conjunct, _outer, inner in node.keys
        )
        hash_slot = self.hash_count
        self.hash_count += 1
        # the dominant shape is a single-column equi-join against a
        # single-relation build side — specialize away the per-row key
        # tuple and snapshot tuple-of-tuples allocations for it
        single_key = len(node.keys) == 1
        single_inner = len(inner_names) == 1

        if single_key and single_inner:
            inner_key_fn = inner_key_fns[0]
            inner_name = inner_names[0]

            def build_collect(ctx: _Ctx) -> None:
                env = ctx.env
                key = inner_key_fn(env, ctx.params)
                if key is None:
                    return  # SQL equality: NULL never joins
                ctx.hashes[hash_slot].setdefault(key, []).append(
                    (env[inner_name], ctx.rowids[inner_name])
                )
        elif single_key:
            inner_key_fn = inner_key_fns[0]

            def build_collect(ctx: _Ctx) -> None:
                env = ctx.env
                key = inner_key_fn(env, ctx.params)
                if key is None:
                    return  # SQL equality: NULL never joins
                snapshot = tuple(
                    (name, env[name], ctx.rowids[name]) for name in inner_names
                )
                ctx.hashes[hash_slot].setdefault(key, []).append(snapshot)
        else:

            def build_collect(ctx: _Ctx) -> None:
                env = ctx.env
                key = tuple(fn(env, ctx.params) for fn in inner_key_fns)
                if any(component is None for component in key):
                    return  # SQL equality: NULL never joins
                snapshot = tuple(
                    (name, env[name], ctx.rowids[name]) for name in inner_names
                )
                ctx.hashes[hash_slot].setdefault(key, []).append(snapshot)

        build_run = self._compile_node(node.inner, build_collect)
        if single_key:
            outer_key_fn = outer_key_fns[0]

        def probe(ctx: _Ctx) -> None:
            build = ctx.hashes[hash_slot]
            if build is None:
                # built lazily on the first probe, once per execution
                ctx.stats["hash_joins"] += 1
                build = ctx.hashes[hash_slot] = {}
                build_run(ctx)
            env = ctx.env
            params = ctx.params
            try:
                if single_key:
                    bucket = build.get(outer_key_fn(env, params), ())
                else:
                    key = tuple(fn(env, params) for fn in outer_key_fns)
                    bucket = build.get(key, ())
            except TypeError:  # unhashable probe value: no match
                bucket = ()
            stats = ctx.stats
            rowids = ctx.rowids
            if single_key and single_inner:
                name = inner_names[0]
                for row, rowid in bucket:
                    stats["rows_scanned"] += 1
                    env[name] = row
                    rowids[name] = rowid
                    emit(ctx)
            else:
                for snapshot in bucket:
                    stats["rows_scanned"] += 1
                    for name, row, rowid in snapshot:
                        env[name] = row
                        rowids[name] = rowid
                    emit(ctx)
            for name in inner_names:
                env.pop(name, None)
                rowids.pop(name, None)

        return self._compile_node(node.outer, probe)

    # -- projection ----------------------------------------------------------

    def _compile_projection(
        self, node: "Project"
    ) -> Callable[[Env, dict[str, int], Params], Row]:
        names = tuple(item.name for item in node.from_items)
        if node.mode == "rowids":
            if len(names) == 1:
                only = names[0]
                return lambda env, rowids, params: {"ROWID": rowids[only]}
            return lambda env, rowids, params: {
                f"{name}.ROWID": rowids[name] for name in names
            }
        if node.mode == "star":
            # SELECT *: precompute output keys with the interpreted
            # executor's collision rule (qualified name on clashes)
            entries: list[tuple[str, str, str]] = []
            existing: set[str] = set()
            for item in node.from_items:
                for column in self.db.table(item.relation_name).columns:
                    out_key = (
                        column if column not in existing else f"{item.name}.{column}"
                    )
                    existing.add(out_key)
                    entries.append((item.name, column, out_key))

            def project_star(env: Env, rowids: dict[str, int], params: Params) -> Row:
                return {key: env[name][column] for name, column, key in entries}

            base = project_star
        else:
            getters = [
                (
                    column.output_name,
                    self.expr_compiler.compile(
                        ColumnRef(column.column, column.qualifier)
                    ),
                )
                for column in node.columns
            ]

            def project_columns(env: Env, rowids: dict[str, int], params: Params) -> Row:
                return {label: fn(env, params) for label, fn in getters}

            base = project_columns
        if not node.include_rowids:
            return base

        def with_rowids(env: Env, rowids: dict[str, int], params: Params) -> Row:
            row = base(env, rowids, params)
            for name in names:
                row[f"{name}.ROWID"] = rowids[name]
            return row

        return with_rowids


# ---------------------------------------------------------------------------
# vectorized tree compilation (batch-at-a-time over column arrays)
# ---------------------------------------------------------------------------

class _VCtx:
    """Per-execution state threaded through vectorized operators."""

    __slots__ = ("db", "stats", "params")

    def __init__(self, db: "Database", params: Params) -> None:
        self.db = db
        self.stats = db.stats
        self.params = params


BatchFn = Callable[[_VCtx], ColumnBatch]


class VectorizedPlan:
    """One physical plan tree, compiled to batch-at-a-time operators.

    Same ``run(db, params)`` contract (and byte-identical results) as
    :class:`CompiledPlan`; only SELECT projection modes are supported —
    the rowid paths stay row-at-a-time, where one index probe is the
    whole plan and batching has nothing to amortize.

    ``stages`` is the post-order stage-descriptor tuple the plan-IR
    verifier checks under ``REPRO_PLAN_VERIFY=1``; it is the vectorized
    lowering's analogue of the physical tree.
    """

    vectorized = True

    __slots__ = ("root_run", "mode", "distinct", "reordered", "bushy",
                 "stages", "_explain_root", "_explain_text")

    def __init__(
        self,
        root_run: Callable[[_VCtx], list],
        mode: str,
        distinct: bool,
        reordered: bool,
        bushy: bool,
        stages: tuple,
        explain_root: "PlanNode",
    ) -> None:
        self.root_run = root_run
        self.mode = mode
        self.distinct = distinct
        self.reordered = reordered
        self.bushy = bushy
        self.stages = stages
        self._explain_root = explain_root
        self._explain_text: Optional[str] = None

    @property
    def explain_text(self) -> str:
        if self._explain_text is None:
            self._explain_text = (
                "Vectorized (batch executor)\n" + self._explain_root.explain()
            )
        return self._explain_text

    def run(self, db: "Database", params: Params) -> list:
        return self.root_run(_VCtx(db, params))


def compile_tree_vectorized(
    db: "Database",
    root: "PlanNode",
    conjuncts: list[Expr],
    reordered: bool = False,
    bushy: bool = False,
) -> Optional[VectorizedPlan]:
    """Compile a physical tree to batch operators; None → not compilable.

    Unsupported *subtrees* (nested loops, correlated index probes) do
    not fail the compile — they run through the row-at-a-time closures
    and surface their output as a batch.  The compiler therefore fails
    exactly where :func:`compile_tree` fails (shared expression and
    projection compilation), never on shape: within the SELECT planning
    path, "vectorizable" and "compilable" are the same predicate, which
    keeps a forced executor choice from ping-ponging against the cache.
    """
    try:
        return _VectorCompiler(db, root, conjuncts, reordered, bushy).compile()
    except Uncompilable:
        return None


class _VectorCompiler:
    """Lowers a physical tree to :class:`ColumnBatch` operators.

    Wraps a :class:`_TreeCompiler` for everything expression-shaped —
    conjunct closures, parameter slots, projections — so both executors
    agree on slot layout by construction, and so unsupported subtrees
    can be handed to the row compiler wholesale.
    """

    def __init__(
        self,
        db: "Database",
        root: "PlanNode",
        conjuncts: list[Expr],
        reordered: bool,
        bushy: bool,
    ) -> None:
        self.db = db
        self.root = root
        self.row = _TreeCompiler(db, root, conjuncts, True, reordered, bushy)
        #: post-order stage descriptors for the plan-IR verifier
        self.stages: list[tuple] = []

    def compile(self) -> VectorizedPlan:
        node = self.root
        distinct = False
        if node.kind == "distinct":
            distinct = True
            node = node.child
        if node.kind != "project":
            raise Uncompilable(f"unexpected root {node.kind}")
        project_node = node
        sort_node = project_node.child
        if sort_node.kind != "sort":
            raise Uncompilable(f"unexpected project child {sort_node.kind}")
        if project_node.mode == "rowid_list":
            # single-probe plans: batching has nothing to amortize
            raise Uncompilable("rowid-list plans stay row-at-a-time")
        body_run = self._compile_node(sort_node.child)
        projector = self._compile_vprojection(project_node)
        sort_names = tuple(sort_node.names)
        self.stages.append(
            ("finalize", project_node.mode, sort_names, distinct)
        )

        if len(sort_names) == 1:
            only = sort_names[0]

            def order_of(batch: ColumnBatch) -> list[int]:
                rowid_array = batch.rowids[only]
                return sorted(batch.positions(), key=rowid_array.__getitem__)
        else:
            # lexicographic multi-key sort as a cascade of stable sorts
            # (least-significant key first): every pass uses the C-level
            # ``list.__getitem__`` key, which beats one sort with a
            # tuple-building Python lambda
            reversed_names = tuple(reversed(sort_names))

            def order_of(batch: ColumnBatch) -> list[int]:
                order = batch.positions()
                for name in reversed_names:
                    order = sorted(order, key=batch.rowids[name].__getitem__)
                return order

        def finalize(vctx: _VCtx) -> list:
            batch = body_run(vctx)
            vctx.stats["batches_processed"] += 1
            rows = projector(batch, order_of(batch), vctx)
            if distinct:
                rows = dedup_rows(rows)
            return rows

        return VectorizedPlan(
            root_run=finalize,
            mode=project_node.mode,
            distinct=distinct,
            reordered=self.row.reordered,
            bushy=self.row.bushy,
            stages=tuple(self.stages),
            explain_root=self.root,
        )

    # -- helpers -------------------------------------------------------------

    def _resolve_column(self, ref: Expr) -> Optional[tuple[str, str]]:
        """``(from-item name, column)`` of a ColumnRef, or None when the
        reference is not a plain unambiguous column (generic fallback)."""
        if not isinstance(ref, ColumnRef):
            return None
        qualifier, column = ref.qualifier, ref.column
        columns_of = self.row.expr_compiler.columns_of
        if qualifier is not None:
            known = columns_of.get(qualifier)
            if known is not None and column in known:
                return qualifier, column
            return None
        candidates = [
            name for name, columns in columns_of.items() if column in columns
        ]
        if len(candidates) == 1:
            return candidates[0], column
        return None

    # -- node compilation ----------------------------------------------------

    def _compile_node(self, node: "PlanNode") -> BatchFn:
        kind = node.kind
        if kind == "scan":
            return self._compile_scan(node)
        if kind == "index_probe":
            probe = self._try_index_probe(node)
            if probe is not None:
                return probe
            return self._fallback(node)
        if kind == "filter":
            return self._compile_filter(node)
        if kind == "hash_join":
            return self._compile_hash_join(node)
        if kind == "nested_loop":
            # correlated probing is inherently row-at-a-time — run the
            # whole subtree through the row closures
            return self._fallback(node)
        raise Uncompilable(f"unknown plan node {kind}")

    def _compile_scan(self, node: "Scan") -> BatchFn:
        name = node.name
        relation_name = node.relation_name
        self.stages.append(("scan", name, relation_name))

        def run(vctx: _VCtx) -> ColumnBatch:
            store = vctx.db.columns.store(relation_name)
            stats = vctx.stats
            stats["rows_scanned"] += len(store.rowids)
            stats["batches_processed"] += 1
            return ColumnBatch(
                names=(name,),
                length=len(store.rowids),
                rowids={name: store.rowids},
                rows={name: store.rows},
                stores={name: store},
            )

        return run

    def _try_index_probe(self, node: "IndexProbe") -> Optional[BatchFn]:
        """A leaf probe whose keys carry no column references (literal /
        parameter keys) — one lookup produces the whole batch."""
        if any(value.columns() for _conjunct, value in node.keys):
            return None
        name = node.name
        relation_name = node.relation_name
        index = node.index
        key_fns = tuple(
            self.row._side_fn(conjunct, value) for conjunct, value in node.keys
        )
        self.stages.append(("index_probe", name, relation_name, index.name))

        def run(vctx: _VCtx) -> ColumnBatch:
            stats = vctx.stats
            stats["index_joins"] += 1
            stats["batches_processed"] += 1
            params = vctx.params
            try:
                key = tuple(fn({}, params) for fn in key_fns)
                bucket = index.lookup_rowids(key)
            except TypeError:  # unhashable probe value: no match
                bucket = ()
            table = vctx.db.table(relation_name)
            present = table.__contains__
            fetch = table.get
            rowids: list[int] = []
            rows: list[Row] = []
            for rowid in bucket:
                if not present(rowid):
                    continue
                rowids.append(rowid)
                rows.append(fetch(rowid))
            stats["rows_scanned"] += len(rowids)
            return ColumnBatch(
                names=(name,),
                length=len(rowids),
                rowids={name: rowids},
                rows={name: rows},
            )

        return run

    def _compile_filter(self, node: "Filter") -> BatchFn:
        child = self._compile_node(node.child)
        predicates = tuple(
            self._compile_vpredicate(predicate)
            for predicate in node.predicates
        )
        names = tuple(leaf.name for leaf in _leaf_nodes(node.child))
        self.stages.append(("filter", names, len(node.predicates)))

        def run(vctx: _VCtx) -> ColumnBatch:
            batch = child(vctx)
            vctx.stats["batches_processed"] += 1
            for predicate in predicates:
                if batch.sel is not None and not batch.sel:
                    break  # already empty
                batch.sel = predicate(batch, vctx)
            return batch

        return run

    def _compile_vpredicate(
        self, expr: Expr
    ) -> Callable[[ColumnBatch, _VCtx], list[int]]:
        """One conjunct as a selection-vector narrowing function.

        Fast paths cover column-vs-value, column-vs-column and IS NULL
        shapes (one list comprehension over the batch, no env dicts);
        anything else evaluates the conjunct's row closure per selected
        position.  Three-valued logic matches the row executor: only a
        strict True survives, so a NULL operand filters the row.
        """
        compiled = self.row.conjunct_map[id(expr)]
        if isinstance(expr, Comparison):
            comparator = COMPARATORS[expr.op]
            left = self._resolve_column(expr.left)
            right = self._resolve_column(expr.right)
            if left is not None and right is not None:
                return _vpred_column_column(left, right, comparator)
            if left is not None and not expr.right.columns():
                return _vpred_column_value(
                    left, compiled.right_fn, comparator, flipped=False
                )
            if right is not None and not expr.left.columns():
                return _vpred_column_value(
                    right, compiled.left_fn, comparator, flipped=True
                )
        elif isinstance(expr, IsNull):
            target = self._resolve_column(expr.operand)
            if target is not None:
                return _vpred_is_null(target, expr.negate)
        return _vpred_generic(compiled.fn)

    def _compile_hash_join(self, node: "HashJoin") -> BatchFn:
        outer_run = self._compile_node(node.outer)
        inner_run = self._compile_node(node.inner)
        outer_names = tuple(leaf.name for leaf in _leaf_nodes(node.outer))
        inner_names = tuple(leaf.name for leaf in _leaf_nodes(node.inner))
        outer_keys = tuple(
            self._compile_varray(conjunct, outer)
            for conjunct, outer, _inner in node.keys
        )
        inner_keys = tuple(
            self._compile_varray(conjunct, inner)
            for conjunct, _outer, inner in node.keys
        )
        single_key = len(node.keys) == 1
        self.stages.append(
            ("hash_join", outer_names, inner_names, len(node.keys))
        )

        def run(vctx: _VCtx) -> ColumnBatch:
            outer_batch = outer_run(vctx)
            stats = vctx.stats
            stats["batches_processed"] += 1
            outer_positions = outer_batch.positions()
            out_outer: list[int] = []
            out_inner: list[int] = []
            inner_batch: Optional[ColumnBatch] = None
            if len(outer_positions):
                # row-executor parity: the build is lazy, so an empty
                # probe side never builds (or counts) the hash table
                stats["hash_joins"] += 1
                inner_batch = inner_run(vctx)
                build: dict = {}
                if single_key:
                    keys = inner_keys[0](inner_batch, vctx)
                    get_bucket = build.get
                    for i, key in _indexed(inner_batch.positions(), keys):
                        if key is None:
                            continue  # SQL equality: NULL never joins
                        bucket = get_bucket(key)
                        if bucket is None:
                            # get-then-insert beats setdefault: no empty
                            # list allocated per already-bucketed key
                            build[key] = [i]
                        else:
                            bucket.append(i)
                    probe_keys = outer_keys[0](outer_batch, vctx)
                    extend_inner = out_inner.extend
                    append_outer = out_outer.append
                    extend_outer = out_outer.extend
                    try:
                        for i, key in _indexed(outer_positions, probe_keys):
                            bucket = get_bucket(key)
                            if bucket:
                                extend_inner(bucket)
                                if len(bucket) == 1:
                                    append_outer(i)
                                else:
                                    extend_outer([i] * len(bucket))
                    except TypeError:
                        # an unhashable probe value matches nothing;
                        # rerun carefully, skipping the offenders
                        del out_outer[:], out_inner[:]
                        for i in outer_positions:
                            try:
                                bucket = get_bucket(probe_keys[i], ())
                            except TypeError:
                                continue
                            extend_inner(bucket)
                            extend_outer([i] * len(bucket))
                else:
                    key_arrays = [fn(inner_batch, vctx) for fn in inner_keys]
                    for i in inner_batch.positions():
                        key = tuple(array[i] for array in key_arrays)
                        if any(component is None for component in key):
                            continue  # SQL equality: NULL never joins
                        build.setdefault(key, []).append(i)
                    probe_arrays = [fn(outer_batch, vctx) for fn in outer_keys]
                    get_bucket = build.get
                    extend_inner = out_inner.extend
                    extend_outer = out_outer.extend
                    try:
                        for i in outer_positions:
                            key = tuple(array[i] for array in probe_arrays)
                            bucket = get_bucket(key)
                            if bucket:
                                extend_inner(bucket)
                                extend_outer([i] * len(bucket))
                    except TypeError:
                        del out_outer[:], out_inner[:]
                        for i in outer_positions:
                            try:
                                key = tuple(
                                    array[i] for array in probe_arrays
                                )
                                bucket = get_bucket(key, ())
                            except TypeError:
                                continue
                            extend_inner(bucket)
                            extend_outer([i] * len(bucket))
            stats["rows_scanned"] += len(out_outer)
            rowids: dict = {}
            rows: dict = {}
            for name in outer_names:
                source_rowids = outer_batch.rowids[name]
                source_rows = outer_batch.rows[name]
                rowids[name] = [source_rowids[i] for i in out_outer]
                rows[name] = [source_rows[i] for i in out_outer]
            for name in inner_names:
                if inner_batch is None:
                    rowids[name] = []
                    rows[name] = []
                else:
                    source_rowids = inner_batch.rowids[name]
                    source_rows = inner_batch.rows[name]
                    rowids[name] = [source_rowids[j] for j in out_inner]
                    rows[name] = [source_rows[j] for j in out_inner]
            return ColumnBatch(
                names=outer_names + inner_names,
                length=len(out_outer),
                rowids=rowids,
                rows=rows,
            )

        return run

    def _compile_varray(
        self, conjunct: Expr, side: Expr
    ) -> Callable[[ColumnBatch, _VCtx], list]:
        """One side of an equi-join key as a full-length value array."""
        resolved = self._resolve_column(side)
        if resolved is not None:
            name, column = resolved
            return lambda batch, vctx: batch.column(name, column)
        side_fn = self.row._side_fn(conjunct, side)

        def generic(batch: ColumnBatch, vctx: _VCtx) -> list:
            params = vctx.params
            names = batch.names
            rows = batch.rows
            out = []
            for i in range(batch.length):
                env = {n: rows[n][i] for n in names}
                out.append(side_fn(env, params))
            return out

        return generic

    # -- fallback ------------------------------------------------------------

    def _fallback(self, node: "PlanNode") -> BatchFn:
        """Run *node*'s subtree through the row-at-a-time closures and
        pivot the emitted rows into a batch."""
        names = tuple(leaf.name for leaf in _leaf_nodes(node))
        row_compiler = self.row

        def collect(ctx: _Ctx) -> None:
            rowids = ctx.rowids
            env = ctx.env
            ctx.results.append(
                (
                    tuple(rowids[name] for name in names),
                    tuple(env[name] for name in names),
                )
            )

        run_row = row_compiler._compile_node(node, collect)
        self.stages.append(("fallback", names, node.kind))

        def run(vctx: _VCtx) -> ColumnBatch:
            vctx.stats["vector_fallbacks"] += 1
            db = vctx.db
            # hash_count is read late: later-compiled fallback subtrees
            # may have grown it past this subtree's view at compile time
            ctx = _Ctx(
                vctx.stats,
                vctx.params,
                [db.table(relation) for relation in row_compiler.leaf_relations],
                row_compiler.hash_count,
            )
            run_row(ctx)
            results = ctx.results
            rowids: dict = {name: [] for name in names}
            rows: dict = {name: [] for name in names}
            appenders = [
                (rowids[name].append, rows[name].append) for name in names
            ]
            for rowid_tuple, row_tuple in results:
                for k, (add_rowid, add_row) in enumerate(appenders):
                    add_rowid(rowid_tuple[k])
                    add_row(row_tuple[k])
            return ColumnBatch(
                names=names, length=len(results), rowids=rowids, rows=rows
            )

        return run

    # -- projection ----------------------------------------------------------

    def _compile_vprojection(
        self, node: "Project"
    ) -> Callable[[ColumnBatch, list[int], _VCtx], list[Row]]:
        """Project ordered batch positions into output rows.

        Key order matches the row executor exactly (projection entries
        first, then ``<name>.ROWID`` keys in FROM order) so results stay
        byte-identical.
        """
        names = tuple(item.name for item in node.from_items)
        mode = node.mode
        if mode == "rowids":
            if len(names) == 1:
                only = names[0]

                def project_single(
                    batch: ColumnBatch, order: list[int], vctx: _VCtx
                ) -> list[Row]:
                    rowid_array = batch.rowids[only]
                    return [{"ROWID": rowid_array[i]} for i in order]

                return project_single

            assemble_rowids = _row_assembler(
                tuple(f"{name}.ROWID" for name in names)
            )

            def project_rowids(
                batch: ColumnBatch, order: list[int], vctx: _VCtx
            ) -> list[Row]:
                return assemble_rowids([
                    [array[i] for i in order]
                    for array in (batch.rowids[name] for name in names)
                ])

            return project_rowids

        base: Optional[Callable[[ColumnBatch, list[int], _VCtx], list[Row]]]
        base = None
        if mode == "star":
            entries: list[tuple[str, str, str]] = []
            existing: set[str] = set()
            for item in node.from_items:
                for column in self.db.table(item.relation_name).columns:
                    out_key = (
                        column if column not in existing else f"{item.name}.{column}"
                    )
                    existing.add(out_key)
                    entries.append((item.name, column, out_key))

            assemble_star = _row_assembler(
                tuple(key for _name, _column, key in entries)
            )

            def project_star(
                batch: ColumnBatch, order: list[int], vctx: _VCtx
            ) -> list[Row]:
                # gather each output column along `order`, then assemble
                # rows through the specialized dict-literal builder
                return assemble_star([
                    batch.gather(name, column, order)
                    for name, column, _key in entries
                ])

            base = project_star
        else:
            resolved = [
                (
                    column.output_name,
                    self._resolve_column(
                        ColumnRef(column.column, column.qualifier)
                    ),
                )
                for column in node.columns
            ]
            # non-empty guard: zip(*[]) would yield no rows, not empty rows
            if resolved and all(target is not None for _label, target in resolved):
                assemble_columns = _row_assembler(
                    tuple(label for label, _target in resolved)
                )

                def project_columns(
                    batch: ColumnBatch, order: list[int], vctx: _VCtx
                ) -> list[Row]:
                    return assemble_columns([
                        batch.gather(name, column, order)
                        for _label, (name, column) in resolved
                    ])

                base = project_columns

        if base is None:
            # ambiguous references: per-row env through the row
            # compiler's projection (which already appends rowid keys)
            project_row = self.row._compile_projection(node)

            def project_generic(
                batch: ColumnBatch, order: list[int], vctx: _VCtx
            ) -> list[Row]:
                params = vctx.params
                batch_names = batch.names
                rows = batch.rows
                rowid_arrays = {
                    name: batch.rowids[name] for name in batch_names
                }
                out = []
                for i in order:
                    env = {name: rows[name][i] for name in batch_names}
                    rowids = {
                        name: rowid_arrays[name][i] for name in batch_names
                    }
                    out.append(project_row(env, rowids, params))
                return out

            return project_generic
        if not node.include_rowids:
            return base
        inner_base = base

        def with_rowids(
            batch: ColumnBatch, order: list[int], vctx: _VCtx
        ) -> list[Row]:
            out = inner_base(batch, order, vctx)
            arrays = [(f"{name}.ROWID", batch.rowids[name]) for name in names]
            for position, i in enumerate(order):
                row = out[position]
                for key, array in arrays:
                    row[key] = array[i]
            return out

        return with_rowids


# -- vector predicate fast paths (module-level, shared across plans) --------

def _row_assembler(keys: tuple[str, ...]) -> Callable[[list], list]:
    """Specialized gathered-columns → row-dicts assembler.

    Generates ``[{'k0': v0, 'k1': v1, ...} for v0, v1, ... in
    zip(*gathered)]`` for this exact key tuple: the dict-literal
    BUILD_MAP opcode beats ``dict(zip(keys, values))``'s per-row
    iterator by ~2x, and projection is the largest fixed cost of every
    vectorized plan.  Keys come from the schema/plan and are
    repr-escaped, never interpolated raw.
    """
    if len(keys) == 1:
        only = keys[0]
        return lambda gathered: [{only: value} for value in gathered[0]]
    variables = [f"v{i}" for i in range(len(keys))]
    items = ", ".join(
        f"{key!r}: {var}" for key, var in zip(keys, variables)
    )
    heads = ", ".join(variables)
    source = (
        "def assemble(gathered):\n"
        f"    return [{{{items}}} for {heads} in zip(*gathered)]\n"
    )
    namespace: dict[str, Any] = {}
    exec(source, namespace)
    return namespace["assemble"]


def _indexed(positions, array):
    """(position, array[position]) pairs; C-speed enumerate when the
    selection covers the whole batch (positions() returned a range)."""
    if type(positions) is range:
        return enumerate(array)
    return ((i, array[i]) for i in positions)


def _vpred_column_value(
    target: tuple[str, str],
    value_fn: EvalFn,
    comparator: Callable[[Any, Any], bool],
    flipped: bool,
) -> Callable[[ColumnBatch, _VCtx], list[int]]:
    name, column = target

    def run(batch: ColumnBatch, vctx: _VCtx) -> list[int]:
        value = value_fn({}, vctx.params)
        if value is None:
            return []  # NULL comparison is unknown for every row
        array = batch.column(name, column)
        if flipped:
            return [
                i
                for i in batch.positions()
                if (x := array[i]) is not None and comparator(value, x)
            ]
        return [
            i
            for i in batch.positions()
            if (x := array[i]) is not None and comparator(x, value)
        ]

    return run


def _vpred_column_column(
    left: tuple[str, str],
    right: tuple[str, str],
    comparator: Callable[[Any, Any], bool],
) -> Callable[[ColumnBatch, _VCtx], list[int]]:
    left_name, left_column = left
    right_name, right_column = right

    def run(batch: ColumnBatch, vctx: _VCtx) -> list[int]:
        left_array = batch.column(left_name, left_column)
        right_array = batch.column(right_name, right_column)
        return [
            i
            for i in batch.positions()
            if (x := left_array[i]) is not None
            and (y := right_array[i]) is not None
            and comparator(x, y)
        ]

    return run


def _vpred_is_null(
    target: tuple[str, str], negate: bool
) -> Callable[[ColumnBatch, _VCtx], list[int]]:
    name, column = target

    def run(batch: ColumnBatch, vctx: _VCtx) -> list[int]:
        array = batch.column(name, column)
        if negate:
            return [i for i in batch.positions() if array[i] is not None]
        return [i for i in batch.positions() if array[i] is None]

    return run


def _vpred_generic(
    fn: EvalFn,
) -> Callable[[ColumnBatch, _VCtx], list[int]]:
    def run(batch: ColumnBatch, vctx: _VCtx) -> list[int]:
        params = vctx.params
        names = batch.names
        rows = batch.rows
        out = []
        for i in batch.positions():
            env = {name: rows[name][i] for name in names}
            if fn(env, params) is True:
                out.append(i)
        return out

    return run


# ---------------------------------------------------------------------------
# rowid-path plan cache (find_rowids / select_rowids)
# ---------------------------------------------------------------------------

class _RowidEntry:
    __slots__ = ("schema_version", "payload")

    def __init__(self, schema_version: int, payload: Any) -> None:
        self.schema_version = schema_version
        self.payload = payload


class RowidPlanCache:
    """Compiled rowid-path plans, one cache per database.

    Holds the :class:`CompiledPlan` artifacts of ``find_rowids``
    (equality lookups keyed per column set) and ``select_rowids``
    (predicate closures keyed per :func:`where_signature`).  Entries are
    pinned to the owning relation's schema version: CREATE INDEX / DROP
    TABLE / temp-table recreation invalidates them, while DML never does
    — the artifacts read live tables and indexes, so data drift cannot
    make them wrong, only DDL can.  ``payload=None`` remembers that a
    predicate shape must run interpreted.
    """

    def __init__(self, capacity: int = 512) -> None:
        self.capacity = capacity
        self._entries: dict[tuple, _RowidEntry] = {}
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def get(self, key: tuple, db: "Database", relation_name: str) -> Optional[_RowidEntry]:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        if db.schema_versions.get(relation_name, 0) != entry.schema_version:
            del self._entries[key]
            self.invalidations += 1
            self.misses += 1
            return None
        self.hits += 1
        return entry

    def put(self, key: tuple, db: "Database", relation_name: str, payload: Any) -> None:
        if len(self._entries) >= self.capacity:
            self._entries.pop(next(iter(self._entries)))
        self._entries[key] = _RowidEntry(
            db.schema_versions.get(relation_name, 0), payload
        )

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


# ---------------------------------------------------------------------------
# plan cache
# ---------------------------------------------------------------------------

class _Entry:
    __slots__ = ("schema_versions", "data_versions", "row_counts", "compiled")

    def __init__(
        self,
        schema_versions: dict[str, int],
        data_versions: dict[str, int],
        row_counts: dict[str, int],
        compiled: Optional[CompiledPlan],
    ) -> None:
        self.schema_versions = schema_versions
        self.data_versions = data_versions
        self.row_counts = row_counts
        self.compiled = compiled


class PlanCache:
    """Compiled plans keyed on the logical plan signature.

    Entries are validated against the per-relation schema versions (DDL:
    CREATE/DROP TABLE, CREATE INDEX) and data versions (DML) of the
    relations the plan reads — while DDL/DML against *unrelated*
    relations (e.g. the outside strategy's temp-table churn) leaves the
    entry untouched.

    DDL always invalidates (a compiled plan may hold a dropped index).
    DML is judged by the **re-planning threshold**: a cached join order
    survives while the accumulated DML drift per relation stays within
    ``max(db.replan_min_ops, db.replan_threshold × rows-at-compile-time)``
    — compiled plans read live tables and indexes, so small drift only
    risks a stale *order*, never a wrong *result*.  Past the threshold
    the cardinalities that justified the order are declared stale and
    the plan recompiles against fresh statistics.  ``compiled=None``
    entries remember that a shape must run interpreted.

    A rollback advances the data versions like any DML, but a completed
    full rollback then calls :meth:`rebase`: it restored the begin-state
    rows, so the stamps of entries compiled before ``begin()`` move past
    it, and neither the transaction's changes nor their undo count as
    drift.  A savepoint rollback's drift still counts.
    """

    def __init__(self, capacity: int = 256) -> None:
        self.capacity = capacity
        self._entries: dict[tuple, _Entry] = {}
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        #: validations that saw DML drift below the threshold and kept
        #: the cached plan (the "any DML recompiles" rule would not have)
        self.drift_survivals = 0

    def get(self, signature: tuple, db: "Database") -> Optional[_Entry]:
        entry = self._entries.get(signature)
        if entry is None:
            self.misses += 1
            return None
        if any(
            db.schema_versions.get(relation, 0) != version
            for relation, version in entry.schema_versions.items()
        ):
            return self._invalidate(signature)
        drifted = False
        for relation, version in entry.data_versions.items():
            delta = db.data_versions.get(relation, 0) - version
            if delta == 0:
                continue
            allowed = max(
                db.replan_min_ops,
                int(db.replan_threshold * entry.row_counts.get(relation, 0)),
            )
            if delta > allowed:
                return self._invalidate(signature)
            drifted = True
        if drifted:
            self.drift_survivals += 1
            db.stats["replans_avoided"] += 1
        self.hits += 1
        return entry

    def _invalidate(self, signature: tuple) -> None:
        del self._entries[signature]
        self.invalidations += 1
        self.misses += 1
        return None

    def put(self, signature: tuple, db: "Database",
            compiled: Optional[CompiledPlan],
            relations: set[str]) -> None:
        if len(self._entries) >= self.capacity:
            self._entries.pop(next(iter(self._entries)))
        self._entries[signature] = _Entry(
            {relation: db.schema_versions.get(relation, 0) for relation in relations},
            {relation: db.data_versions.get(relation, 0) for relation in relations},
            {
                relation: len(db.tables[relation]) if relation in db.tables else 0
                for relation in relations
            },
            compiled,
        )

    def rebase(self, mark: Mapping[str, int], now: Mapping[str, int]) -> None:
        """Discount a fully rolled-back transaction's drift.

        *mark* is ``db.data_versions`` at ``begin()``, *now* its value
        once the replay completed.  An entry stamped at or before the
        mark has its stamps shifted by ``now - mark``, so it sees only
        the drift it had at ``begin()``; one stamped after the mark was
        compiled against in-transaction cardinalities and is dropped.
        """
        shift = {
            relation: version - mark.get(relation, 0)
            for relation, version in now.items()
            if version != mark.get(relation, 0)
        }
        if not shift:
            return
        for signature, entry in list(self._entries.items()):
            stamps = entry.data_versions
            touched = [relation for relation in stamps if relation in shift]
            if not touched:
                continue
            if any(stamps[relation] > mark.get(relation, 0) for relation in touched):
                del self._entries[signature]
                self.invalidations += 1
                continue
            for relation in touched:
                stamps[relation] += shift[relation]

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)
