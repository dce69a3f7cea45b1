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

from operator import itemgetter
from typing import TYPE_CHECKING, Any, Callable, Mapping, Optional

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
           "compile_tree", "dedup_rows", "extract_where_params",
           "where_signature"]

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

    def resolve(self, ref: ColumnRef) -> Optional[str]:
        """The one FROM-item name *ref* reads from, or None when an
        unqualified column names several (ambiguity is tolerated when
        every candidate agrees — the interpreted resolution decides)."""
        qualifier, column = ref.qualifier, ref.column
        if qualifier is not None:
            known = self.columns_of.get(qualifier)
            if known is None or column not in known:
                # the interpreted executor reports this lazily (and only
                # for rows it actually reaches) — preserve that
                raise Uncompilable(f"unresolvable reference {ref.to_sql()}")
            return qualifier
        candidates = [
            name for name, columns in self.columns_of.items() if column in columns
        ]
        if not candidates:
            raise Uncompilable(f"unknown column {column!r}")
        return candidates[0] if len(candidates) == 1 else None

    def _compile_column(self, ref: ColumnRef) -> EvalFn:
        name, column = self.resolve(ref), ref.column
        if name is None:
            return lambda env, params: ref.eval(env)
        return lambda env, params: env[name][column]


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
            # the sort key only has to order consistently with the
            # interpreted executor's rowid tuples: a rowid for one
            # relation, a tuple of rowids for several (this closure runs
            # once per emitted row)
            sort_key = itemgetter(*sort_node.names)

            def collect(ctx: _Ctx) -> None:
                rowids = ctx.rowids
                ctx.results.append(
                    (sort_key(rowids), project(ctx.env, rowids, ctx.params))
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
            refs = [
                (column.output_name, ColumnRef(column.column, column.qualifier))
                for column in node.columns
            ]
            sources = [self.expr_compiler.resolve(ref) for _label, ref in refs]
            if None not in sources:
                # every column is one slot read: build the row in one
                # comprehension, ROWID keys included
                reads = [
                    (label, name, ref.column)
                    for (label, ref), name in zip(refs, sources)
                ]
                if not node.include_rowids:
                    return lambda env, rowids, params: {
                        label: env[name][column] for label, name, column in reads
                    }
                keys = [(f"{name}.ROWID", name) for name in names]

                def project_slots(env: Env, rowids: dict[str, int], params: Params) -> Row:
                    row = {label: env[name][column] for label, name, column in reads}
                    for key, name in keys:
                        row[key] = rowids[name]
                    return row

                return project_slots
            getters = [
                (label, self.expr_compiler.compile(ref)) for label, ref in refs
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
