"""Layer 2: static verification of lowered physical plan trees.

Every query path lowers through the one pipeline of
:mod:`repro.rdb.plan`; this module checks the lowered operator tree
*before* it compiles, against the schema and the plan's own structural
invariants:

* **shape** — the tree is ``[Distinct] -> Project -> Sort -> body``
  with only access/join/filter operators inside the body, so the
  output contract (rowid-ordered, shaped rows) cannot be silently
  dropped by a lowering bug;
* **leaf coverage** — every relation of the logical plan appears
  exactly once as a leaf (a double-used or dropped leaf would return
  rows of the wrong arity);
* **column bindings** — every column reference in filter predicates,
  index-probe keys and hash-join keys resolves against the schema of a
  relation bound *below* (or outer to) the referencing operator;
* **index probes** — the probed index belongs to the probed relation,
  is registered with the database, and its key arity matches;
* **hash-join key types** — both sides of an equi-join key agree on
  their type category (text/number/date); untyped temp-table
  materializations are exempt;
* **estimates** — every per-node row estimate satisfies
  ``0 <= est <= input bound`` (child estimate for unary operators, the
  product of child estimates for joins).

Armed via ``REPRO_PLAN_VERIFY=1``, :func:`verify_or_raise` runs as a
debug hook on every lowering and raises
:class:`repro.errors.PlanVerificationError` on any finding.
``repro lint --plans`` sweeps the verifier across the seeded scenario
generator (:func:`sweep_plans`).
"""

from __future__ import annotations

import datetime
import os
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

from ..errors import PlanVerificationError
from ..rdb.database import Database
from ..rdb.expr import ColumnRef, Expr, Literal
from ..rdb.plan import (
    Distinct,
    Filter,
    HashJoin,
    IndexProbe,
    NestedLoopJoin,
    PlanNode,
    Project,
    Scan,
    Sort,
)
from ..rdb.schema import Relation
from ..rdb.types import Date, Double, Integer, SQLType, VarChar

__all__ = [
    "CHECK_ESTIMATE",
    "CHECK_KEY_ARITY",
    "CHECK_KEY_TYPES",
    "CHECK_LEAF_COVERAGE",
    "CHECK_MAINTENANCE",
    "CHECK_SHAPE",
    "CHECK_UNBOUND_COLUMN",
    "CHECK_UNKNOWN_COLUMN",
    "CHECK_UNKNOWN_RELATION",
    "PlanFinding",
    "PlanSweepReport",
    "plan_verify_enabled",
    "sweep_plans",
    "verified_plan_count",
    "verify_maintenance_or_raise",
    "verify_maintenance_plan",
    "verify_or_raise",
    "verify_plan",
]

CHECK_SHAPE = "plan-shape"
CHECK_LEAF_COVERAGE = "plan-leaf-coverage"
CHECK_UNKNOWN_RELATION = "plan-unknown-relation"
CHECK_UNBOUND_COLUMN = "plan-unbound-column"
CHECK_UNKNOWN_COLUMN = "plan-unknown-column"
CHECK_KEY_ARITY = "plan-key-arity"
CHECK_KEY_TYPES = "plan-key-type-mismatch"
CHECK_ESTIMATE = "plan-estimate-bounds"
CHECK_MAINTENANCE = "plan-maintenance"

#: estimate comparisons tolerate float noise, not real violations
_EST_TOLERANCE = 1.0001
_EST_EPSILON = 1e-6


@dataclass(frozen=True)
class PlanFinding:
    """One structural violation in a lowered plan tree."""

    check: str
    detail: str

    def describe(self) -> str:
        return f"{self.check}: {self.detail}"

    def to_dict(self) -> dict[str, Any]:
        return {"check": self.check, "detail": self.detail}


class _Verifier:
    """One verification pass over a lowered tree."""

    def __init__(self, db: Database, expected_names: Optional[Sequence[str]]):
        self.db = db
        self.expected = tuple(expected_names) if expected_names else None
        self.findings: list[PlanFinding] = []
        #: leaf binding name -> relation schema (None when unknown)
        self.bindings: dict[str, Optional[Relation]] = {}
        self.leaf_names: list[str] = []

    def bad(self, check: str, detail: str) -> None:
        self.findings.append(PlanFinding(check, detail))

    # -- entry ----------------------------------------------------------------

    def run(self, root: PlanNode) -> list[PlanFinding]:
        body = self._unwrap_shape(root)
        if body is not None:
            self._body(body, frozenset())
            self._check_leaf_coverage()
        return self.findings

    def _unwrap_shape(self, root: PlanNode) -> Optional[PlanNode]:
        node = root
        if isinstance(node, Distinct):
            node = node.child
        if not isinstance(node, Project):
            self.bad(
                CHECK_SHAPE,
                f"root must be Project (under an optional Distinct), "
                f"got {type(node).__name__}",
            )
            return None
        project = node
        node = node.child
        if not isinstance(node, Sort):
            self.bad(
                CHECK_SHAPE,
                f"Project must sit directly on Sort (the rowid-order "
                f"contract), got {type(node).__name__}",
            )
            return None
        if self.expected is not None:
            if tuple(node.names) != self.expected:
                self.bad(
                    CHECK_SHAPE,
                    f"Sort orders on {node.names!r}, the logical plan "
                    f"binds {self.expected!r}",
                )
            project_names = tuple(item.name for item in project.from_items)
            if project_names != self.expected:
                self.bad(
                    CHECK_SHAPE,
                    f"Project shapes {project_names!r}, the logical plan "
                    f"binds {self.expected!r}",
                )
        return node.child

    # -- body walk ------------------------------------------------------------

    def _body(self, node: PlanNode, outer: frozenset) -> frozenset:
        """Verify the join/filter/access subtree rooted at *node*, with
        *outer* naming the relations already bound by enclosing
        operators; returns the names the subtree binds."""
        self._check_estimate_nonnegative(node)
        if isinstance(node, Scan):
            self._register_leaf(node.name, node.relation_name)
            return frozenset((node.name,))
        if isinstance(node, IndexProbe):
            self._register_leaf(node.name, node.relation_name)
            self._check_index_probe(node, outer)
            return frozenset((node.name,))
        if isinstance(node, Filter):
            inner = self._body(node.child, outer)
            for predicate in node.predicates:
                self._check_refs(predicate, outer | inner, "Filter predicate")
            self._check_estimate_bound(node, node.child.estimated_rows)
            return inner
        if isinstance(node, NestedLoopJoin):
            outer_names = self._body(node.outer, outer)
            inner_names = self._body(node.inner, outer | outer_names)
            self._check_estimate_bound(
                node,
                node.outer.estimated_rows * node.inner.estimated_rows,
            )
            return outer_names | inner_names
        if isinstance(node, HashJoin):
            outer_names = self._body(node.outer, outer)
            # the build side runs standalone, once — outer names are
            # not in scope there
            inner_names = self._body(node.inner, frozenset())
            for _conjunct, outer_expr, inner_expr in node.keys:
                self._check_refs(
                    outer_expr, outer | outer_names, "HashJoin probe key"
                )
                self._check_refs(inner_expr, inner_names, "HashJoin build key")
                self._check_key_types(outer_expr, inner_expr)
            self._check_estimate_bound(
                node,
                node.outer.estimated_rows * node.inner.estimated_rows,
            )
            return outer_names | inner_names
        self.bad(
            CHECK_SHAPE,
            f"{type(node).__name__} may not appear inside the join body "
            f"(only access, filter and join operators belong below Sort)",
        )
        children = node.children()
        bound = frozenset()
        for child in children:
            bound = bound | self._body(child, outer | bound)
        return bound

    # -- leaves ---------------------------------------------------------------

    def _register_leaf(self, name: str, relation_name: str) -> None:
        self.leaf_names.append(name)
        relation = self.db.schema.relations.get(relation_name)
        if relation is None:
            self.bad(
                CHECK_UNKNOWN_RELATION,
                f"leaf {name!r} reads unknown relation {relation_name!r}",
            )
        self.bindings[name] = relation

    def _check_leaf_coverage(self) -> None:
        counts = Counter(self.leaf_names)
        for name, count in sorted(counts.items()):
            if count > 1:
                self.bad(
                    CHECK_LEAF_COVERAGE,
                    f"relation binding {name!r} appears {count} times as "
                    f"a leaf; every logical relation must appear exactly "
                    f"once",
                )
        if self.expected is not None:
            expected = Counter(self.expected)
            for name in sorted(set(expected) - set(counts)):
                self.bad(
                    CHECK_LEAF_COVERAGE,
                    f"logical relation {name!r} has no leaf in the "
                    f"physical tree",
                )
            for name in sorted(set(counts) - set(expected)):
                self.bad(
                    CHECK_LEAF_COVERAGE,
                    f"physical leaf {name!r} binds no relation of the "
                    f"logical plan",
                )

    # -- index probes ---------------------------------------------------------

    def _check_index_probe(self, node: IndexProbe, outer: frozenset) -> None:
        index = node.index
        if index.relation_name != node.relation_name:
            self.bad(
                CHECK_UNKNOWN_RELATION,
                f"IndexProbe {node.name!r} probes index {index.name!r} of "
                f"{index.relation_name!r}, not of {node.relation_name!r}",
            )
        elif index not in self.db.indexes.get(node.relation_name, ()):
            self.bad(
                CHECK_UNKNOWN_RELATION,
                f"IndexProbe {node.name!r} references index {index.name!r} "
                f"that is not registered with the database (dangling after "
                f"DDL?)",
            )
        if len(node.keys) != len(index.columns):
            self.bad(
                CHECK_KEY_ARITY,
                f"IndexProbe {node.name!r} supplies {len(node.keys)} key(s) "
                f"for index {index.name!r} over {len(index.columns)} "
                f"column(s)",
            )
        relation = self.bindings.get(node.name)
        if relation is not None:
            for column in index.columns:
                if column not in relation.attributes:
                    self.bad(
                        CHECK_UNKNOWN_COLUMN,
                        f"index {index.name!r} covers {column!r}, which is "
                        f"not a column of {node.relation_name!r}",
                    )
        for _conjunct, value in node.keys:
            # key values are evaluated against the already-bound outer
            # rows (or the parameter vector) before this leaf binds
            self._check_refs(value, outer, "IndexProbe key")

    # -- column resolution ----------------------------------------------------

    def _check_refs(self, expr: Expr, bound: frozenset, context: str) -> None:
        columns: set[tuple[Optional[str], str]] = set()
        expr._collect_columns(columns)
        for qualifier, column in sorted(
            columns, key=lambda pair: (pair[0] or "", pair[1])
        ):
            if qualifier is None:
                if not any(
                    self.bindings.get(name) is not None
                    and column in self.bindings[name].attributes
                    for name in bound
                ):
                    self.bad(
                        CHECK_UNKNOWN_COLUMN,
                        f"{context} references unqualified column "
                        f"{column!r}, which no relation bound below it "
                        f"provides",
                    )
                continue
            if qualifier not in bound:
                self.bad(
                    CHECK_UNBOUND_COLUMN,
                    f"{context} references {qualifier}.{column}, but "
                    f"{qualifier!r} is not bound below (or outer to) the "
                    f"referencing operator",
                )
                continue
            relation = self.bindings.get(qualifier)
            if relation is not None and column not in relation.attributes:
                self.bad(
                    CHECK_UNKNOWN_COLUMN,
                    f"{context} references {qualifier}.{column}, but "
                    f"{relation.name!r} has no column {column!r}",
                )

    # -- key types ------------------------------------------------------------

    def _type_category(self, expr: Expr) -> Optional[str]:
        if isinstance(expr, ColumnRef) and expr.qualifier is not None:
            relation = self.bindings.get(expr.qualifier)
            if relation is None or relation.temp:
                return None  # unknown or untyped materialization
            attribute = relation.attributes.get(expr.column)
            if attribute is None:
                return None
            return _category_of(attribute.sql_type)
        if isinstance(expr, Literal):
            value = expr.value
            if value is None or isinstance(value, bool):
                return None
            if isinstance(value, (int, float)):
                return "number"
            if isinstance(value, datetime.date):
                return "date"
            if isinstance(value, str):
                return "text"
        return None

    def _check_key_types(self, outer_expr: Expr, inner_expr: Expr) -> None:
        outer_category = self._type_category(outer_expr)
        inner_category = self._type_category(inner_expr)
        if (
            outer_category is not None
            and inner_category is not None
            and outer_category != inner_category
        ):
            self.bad(
                CHECK_KEY_TYPES,
                f"hash-join key compares {outer_expr.to_sql()} "
                f"({outer_category}) with {inner_expr.to_sql()} "
                f"({inner_category}); equi-join keys must agree on their "
                f"type category",
            )

    # -- estimates ------------------------------------------------------------

    def _check_estimate_nonnegative(self, node: PlanNode) -> None:
        est = node.estimated_rows
        if not (est >= 0.0) or est != est or est == float("inf"):
            self.bad(
                CHECK_ESTIMATE,
                f"{type(node).__name__} carries row estimate {est!r}; "
                f"estimates must be finite and >= 0",
            )

    def _check_estimate_bound(self, node: PlanNode, bound: float) -> None:
        est = node.estimated_rows
        if est > bound * _EST_TOLERANCE + _EST_EPSILON:
            self.bad(
                CHECK_ESTIMATE,
                f"{type(node).__name__} estimates {est:g} rows, above its "
                f"input bound {bound:g}; an operator cannot emit more than "
                f"its inputs admit",
            )


def _category_of(sql_type: SQLType) -> Optional[str]:
    if isinstance(sql_type, VarChar):
        return "text"
    if isinstance(sql_type, (Integer, Double)):
        return "number"
    if isinstance(sql_type, Date):
        return "date"
    return None


# ---------------------------------------------------------------------------
# public API
# ---------------------------------------------------------------------------

def verify_plan(
    db: Database,
    root: PlanNode,
    expected_names: Optional[Sequence[str]] = None,
) -> list[PlanFinding]:
    """Statically check one lowered physical tree; returns findings.

    *expected_names* is the ordered relation-binding list of the
    logical plan (FROM-item names); when given, leaf coverage and the
    Sort/Project output contract are checked against it.
    """
    return _Verifier(db, expected_names).run(root)


#: plans verified since import (the sweep and tests read the delta)
_verified_plans = 0


def verified_plan_count() -> int:
    return _verified_plans


def verify_or_raise(
    db: Database,
    root: PlanNode,
    expected_names: Optional[Sequence[str]] = None,
) -> None:
    """The lowering debug hook: verify, count, raise on any finding."""
    global _verified_plans
    findings = verify_plan(db, root, expected_names)
    _verified_plans += 1
    if findings:
        raise PlanVerificationError(
            [finding.describe() for finding in findings],
            plan_text=root.explain(),
        )


def plan_verify_enabled() -> bool:
    """True iff the ``REPRO_PLAN_VERIFY`` debug hook is armed."""
    return os.environ.get("REPRO_PLAN_VERIFY", "") not in ("", "0")


# ---------------------------------------------------------------------------
# maintenance-plan verification
# ---------------------------------------------------------------------------

def verify_maintenance_plan(db: Database, mplan: Any) -> list[PlanFinding]:
    """Statically check a maintenance lowering (:mod:`repro.rdb.ivm`).

    *mplan* is the :class:`~repro.rdb.ivm.MaintenancePlan` the
    maintenance compiler produced.  The invariants, per delta rule:

    * rules cover the plan's FROM names exactly, each over a registered
      relation;
    * the rule's join-completion levels cover every *other* FROM name
      exactly once, never the delta relation itself;
    * every WHERE conjunct is consumed exactly once (as an own filter,
      an equality binding, or a level residual), so no predicate is
      dropped or double-applied;
    * own filters reference only the delta relation; binding value
      expressions reference only relations bound before their level;
      binding and residual conjuncts reference only relations bound at
      their level; binding columns exist in the level's schema.
    """
    findings: list[PlanFinding] = []

    def bad(detail: str) -> None:
        findings.append(PlanFinding(CHECK_MAINTENANCE, detail))

    names = tuple(mplan.names)
    if not names or len(set(names)) != len(names):
        bad(f"FROM names must be non-empty and unique, got {names!r}")
        return findings
    for name in names:
        if name not in db.tables:
            bad(f"rule target {name!r} is not a registered relation")
    if set(mplan.rules) != set(names):
        bad(
            f"rules cover {sorted(mplan.rules)!r}, the plan's FROM "
            f"names are {sorted(names)!r}"
        )
        return findings
    where = mplan.plan.where
    conjuncts = where.conjuncts() if where is not None else []
    expected = sorted(id(conjunct) for conjunct in conjuncts)
    for delta_name, rule in mplan.rules.items():
        level_names = [level.relation for level in rule.levels]
        if delta_name in level_names:
            bad(f"rule {delta_name!r} joins back against its own deltas")
        if sorted(level_names) != sorted(set(names) - {delta_name}):
            bad(
                f"rule {delta_name!r} completes over {level_names!r}, "
                f"expected the other FROM names exactly once each"
            )
        consumed: list[int] = [id(expr) for expr in rule.own]
        for expr in rule.own:
            qualifiers = {
                qualifier for qualifier, _ in expr.columns()
                if qualifier is not None
            }
            if not qualifiers <= {delta_name}:
                bad(
                    f"rule {delta_name!r} own filter {expr.to_sql()} "
                    f"references {sorted(qualifiers)!r}"
                )
        bound = {delta_name}
        for level in rule.levels:
            schema_columns: Optional[set] = None
            if level.relation in db.tables:
                schema_columns = set(
                    db.relation(level.relation).attribute_names
                )
            here = bound | {level.relation}
            for column, value_expr, conjunct in level.bindings:
                consumed.append(id(conjunct))
                if schema_columns is not None and column not in schema_columns:
                    bad(
                        f"rule {delta_name!r} binds unknown column "
                        f"{level.relation}.{column}"
                    )
                value_quals = {
                    qualifier for qualifier, _ in value_expr.columns()
                    if qualifier is not None
                }
                if not value_quals <= bound:
                    bad(
                        f"rule {delta_name!r} binding value for "
                        f"{level.relation}.{column} references unbound "
                        f"{sorted(value_quals - bound)!r}"
                    )
                conjunct_quals = {
                    qualifier for qualifier, _ in conjunct.columns()
                    if qualifier is not None
                }
                if not conjunct_quals <= here:
                    bad(
                        f"rule {delta_name!r} binding conjunct "
                        f"{conjunct.to_sql()} references unbound "
                        f"{sorted(conjunct_quals - here)!r}"
                    )
            for expr in level.residuals:
                consumed.append(id(expr))
                qualifiers = {
                    qualifier for qualifier, _ in expr.columns()
                    if qualifier is not None
                }
                if not qualifiers <= here:
                    bad(
                        f"rule {delta_name!r} residual {expr.to_sql()} at "
                        f"level {level.relation!r} references unbound "
                        f"{sorted(qualifiers - here)!r}"
                    )
            bound = here
        if sorted(consumed) != expected:
            bad(
                f"rule {delta_name!r} consumes {len(consumed)} "
                f"conjunct(s), the plan has {len(expected)} — every "
                f"WHERE conjunct must be applied exactly once"
            )
    return findings


def verify_maintenance_or_raise(db: Database, mplan: Any) -> None:
    """The maintenance-compile debug hook: verify, count, raise."""
    global _verified_plans
    findings = verify_maintenance_plan(db, mplan)
    _verified_plans += 1
    if findings:
        raise PlanVerificationError(
            [finding.describe() for finding in findings],
            plan_text=mplan.plan.to_sql(),
        )


# ---------------------------------------------------------------------------
# scenario sweep (repro lint --plans)
# ---------------------------------------------------------------------------

@dataclass
class PlanSweepReport:
    """Outcome of verifying every plan a scenario sweep lowers."""

    scenarios: int = 0
    updates_checked: int = 0
    plans_verified: int = 0
    divergences: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences

    def describe(self) -> str:
        status = "OK" if self.ok else f"{len(self.divergences)} divergence(s)"
        return (
            f"plan verifier: {self.plans_verified} plan(s) verified over "
            f"{self.scenarios} scenario(s) "
            f"({self.updates_checked} update(s)): {status}"
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "scenarios": self.scenarios,
            "updates_checked": self.updates_checked,
            "plans_verified": self.plans_verified,
            "divergences": [d.to_dict() for d in self.divergences],
            "ok": self.ok,
        }


def sweep_plans(scenarios: int, seed: int = 0) -> PlanSweepReport:
    """Round-trip seeded scenarios with plan verification armed.

    Every plan lowered anywhere in the sweep — probe queries, rowid
    paths, constraint checks, session applies — passes through
    :func:`verify_or_raise`; a verification failure surfaces as an
    ``exception`` divergence of the scenario run (the generator's
    broad catches exist exactly to report escapes as findings).
    """
    from ..core.scenario_gen import run_many

    before = _verified_plans
    previous = os.environ.get("REPRO_PLAN_VERIFY")
    os.environ["REPRO_PLAN_VERIFY"] = "1"
    try:
        summary = run_many(scenarios, seed=seed)
    finally:
        if previous is None:
            del os.environ["REPRO_PLAN_VERIFY"]
        else:
            os.environ["REPRO_PLAN_VERIFY"] = previous
    return PlanSweepReport(
        scenarios=summary.scenarios,
        updates_checked=summary.updates_checked,
        plans_verified=_verified_plans - before,
        divergences=list(summary.divergences),
    )
