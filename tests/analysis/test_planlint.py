"""Tests for the plan-IR verifier (analysis layer 2).

A clean lowered tree must verify with no findings; hand-corrupted
trees — built from the physical node constructors directly, the way a
lowering bug would build them — must each trip exactly the intended
check.  The sweep smoke test runs the whole seeded scenario pipeline
with ``REPRO_PLAN_VERIFY=1`` armed.
"""

import pytest

from repro.analysis import planlint
from repro.analysis.planlint import (
    CHECK_ESTIMATE,
    CHECK_KEY_TYPES,
    CHECK_LEAF_COVERAGE,
    CHECK_SHAPE,
    CHECK_UNBOUND_COLUMN,
    CHECK_UNKNOWN_COLUMN,
    CHECK_UNKNOWN_RELATION,
    plan_verify_enabled,
    sweep_plans,
    verified_plan_count,
    verify_or_raise,
    verify_plan,
)
from repro.errors import PlanVerificationError
from repro.rdb.expr import ColumnRef, Comparison, Literal
from repro.rdb.plan import (
    Distinct,
    Filter,
    FromItem,
    HashJoin,
    LogicalPlan,
    NestedLoopJoin,
    Project,
    Scan,
    SelectPlan,
    Sort,
    lower_select,
)
from repro.workloads.books import build_book_database

NAMES = ("book", "publisher")


@pytest.fixture()
def db():
    return build_book_database()


def join_key():
    outer = ColumnRef("pubid", "book")
    inner = ColumnRef("pubid", "publisher")
    return (Comparison("=", outer, inner), outer, inner)


def wrap(body, names=NAMES, distinct=False):
    """Give *body* the canonical Project -> Sort shell."""
    root = Project(Sort(body, tuple(names)), "star",
                   [FromItem(name) for name in names])
    return Distinct(root) if distinct else root


def checks(findings):
    return [finding.check for finding in findings]


# ---------------------------------------------------------------------------
# clean trees
# ---------------------------------------------------------------------------

def test_hand_built_join_tree_is_clean(db):
    body = HashJoin(Scan("book", "book"), Scan("publisher", "publisher"),
                    (join_key(),))
    assert verify_plan(db, wrap(body), NAMES) == []


def test_distinct_shell_is_accepted(db):
    body = NestedLoopJoin(Scan("book", "book"), Scan("publisher", "publisher"))
    assert verify_plan(db, wrap(body, distinct=True), NAMES) == []


def test_lowered_plan_is_clean(db):
    plan = SelectPlan(
        from_items=[FromItem("book"), FromItem("publisher")],
        where=Comparison("=", ColumnRef("pubid", "book"),
                         ColumnRef("pubid", "publisher")),
    )
    logical = LogicalPlan.build(plan)
    assert logical is not None
    node, _tree = lower_select(db, logical)
    assert verify_plan(db, node, NAMES) == []


# ---------------------------------------------------------------------------
# corrupted trees, one invariant at a time
# ---------------------------------------------------------------------------

def test_unknown_relation_leaf(db):
    root = wrap(Scan("ghost", "no_such_relation"), names=("ghost",))
    assert CHECK_UNKNOWN_RELATION in checks(verify_plan(db, root, ("ghost",)))


def test_filter_referencing_unknown_column(db):
    body = Filter(Scan("book", "book"),
                  (Comparison("=", ColumnRef("no_such_column", "book"),
                              Literal("x")),))
    findings = verify_plan(db, wrap(body, names=("book",)), ("book",))
    assert checks(findings) == [CHECK_UNKNOWN_COLUMN]


def test_filter_referencing_unbound_relation(db):
    # the predicate names "review", but no leaf below the Filter binds it
    body = Filter(Scan("book", "book"),
                  (Comparison("=", ColumnRef("bookid", "review"),
                              ColumnRef("bookid", "book")),))
    findings = verify_plan(db, wrap(body, names=("book",)), ("book",))
    assert CHECK_UNBOUND_COLUMN in checks(findings)


def test_double_used_leaf(db):
    body = NestedLoopJoin(Scan("book", "book"), Scan("book", "book"))
    findings = verify_plan(db, wrap(body), NAMES)
    assert CHECK_LEAF_COVERAGE in checks(findings)
    assert any("appears 2 times" in f.detail for f in findings)


def test_dropped_leaf(db):
    # logical plan binds two relations, the physical tree scans one
    findings = verify_plan(db, wrap(Scan("book", "book")), NAMES)
    assert CHECK_LEAF_COVERAGE in checks(findings)
    assert any("'publisher'" in f.detail for f in findings)


def test_hash_join_key_type_mismatch(db):
    outer = ColumnRef("price", "book")        # DOUBLE
    inner = ColumnRef("pubname", "publisher")  # VARCHAR
    body = HashJoin(Scan("book", "book"), Scan("publisher", "publisher"),
                    ((Comparison("=", outer, inner), outer, inner),))
    findings = verify_plan(db, wrap(body), NAMES)
    assert CHECK_KEY_TYPES in checks(findings)


def test_negative_estimate(db):
    scan = Scan("book", "book")
    scan.estimated_rows = -1.0
    findings = verify_plan(db, wrap(scan, names=("book",)), ("book",))
    assert CHECK_ESTIMATE in checks(findings)


def test_estimate_above_input_bound(db):
    scan = Scan("book", "book")
    scan.estimated_rows = 4.0
    body = Filter(scan, ())
    body.estimated_rows = 1000.0   # a filter cannot amplify its input
    findings = verify_plan(db, wrap(body, names=("book",)), ("book",))
    assert CHECK_ESTIMATE in checks(findings)


def test_root_without_project_is_a_shape_violation(db):
    findings = verify_plan(db, Scan("book", "book"), ("book",))
    assert checks(findings) == [CHECK_SHAPE]


def test_project_must_sit_on_sort(db):
    root = Project(Scan("book", "book"), "star", [FromItem("book")])
    findings = verify_plan(db, root, ("book",))
    assert checks(findings) == [CHECK_SHAPE]


def test_sort_order_must_match_logical_binding(db):
    body = NestedLoopJoin(Scan("book", "book"), Scan("publisher", "publisher"))
    root = Project(Sort(body, ("publisher", "book")), "star",
                   [FromItem("book"), FromItem("publisher")])
    findings = verify_plan(db, root, NAMES)
    assert CHECK_SHAPE in checks(findings)


def test_project_inside_body_is_rejected(db):
    inner = Project(Scan("book", "book"), "star", [FromItem("book")])
    findings = verify_plan(db, wrap(inner, names=("book",)), ("book",))
    assert CHECK_SHAPE in checks(findings)


# ---------------------------------------------------------------------------
# the raising hook
# ---------------------------------------------------------------------------

def test_verify_or_raise_on_clean_tree(db):
    body = HashJoin(Scan("book", "book"), Scan("publisher", "publisher"),
                    (join_key(),))
    before = verified_plan_count()
    verify_or_raise(db, wrap(body), NAMES)
    assert verified_plan_count() == before + 1


def test_verify_or_raise_carries_findings_and_plan(db):
    body = NestedLoopJoin(Scan("book", "book"), Scan("book", "book"))
    with pytest.raises(PlanVerificationError) as excinfo:
        verify_or_raise(db, wrap(body), NAMES)
    error = excinfo.value
    assert any(CHECK_LEAF_COVERAGE in finding for finding in error.findings)
    assert "Scan book" in error.plan_text


def test_env_hook_arms_lowering(db, monkeypatch):
    plan = SelectPlan(from_items=[FromItem("book")])
    logical = LogicalPlan.build(plan)

    monkeypatch.delenv("REPRO_PLAN_VERIFY", raising=False)
    assert not plan_verify_enabled()
    before = verified_plan_count()
    lower_select(db, logical)
    assert verified_plan_count() == before

    monkeypatch.setenv("REPRO_PLAN_VERIFY", "1")
    assert plan_verify_enabled()
    lower_select(db, logical)
    assert verified_plan_count() == before + 1


# ---------------------------------------------------------------------------
# scenario sweep
# ---------------------------------------------------------------------------

def test_sweep_plans_smoke():
    report = sweep_plans(2, seed=0)
    assert report.ok, report.describe()
    assert report.scenarios == 2
    assert report.plans_verified > 0
    assert "OK" in report.describe()
    assert report.to_dict()["ok"] is True
    # the sweep restores the environment it found
    assert not planlint.plan_verify_enabled()
