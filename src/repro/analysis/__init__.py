"""Static analysis over the engine's own source and plans.

Two layers, one finding vocabulary (the ERROR/WARNING severities of
:mod:`repro.core.qa`):

* :mod:`repro.analysis.linter` — an AST-based **repo invariant linter**
  (``repro lint``).  PRs 2–7 accumulated load-bearing correctness rules
  that previously existed only as prose: undo images are journaled
  before any physical mutation, every storage DML primitive fires a
  named fault site, ``SimulatedCrash`` must sail past broad handlers,
  every row/schema mutation bumps the plan-cache versions, and session
  retry loops may absorb only transient failures.
  :mod:`repro.analysis.rules` encodes each as a checkable rule
  (REP001–REP005) with ``# repro: allow[RULE]`` escape hatches.
* :mod:`repro.analysis.planlint` — a **plan-IR verifier** that checks
  every lowered physical operator tree against the schema and the
  plan's own invariants (column bindings, join-key types, leaf
  coverage, estimate bounds, output shape).  Armed per database via
  ``db.verify_plans`` it runs as a debug hook on lowering; ``repro qa``
  and ``repro faults`` arm it across generated scenarios.
"""

from .findings import SEVERITY_ERROR, SEVERITY_WARNING, LintFinding
from .linter import LintReport, ModuleSource, Rule, lint_paths, lint_source
from .planlint import (
    PlanFinding,
    verify_or_raise,
    verify_plan,
)
from .rules import RULES

__all__ = [
    "LintFinding",
    "LintReport",
    "ModuleSource",
    "PlanFinding",
    "RULES",
    "Rule",
    "SEVERITY_ERROR",
    "SEVERITY_WARNING",
    "lint_paths",
    "lint_source",
    "verify_or_raise",
    "verify_plan",
]
