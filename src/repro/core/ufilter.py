"""The U-Filter pipeline (Fig. 5) and its result taxonomy (Fig. 6).

``UFilter`` wires the three checking steps together:

1. :func:`validate_update` — schema validation against local constraints;
2. :func:`star_check` over the marked ASGs — untranslatable updates are
   rejected, conditions are attached to conditionally translatable ones;
3. :class:`DataChecker` — probe-based context/point checks and, for
   updates that survive, the translated SQL (optionally executed).

The per-update outcome is a :class:`CheckReport`; ``Outcome`` refines
the paper's taxonomy with the data-level results (DATA_CONFLICT for
Step-3 rejections, TRANSLATED once SQL has been produced/applied).

Note on u4-style inserts: the paper's Section 6 walks an insert with a
key conflict through the data check, but its own STAR rules already
classify inserts on unsafe-insert nodes as untranslatable at Step 2
(Observation 2 — BookView's book node is unsafe-insert because the
publisher relation is republished).  The pipeline is faithful to the
formal rules; ``force_data_check=True`` reproduces the Section-6
narrative by sending such updates to Step 3 anyway.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field
from typing import Optional, Union

from ..rdb.database import Database
from ..xquery.ast import ViewQuery
from ..xquery.parser import parse_view_query
from ..xquery.update_ast import ViewUpdate
from ..xquery.update_parser import UpdateTemplates, parse_view_update
from .asg import BaseASG
from .asg_builder import build_base_asg, build_view_asg
from .datacheck import DataChecker, DataCheckResult
from .star import Category, StarVerdict, mark_view_asg, star_check
from .update_binding import ResolvedUpdate, resolve_update
from .validation import ValidationResult, validate_update

__all__ = ["Outcome", "CheckReport", "UFilter"]


class Outcome(enum.Enum):
    INVALID = "invalid"
    UNTRANSLATABLE = "untranslatable"
    CONDITIONALLY_TRANSLATABLE = "conditionally translatable"
    UNCONDITIONALLY_TRANSLATABLE = "unconditionally translatable"
    DATA_CONFLICT = "data conflict"
    TRANSLATED = "translated"

    @property
    def accepted(self) -> bool:
        """True when the update may proceed to (or through) translation."""
        return self in (
            Outcome.CONDITIONALLY_TRANSLATABLE,
            Outcome.UNCONDITIONALLY_TRANSLATABLE,
            Outcome.TRANSLATED,
        )


@dataclass
class CheckReport:
    update: ViewUpdate
    outcome: Outcome
    stage: str                      # validation / star / data / translation
    reason: str = ""
    validation: Optional[ValidationResult] = None
    star: Optional[StarVerdict] = None
    data: Optional[DataCheckResult] = None
    resolved: Optional[ResolvedUpdate] = None
    condition: Optional[str] = None
    #: per-stage wall-clock seconds
    timings: dict[str, float] = field(default_factory=dict)

    @property
    def sql_updates(self) -> list[str]:
        return list(self.data.statements) if self.data else []

    @property
    def probe_queries(self) -> list[str]:
        return list(self.data.probes) if self.data else []

    def summary(self) -> str:
        name = self.update.name or "update"
        lines = [f"{name}: {self.outcome.value} (stage: {self.stage})"]
        if self.reason:
            lines.append(f"  reason: {self.reason}")
        if self.condition:
            lines.append(f"  condition: {self.condition}")
        for probe in self.probe_queries:
            lines.append(f"  probe: {probe}")
        for statement in self.sql_updates:
            lines.append(f"  sql: {statement}")
        return "\n".join(lines)


class UFilter:
    """The lightweight view update checker of the paper.

    Parameters
    ----------
    db:
        The relational database the view is published over.
    view:
        The view definition (query text or parsed :class:`ViewQuery`).
    """

    def __init__(
        self,
        db: Database,
        view: Union[str, ViewQuery],
        cached_asg: Optional[str] = None,
    ) -> None:
        self.db = db
        self.view = parse_view_query(view) if isinstance(view, str) else view
        start = time.perf_counter()
        if cached_asg is not None:
            # §3.1: the compiled graphs are reusable across checker
            # instances — rehydrate instead of re-marking
            from .asg_cache import load_view_asg

            self.view_asg = load_view_asg(cached_asg, db.schema)
        else:
            self.view_asg = build_view_asg(self.view, db.schema)
        self.base_asg: BaseASG = build_base_asg(self.view_asg, db.schema)
        if cached_asg is None:
            mark_view_asg(self.view_asg, self.base_asg)
        #: compile-time STAR marking cost (the paper reports 0.12–0.15 s)
        self.marking_seconds = time.perf_counter() - start
        self.checker = DataChecker(db, self.view_asg)
        #: parsed update shapes, so a text of a known shape is bound
        #: instead of parsed
        self.templates = UpdateTemplates()

    def dump_asg(self) -> str:
        """Serialize the marked view ASG (pass back as ``cached_asg``)."""
        from .asg_cache import dump_view_asg

        return dump_view_asg(self.view_asg)

    # ------------------------------------------------------------------

    def parse(self, update: Union[str, ViewUpdate], name: str = "") -> ViewUpdate:
        """Parse an update text through :attr:`templates`.

        A text whose shape is already known is bound to the shape's
        template and does not call :func:`parse_view_update`; only the
        first text of a shape (and texts of shapes that cannot be
        templated) is parsed.  A span tracer that wraps
        ``parse_view_update`` therefore times misses only; binding a hit
        is part of the time of this method's caller (:meth:`check`,
        ``UpdateSession.add``).
        """
        if isinstance(update, ViewUpdate):
            return update
        return self.templates.parse(update, name, parser=parse_view_update)

    def check(
        self,
        update: Union[str, ViewUpdate],
        strategy: str = "outside",
        execute: bool = False,
        run_data_checks: bool = True,
        force_data_check: bool = False,
        expand_cascades: bool = False,
        index_temp_tables: bool = False,
        qa: bool = False,
    ) -> CheckReport:
        """Run the update through the three-step filter.

        ``execute=True`` applies the translated SQL to the database;
        otherwise probes run read-only and the SQL is only generated.
        ``run_data_checks=False`` stops after Step 2 (schema-only mode).
        ``force_data_check=True`` sends even untranslatable updates to
        Step 3 (Section-6 narrative mode; see the module docstring).
        ``expand_cascades=True`` translates subtree deletes into one
        statement per relation instead of relying on engine cascades.
        ``index_temp_tables=True`` attaches ad-hoc hash indexes to
        materialized probe results (outside strategy), turning its
        temp-table joins into index nested loops.
        ``qa=True`` runs the post-translation QA audit
        (:mod:`repro.core.qa`) over the planned ops; pre-apply ERROR
        findings demote the outcome to DATA_CONFLICT, and all findings
        land on ``report.data.qa_findings``.
        """
        parsed = self.parse(update)
        timings: dict[str, float] = {}

        start = time.perf_counter()
        resolved = resolve_update(self.view_asg, parsed)
        validation = validate_update(self.view_asg, resolved)
        timings["validation"] = time.perf_counter() - start
        if not validation.valid:
            return CheckReport(
                update=parsed,
                outcome=Outcome.INVALID,
                stage="validation",
                reason=validation.reason,
                validation=validation,
                resolved=resolved,
                timings=timings,
            )

        start = time.perf_counter()
        verdict = star_check(self.view_asg, resolved)
        timings["star"] = time.perf_counter() - start
        if verdict.category is Category.UNTRANSLATABLE and not force_data_check:
            return CheckReport(
                update=parsed,
                outcome=Outcome.UNTRANSLATABLE,
                stage="star",
                reason=verdict.reason,
                validation=validation,
                star=verdict,
                resolved=resolved,
                timings=timings,
            )

        if not run_data_checks:
            outcome = (
                Outcome.CONDITIONALLY_TRANSLATABLE
                if verdict.category is Category.CONDITIONALLY_TRANSLATABLE
                else Outcome.UNCONDITIONALLY_TRANSLATABLE
            )
            return CheckReport(
                update=parsed,
                outcome=outcome,
                stage="star",
                reason=verdict.reason,
                validation=validation,
                star=verdict,
                resolved=resolved,
                condition=verdict.condition,
                timings=timings,
            )

        start = time.perf_counter()
        data = self.checker.check_and_translate(
            resolved,
            verdict,
            strategy=strategy,
            execute=execute,
            expand_cascades=expand_cascades,
            index_temp_tables=index_temp_tables,
            qa=qa,
        )
        timings["data"] = time.perf_counter() - start
        if not data.ok:
            return CheckReport(
                update=parsed,
                outcome=Outcome.DATA_CONFLICT,
                stage="data",
                reason=data.conflict,
                validation=validation,
                star=verdict,
                data=data,
                resolved=resolved,
                condition=verdict.condition,
                timings=timings,
            )
        return CheckReport(
            update=parsed,
            outcome=Outcome.TRANSLATED,
            stage="translation",
            reason=verdict.reason,
            validation=validation,
            star=verdict,
            data=data,
            resolved=resolved,
            condition=verdict.condition,
            timings=timings,
        )

    # convenience wrappers ---------------------------------------------------

    def classify(self, update: Union[str, ViewUpdate]) -> Outcome:
        """Schema-level classification only (Steps 1–2, no data access)."""
        return self.check(update, run_data_checks=False).outcome

    def describe_asg(self) -> str:
        return self.view_asg.describe()

    def updatability_matrix(self) -> list[dict[str, str]]:
        """Per-node updatability at view-definition time.

        Keller [22] proposed choosing update translators in a dialog
        when the view is defined; the STAR marks make that dialog
        automatic: for every complex element of the view, report how a
        delete and an insert anchored there would classify — before any
        update ever arrives.  Conditions are named where applicable.
        """
        from .star import CONDITION_DUP_CONSISTENCY, CONDITION_MINIMIZATION

        rows: list[dict[str, str]] = []
        for node in self.view_asg.internal_nodes():
            if node.safe_delete is False:
                delete = "untranslatable"
            elif node.upoint_clean:
                delete = "unconditionally translatable"
            else:
                delete = f"conditional ({CONDITION_MINIMIZATION})"
            if node.safe_insert is False:
                insert = "untranslatable"
            elif node.upoint_clean:
                insert = "unconditionally translatable"
            else:
                insert = f"conditional ({CONDITION_DUP_CONSISTENCY})"
            rows.append(
                {
                    "node": node.node_id,
                    "element": node.name,
                    "mark": node.mark,
                    "delete": delete,
                    "insert": insert,
                    "reason": node.unsafe_reason,
                }
            )
        return rows
