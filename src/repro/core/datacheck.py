"""Step 3 — data-driven translatability checking (Section 6).

Two checks need base data:

* the **update context check** (6.1): does the view element being
  inserted into / deleted from actually exist?  A probe query composed
  from the view query and the update's predicates decides (PQ1/PQ2);
* the **update point check** (6.2): does the updated data itself
  conflict with base data (key conflicts for inserts, missing tuples
  for deletes)?

Three strategies implement the point check, mirroring the paper:

* **internal** (6.2.1): map the XML view to the flat relational view of
  Fig. 11 and update through it.  Requires retrieving *all* attributes
  of *all* joined relations to assemble the full view tuple — the
  inefficiency Fig. 15 measures.
* **hybrid** (6.2.2): translate into single-table statements, execute
  them inside a transaction and let the engine's constraint errors (or
  "zero rows" warnings) reveal conflicts; roll back on failure.  Joins
  run against indexed base tables; no intermediate materialization.
* **outside** (6.2.2): materialize the context probe once (an
  *unindexed* temp table), probe each target relation against it before
  issuing any DML, and skip statements whose probes come back empty —
  detecting failed cases early (Fig. 17) at the price of joining
  through the unindexed materialization in successful ones (Fig. 16).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from ..errors import ConstraintViolation, UFilterError
from ..rdb.database import Database
from ..rdb.optimizer import choose_index
from .asg import NodeKind, ViewASG
from .star import (
    CONDITION_DUP_CONSISTENCY,
    CONDITION_MINIMIZATION,
    StarVerdict,
)
from .translation import (
    ProbeResult,
    Translator,
    TupleDelete,
    TupleInsert,
)
from .update_binding import OpResolution, ResolvedUpdate

__all__ = ["DataCheckResult", "DataChecker", "STRATEGIES"]

STRATEGIES = ("internal", "hybrid", "outside")

Row = dict[str, Any]


PlannedOp = Any  # TupleDelete | TupleInsert | TupleUpdate, in execution order


@dataclass
class DataCheckResult:
    strategy: str
    ok: bool = True
    conflict: str = ""
    zero_effect: bool = False
    probes: list[str] = field(default_factory=list)
    statements: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    rows_affected: int = 0
    context_sql: str = ""
    context_rows: int = 0
    #: lazily rendered by :attr:`context_plan` — a thunk until read
    _context_plan: Any = field(default="", repr=False)
    #: the structured translation, in execution order — batch sessions
    #: use these for conflict detection and the deferred apply phase
    planned_ops: list[PlannedOp] = field(default_factory=list)
    #: structured findings from the post-translation QA audit
    #: (:mod:`repro.core.qa`); populated only when the check ran with
    #: ``qa=True``
    qa_findings: list[Any] = field(default_factory=list)

    @property
    def context_plan(self) -> str:
        """EXPLAIN rendering of the context probe's physical plan — the
        operator tree with per-node row estimates (diagnostics for "why
        was this check slow/empty").  Rendered lazily on first read so
        checks that never look at it pay nothing; the rendering reflects
        the plan cache *at read time* — if DML applied after the check
        crossed the re-planning threshold, the tree shown is the one the
        probe would compile to now, not necessarily the one it ran."""
        if callable(self._context_plan):
            try:
                self._context_plan = self._context_plan()
            # Diagnostics-only lazy EXPLAIN: a failed rendering must
            # degrade to a placeholder string, not fail the check that
            # already succeeded (SimulatedCrash is a BaseException and
            # still propagates past this handler).
            # repro: allow[REP003]
            except Exception as exc:  # schema moved on (e.g. DROP TABLE)
                self._context_plan = f"(context plan unavailable: {exc})"
        return self._context_plan

    def mutated_relations(self) -> set[str]:
        """Relations the planned ops write (direct targets only)."""
        return {
            op.relation
            for op in self.planned_ops
            if getattr(op, "relation", None) is not None
        }


class DataChecker:
    """Runs Step 3 and (optionally) applies the translation."""

    def __init__(self, db: Database, asg: ViewASG) -> None:
        self.db = db
        self.asg = asg
        self.translator = Translator(db, asg)
        self._temp_counter = 0
        self._expand_cascades = False
        self._index_temp_tables = False

    # ------------------------------------------------------------------
    # entry point
    # ------------------------------------------------------------------

    def check_and_translate(
        self,
        resolved: ResolvedUpdate,
        verdict: StarVerdict,
        strategy: str = "outside",
        execute: bool = True,
        expand_cascades: bool = False,
        index_temp_tables: bool = False,
        qa: bool = False,
    ) -> DataCheckResult:
        if strategy not in STRATEGIES:
            raise UFilterError(
                f"unknown strategy {strategy!r}; pick one of {STRATEGIES}"
            )
        result = DataCheckResult(strategy=strategy)
        self._expand_cascades = expand_cascades
        self._index_temp_tables = index_temp_tables

        # ---- update context check (6.1) --------------------------------
        target = resolved.target
        assert target is not None
        context: Optional[ProbeResult] = None
        if target.kind is not NodeKind.ROOT:
            # hybrid fetches only what the translation needs (U2/U3 are
            # single-table statements); internal must assemble the full
            # view tuple; outside materializes the full probe result so
            # it can be reused (the paper's TAB_book)
            context = self.translator.run_probe(
                target, resolved, narrow=(strategy == "hybrid")
            )
            result.context_sql = context.sql
            result.context_rows = len(context.rows)
            narrow = strategy == "hybrid"
            result._context_plan = (
                lambda: self.translator.explain_probe(
                    target, resolved, narrow=narrow
                )
            )
            result.probes.append(context.sql)
            if context.empty:
                result.ok = False
                result.conflict = (
                    f"context check: no instance of <{target.name}> "
                    f"satisfies the update's predicates — the element is "
                    f"not in the view"
                )
                return result

        # ---- update point check + translation (6.2) ---------------------
        conditions = set()
        if verdict.condition:
            conditions = {c.strip() for c in verdict.condition.split("+")}
        minimize = CONDITION_MINIMIZATION in conditions
        consistency = CONDITION_DUP_CONSISTENCY in conditions

        if strategy == "hybrid":
            self._run_hybrid(resolved, context, minimize, execute, result)
        elif strategy == "outside":
            self._run_outside(resolved, context, minimize, execute, result)
        else:
            self._run_internal(resolved, context, execute, result)
        if consistency and result.ok:
            result.notes.append(
                "duplication consistency verified against existing tuples"
            )
        if qa:
            self._run_qa(result, resolved, applied=execute)
        return result

    def _run_qa(
        self,
        result: DataCheckResult,
        resolved: ResolvedUpdate,
        *,
        applied: bool,
    ) -> None:
        """Post-translation QA audit (:mod:`repro.core.qa`).

        Pre-apply (``execute=False``) ERROR findings demote the result
        to a conflict — the plan never reaches the apply phase.  After
        an apply, only state-independent checks ran; ERRORs there are
        surfaced on :attr:`DataCheckResult.qa_findings` for the caller
        (the session layer raises / retries on them).
        """
        from .qa import QAAuditor, qa_errors

        auditor = QAAuditor(self.db, self.asg)
        result.qa_findings = auditor.audit(
            result, resolved, applied=applied, strategy=result.strategy
        )
        errors = qa_errors(result.qa_findings)
        if errors and not applied and result.ok:
            result.ok = False
            result.conflict = "QA: " + "; ".join(
                finding.describe() for finding in errors[:3]
            )

    # ------------------------------------------------------------------
    # shared helpers
    # ------------------------------------------------------------------

    def _context_row(self, context: Optional[ProbeResult]) -> Optional[Row]:
        if context is None or context.empty:
            return None
        return context.rows[0]

    def _op_probe(
        self, op: OpResolution, resolved: ResolvedUpdate
    ) -> ProbeResult:
        assert op.node is not None
        return self.translator.run_probe(op.node, resolved)

    def _apply_deletes(
        self, deletes: list[TupleDelete], execute: bool, result: DataCheckResult
    ) -> None:
        for delete in deletes:
            result.statements.append(delete.sql())
            result.planned_ops.append(delete)
            if execute and delete.rowids:
                self.db.faults.hit("datacheck.delete", delete.relation)
                result.rows_affected += self.db.delete(
                    delete.relation, delete.rowids
                )

    def _insert_tuple(
        self, insert: TupleInsert, execute: bool, result: DataCheckResult
    ) -> None:
        result.statements.append(insert.sql())
        result.planned_ops.append(insert)
        if execute:
            self.db.faults.hit("datacheck.insert", insert.relation)
            self.db.insert(insert.relation, insert.values)
            result.rows_affected += 1

    def _is_leaf_replace(self, op: OpResolution) -> bool:
        return (
            op.kind == "replace"
            and op.node is not None
            and op.node.kind in (NodeKind.TAG, NodeKind.LEAF)
        )

    def _apply_leaf_replace(
        self,
        op: OpResolution,
        resolved: ResolvedUpdate,
        execute: bool,
        result: DataCheckResult,
    ) -> None:
        """REPLACE over a simple element becomes a one-attribute UPDATE."""
        probe = self.translator.run_probe(op.node, resolved)
        result.probes.append(probe.sql)
        update = self.translator.build_leaf_replace(op, probe)
        result.statements.append(update.sql())
        result.planned_ops.append(update)
        if not update.rowids:
            result.zero_effect = True
            return
        if execute:
            try:
                self.db.faults.hit("datacheck.replace", update.relation)
                for rowid in sorted(update.rowids):
                    self.db.update(update.relation, rowid, update.changes)
                    result.rows_affected += 1
            except ConstraintViolation as exc:
                result.ok = False
                result.conflict = f"replace rejected by the engine: {exc}"

    def _consistent_with_existing(
        self, insert: TupleInsert, existing: Row
    ) -> bool:
        for attribute, value in insert.values.items():
            if value is None:
                continue
            if existing.get(attribute) != value:
                return False
        return True

    # ------------------------------------------------------------------
    # hybrid strategy
    # ------------------------------------------------------------------

    def _run_hybrid(
        self,
        resolved: ResolvedUpdate,
        context: Optional[ProbeResult],
        minimize: bool,
        execute: bool,
        result: DataCheckResult,
    ) -> None:
        """Translate blindly, execute, trust the engine's errors."""
        own_txn = not self.db.txn.active
        if execute and own_txn:
            self.db.begin()
        try:
            for op in resolved.ops:
                if self._is_leaf_replace(op):
                    self._apply_leaf_replace(op, resolved, execute, result)
                elif op.kind == "delete":
                    # probes here only *feed* the translation (the paper
                    # reuses the context result); emptiness is NOT
                    # checked — the engine's zero-rows warning handles it
                    affected_before = result.rows_affected
                    if self._expand_cascades:
                        self._hybrid_expanded_delete(
                            op, resolved, minimize, execute, result
                        )
                    else:
                        probe = self._op_probe(op, resolved)
                        deletes, notes = self.translator.build_deletes(
                            op, probe, minimize
                        )
                        result.notes.extend(notes)
                        self._apply_deletes(deletes, execute, result)
                    if result.rows_affected == affected_before:
                        result.zero_effect = True
                        result.notes.append(
                            "warning: zero tuples deleted"
                        )
                elif op.kind in ("insert", "replace"):
                    if op.kind == "replace":
                        probe = self._op_probe(op, resolved)
                        deletes, notes = self.translator.build_deletes(
                            op, probe, minimize
                        )
                        result.notes.extend(notes)
                        self._apply_deletes(deletes, execute, result)
                    inserts = self.translator.build_inserts(
                        op, self._context_row(context)
                    )
                    for insert in inserts:
                        try:
                            self._insert_tuple(insert, execute, result)
                        except ConstraintViolation as exc:
                            if insert.role == "supporting":
                                existing = self._existing_row(insert)
                                if existing is not None and (
                                    self._consistent_with_existing(insert, existing)
                                ):
                                    result.notes.append(
                                        f"{insert.relation}: consistent "
                                        f"duplicate — kept existing tuple"
                                    )
                                    continue
                            raise
            if execute and own_txn:
                self.db.commit()
        except ConstraintViolation as exc:
            result.ok = False
            result.conflict = f"engine error: {exc}"
            if execute and own_txn:
                undone = self.db.rollback()
                result.notes.append(f"rolled back {undone} change(s)")

    def _hybrid_expanded_delete(
        self,
        op: OpResolution,
        resolved: ResolvedUpdate,
        minimize: bool,
        execute: bool,
        result: DataCheckResult,
    ) -> None:
        """Expanded mode: one DELETE per subtree relation, deepest first.

        Hybrid pays for *every* statement — the wasted deletes of the
        failed cases in Fig. 17 — because nothing is probed up front.
        """
        subject, members = self.translator.subtree_internal_nodes(op)
        for member in reversed(members):  # deepest first
            probe = self.translator.run_probe(member, resolved, narrow=True)
            deletes, notes = self.translator.member_deletes(
                member, subject, probe, minimize
            )
            result.notes.extend(notes)
            self._apply_deletes_as_statements(deletes, execute, result)

    def _apply_deletes_as_statements(
        self, deletes: list[TupleDelete], execute: bool, result: DataCheckResult
    ) -> None:
        """Execute deletes the way a DELETE *statement* would.

        The hybrid strategy ships ``DELETE ... WHERE key IN (subquery)``
        statements to the engine; each one scans its target relation to
        evaluate the membership predicate — paid even when zero rows
        qualify.  (The outside strategy deletes by ROWID because its
        probe already located the tuples.)
        """
        for delete in deletes:
            result.statements.append(delete.sql())
            result.planned_ops.append(delete)
            if not execute:
                continue
            table = self.db.table(delete.relation)
            matched = []
            for rowid in table.rowids():  # the statement's scan
                self.db.stats["rows_scanned"] += 1
                if rowid in delete.rowids:
                    matched.append(rowid)
            if matched:
                self.db.faults.hit("datacheck.delete", delete.relation)
                result.rows_affected += self.db.delete(delete.relation, matched)

    def _existing_row(self, insert: TupleInsert) -> Optional[Row]:
        probe = self.translator.key_probe(insert)
        if probe is None or probe.empty:
            return None
        row = dict(probe.rows[0])
        row.pop("ROWID", None)
        return row

    # ------------------------------------------------------------------
    # outside strategy
    # ------------------------------------------------------------------

    def _materialize_context(self, context: Optional[ProbeResult]) -> Optional[str]:
        """Write the context probe result into a temp table.

        Plain checks materialize it *unindexed* (the paper's TAB_book);
        with ``index_temp_tables`` the primary-key columns of every
        relation present get an ad-hoc hash index so later probes join
        by index nested loop instead of pure nested loops.
        """
        if context is None:
            return None
        self._temp_counter += 1
        name = f"TAB_ctx_{self._temp_counter}"
        columns: list[str] = []
        rows: list[Row] = []
        for row in context.rows:
            converted = {
                key.replace(".", "__"): value for key, value in row.items()
            }
            rows.append(converted)
            if not columns:
                columns = list(converted)
        if not columns and context.rows == []:
            columns = ["__empty__"]
        index_columns = (
            self._temp_index_columns(columns) if self._index_temp_tables else []
        )
        self.db.create_temp_table(name, columns, rows, index_columns=index_columns)
        return name

    def _temp_index_columns(self, columns: list[str]) -> list[list[str]]:
        """Per-relation primary-key column lists present in the temp table."""
        present = set(columns)
        relations = sorted(
            {column.split("__", 1)[0] for column in columns if "__" in column}
        )
        index_columns: list[list[str]] = []
        for relation in relations:
            if relation not in self.db.schema:
                continue
            key = self.db.relation(relation).primary_key
            if key is None:
                continue
            converted = [f"{relation}__{column}" for column in key.columns]
            if all(column in present for column in converted):
                index_columns.append(converted)
        return index_columns

    def _run_outside(
        self,
        resolved: ResolvedUpdate,
        context: Optional[ProbeResult],
        minimize: bool,
        execute: bool,
        result: DataCheckResult,
    ) -> None:
        """Probe first against the materialization, then issue DML."""
        temp_name = self._materialize_context(context)
        if temp_name is not None:
            result.notes.append(
                f"materialized {len(context.rows) if context else 0} context "
                f"row(s) into {temp_name}"
            )
        try:
            for op in resolved.ops:
                if self._is_leaf_replace(op):
                    self._apply_leaf_replace(op, resolved, execute, result)
                elif op.kind == "delete":
                    if self._expand_cascades:
                        self._outside_expanded_delete(
                            op, resolved, minimize, execute, temp_name, result
                        )
                        continue
                    probe = self._outside_delete_probe(op, resolved, temp_name)
                    result.probes.append(probe.sql)
                    if probe.empty:
                        result.zero_effect = True
                        result.notes.append(
                            "probe found no tuples to delete — statement "
                            "not issued"
                        )
                        continue
                    deletes, notes = self.translator.build_deletes(
                        op, probe, minimize
                    )
                    result.notes.extend(notes)
                    self._apply_deletes(deletes, execute, result)
                elif op.kind in ("insert", "replace"):
                    if op.kind == "replace":
                        probe = self._outside_delete_probe(op, resolved, temp_name)
                        result.probes.append(probe.sql)
                        if not probe.empty:
                            deletes, notes = self.translator.build_deletes(
                                op, probe, minimize
                            )
                            result.notes.extend(notes)
                            self._apply_deletes(deletes, execute, result)
                    inserts = self.translator.build_inserts(
                        op, self._context_row(context)
                    )
                    if not self._outside_insert_probes(inserts, result):
                        return
                    for insert in inserts:
                        if insert.role == "skip":
                            continue
                        self._insert_tuple(insert, execute, result)
        finally:
            if temp_name is not None:
                self.db.drop_table(temp_name)

    def _outside_expanded_delete(
        self,
        op: OpResolution,
        resolved: ResolvedUpdate,
        minimize: bool,
        execute: bool,
        temp_name: Optional[str],
        result: DataCheckResult,
    ) -> None:
        """Expanded mode, probing TOP first with early termination.

        An empty probe at some level implies every deeper level is empty
        too, so the remaining probes and statements are skipped — the
        early failure detection the paper credits the outside strategy
        with (Fig. 17).
        """
        subject, members = self.translator.subtree_internal_nodes(op)
        planned: list[tuple] = []
        for member in members:  # top first
            probe = self.translator.run_probe(member, resolved, narrow=True)
            result.probes.append(probe.sql)
            if temp_name is not None:
                probe = self._verify_against_temp(probe, temp_name)
            if probe.empty:
                result.zero_effect = result.zero_effect or not planned
                result.notes.append(
                    f"probe at <{member.name}> found nothing — deeper "
                    f"statements skipped"
                )
                break
            planned.append((member, probe))
        for member, probe in reversed(planned):  # delete deepest first
            deletes, notes = self.translator.member_deletes(
                member, subject, probe, minimize
            )
            result.notes.extend(notes)
            self._apply_deletes(deletes, execute, result)

    def _verify_against_temp(
        self, probe: ProbeResult, temp_name: str
    ) -> ProbeResult:
        """Membership check against the materialization.

        Only the columns both sides carry are compared (probes may be
        narrow while the materialization holds the full view tuple).
        A probe sharing no columns with the materialization cannot be
        filtered by it and passes through unchanged.

        When the temp table carries an ad-hoc index over a subset of
        the shared columns, the check runs as an index nested loop —
        one hash lookup per probe row plus a residual comparison.
        Without an index, a transient hash table over the shared
        columns is built once (the same degradation path
        ``execute_select`` handles with its hash-join operator), so an
        unindexed TAB_book costs one pass instead of |probe| × |temp|.
        """
        temp_rows = self.db.rows(temp_name)
        if not probe.rows:
            return probe
        shared = [
            key
            for key in temp_rows[0]
            if not key.endswith("__ROWID")
            and key.replace("__", ".", 1) in probe.rows[0]
        ] if temp_rows else []
        if not shared:
            return probe
        # same rule the planner applies: widest index the shared columns pin
        index = choose_index(self.db, temp_name, set(shared))
        verified: list[Row] = []
        if index is not None:
            temp_table = self.db.table(temp_name)
            residual = [key for key in shared if key not in index.columns]
            for row in probe.rows:
                lookup_key = tuple(
                    row.get(column.replace("__", ".", 1))
                    for column in index.columns
                )
                for rowid in sorted(index.lookup(lookup_key)):
                    temp_row = temp_table.get(rowid)
                    self.db.stats["rows_scanned"] += 1
                    if all(
                        row.get(key.replace("__", ".", 1)) == temp_row[key]
                        for key in residual
                    ):
                        verified.append(row)
                        break
            return ProbeResult(sql=probe.sql, rows=verified)
        # no index: one transient hash build over the materialization
        self.db.stats["hash_joins"] += 1
        members: set[tuple] = set()
        for temp_row in temp_rows:
            self.db.stats["rows_scanned"] += 1
            members.add(tuple(temp_row[key] for key in shared))
        probe_keys = [key.replace("__", ".", 1) for key in shared]
        for row in probe.rows:
            if tuple(row.get(key) for key in probe_keys) in members:
                verified.append(row)
        return ProbeResult(sql=probe.sql, rows=verified)

    def _outside_delete_probe(
        self,
        op: OpResolution,
        resolved: ResolvedUpdate,
        temp_name: Optional[str],
    ) -> ProbeResult:
        """PQ4-style probe: join the target against the materialization.

        The temp table carries no indexes, so the join is a raw nested
        loop — the cost the paper attributes to the outside strategy in
        successful cases.  An empty materialization short-circuits.
        """
        assert op.node is not None
        if temp_name is not None and self.db.count(temp_name) == 0:
            return ProbeResult(
                sql=f"-- {temp_name} is empty; probe skipped", rows=[]
            )
        probe = self.translator.run_probe(op.node, resolved)
        if temp_name is None:
            return probe
        verified = self._verify_against_temp(probe, temp_name)
        sql = (
            f"SELECT ROWID FROM {op.node.name} WHERE ... IN "
            f"(SELECT ... FROM {temp_name})"
        )
        return ProbeResult(sql=sql, rows=verified.rows)

    def _outside_insert_probes(
        self, inserts: list[TupleInsert], result: DataCheckResult
    ) -> bool:
        """PQ3-style key probes before inserting.  False on conflict."""
        for insert in inserts:
            probe = self.translator.key_probe(insert)
            if probe is None:
                continue
            result.probes.append(probe.sql)
            if probe.empty:
                continue
            existing = dict(probe.rows[0])
            existing.pop("ROWID", None)
            if insert.role == "driving":
                result.ok = False
                result.conflict = (
                    f"data conflict: a {insert.relation} tuple with the "
                    f"same key already exists"
                )
                return False
            if self._consistent_with_existing(insert, existing):
                insert.role = "skip"
                result.notes.append(
                    f"{insert.relation}: consistent duplicate — kept "
                    f"existing tuple"
                )
            else:
                result.ok = False
                result.conflict = (
                    f"duplication consistency violated: existing "
                    f"{insert.relation} tuple disagrees with the inserted "
                    f"values"
                )
                return False
        return True

    # ------------------------------------------------------------------
    # internal strategy
    # ------------------------------------------------------------------

    def _run_internal(
        self,
        resolved: ResolvedUpdate,
        context: Optional[ProbeResult],
        execute: bool,
        result: DataCheckResult,
    ) -> None:
        """Update through the mapping relational view (Fig. 11)."""
        from ..publishing.relational_view import MappingRelationalView

        view = MappingRelationalView(self.db, self.asg)
        result.notes.append(view.create_view_sql())
        for op in resolved.ops:
            if self._is_leaf_replace(op):
                self._apply_leaf_replace(op, resolved, execute, result)
            elif op.kind == "insert":
                # the full view tuple needs *all* attributes of *all*
                # other relations: a wide probe (Fig. 15's overhead)
                wide: Optional[Row] = self._context_row(context)
                if wide is None and resolved.target is not None:
                    if resolved.target.kind is not NodeKind.ROOT:
                        probe = self.translator.run_probe(
                            resolved.target, resolved
                        )
                        result.probes.append(probe.sql)
                        wide = probe.rows[0] if probe.rows else None
                inserts = self.translator.build_inserts(op, wide)
                # the flat view cannot tell "new child element" apart
                # from "new descendant under an existing child": a
                # driving tuple whose key already exists would be
                # silently skipped by the LEFT-JOIN decomposition even
                # though the XML semantics demand a NEW element — probe
                # the driving keys first (same rule as the outside
                # strategy's PQ3)
                for insert in inserts:
                    if insert.role != "driving":
                        continue
                    probe = self.translator.key_probe(insert)
                    if probe is None or probe.empty:
                        continue
                    result.probes.append(probe.sql)
                    result.ok = False
                    result.conflict = (
                        f"data conflict: a {insert.relation} tuple with "
                        f"the same key already exists"
                    )
                    return
                result.planned_ops.extend(inserts)
                view_row: Row = {}
                if wide is not None:
                    view_row.update(
                        {k: v for k, v in wide.items() if not k.endswith(".ROWID")}
                    )
                for insert in inserts:
                    for attribute, value in insert.values.items():
                        if value is not None:
                            view_row[f"{insert.relation}.{attribute}"] = value
                try:
                    planned = view.plan_insert(view_row)
                    if execute:
                        issued = view.apply_insert(planned)
                        result.rows_affected += len(issued)
                    else:
                        issued = [sql for _relation, _values, sql in planned]
                    result.statements.extend(issued)
                except ConstraintViolation as exc:
                    result.ok = False
                    result.conflict = f"relational view rejected the update: {exc}"
                    return
            elif op.kind == "delete":
                probe = self._op_probe(op, resolved)
                result.probes.append(probe.sql)
                if probe.empty:
                    result.zero_effect = True
                    continue
                deletes, notes = self.translator.build_deletes(
                    op, probe, minimize=True
                )
                result.notes.extend(notes)
                self._apply_deletes(deletes, execute, result)
            else:
                raise UFilterError(
                    "the internal strategy supports insert and delete only"
                )
