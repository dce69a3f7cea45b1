"""The relational database engine: DML with full constraint enforcement.

This is the substrate standing in for Oracle 10g in the paper's
experiments.  It provides:

* typed tuple storage per relation (:class:`repro.rdb.table.Table`),
* automatic hash indexes on PRIMARY KEY / UNIQUE / FOREIGN KEY columns,
* INSERT / DELETE / UPDATE with NOT NULL, CHECK, unique and referential
  integrity enforcement,
* delete policies CASCADE, SET NULL and RESTRICT,
* single-level transactions with undo-log rollback.

Constraint violations raise the exceptions of :mod:`repro.errors`, which
is what the *hybrid* strategy of U-Filter's Step 3 catches — just as the
paper's hybrid strategy "waits for the error or success response" of the
relational engine.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain
from types import SimpleNamespace
from typing import Any, Iterable, Iterator, Mapping, Optional, Sequence

from ..errors import (
    CheckViolation,
    DatabaseError,
    ForeignKeyViolation,
    NotNullViolation,
    PrimaryKeyViolation,
    ReproError,
    SchemaError,
    UniqueViolation,
)
from .compiled import (
    PlanCache,
    RowidPlanCache,
    compile_tree,
    extract_where_params,
    where_signature,
)
from .constraints import DeletePolicy, ForeignKey, PrimaryKey, Unique
from .expr import ColumnRef, Comparison, Expr, Literal
from .faults import FaultInjector
from .index import HashIndex
from .ivm import DeltaLog
from .schema import Attribute, Relation, Schema
from .statistics import StatisticsManager, TableStatistics
from .table import Table
from .transactions import TransactionManager, UndoAction, UndoKind
from .wal import WriteAheadLog, decode_row

__all__ = ["Database", "RecoveryReport"]

Row = dict[str, Any]


@dataclass
class RecoveryReport:
    """What :meth:`Database.recover` found and did."""

    #: journal transaction ids that were incomplete (crashed mid-apply)
    transactions: list[int] = field(default_factory=list)
    #: undo records conditionally applied during rollback
    undo_applied: int = 0
    #: intent records of crashed transactions (durably planned updates
    #: whose apply never finished) — the caller may re-submit these
    pending_intents: list[dict[str, Any]] = field(default_factory=list)
    #: names of intents re-applied when ``recover(redo=True)``
    redone: list[str] = field(default_factory=list)
    #: names of intents whose redo failed (constraints re-raised)
    redo_failed: list[str] = field(default_factory=list)

    @property
    def recovered(self) -> bool:
        """True iff there was crash damage to repair."""
        return bool(self.transactions)


class Database:
    """A populated instance of a :class:`Schema`."""

    def __init__(self, schema: Schema) -> None:
        self.schema = schema
        self.tables: dict[str, Table] = {}
        self.indexes: dict[str, list[HashIndex]] = {}
        self.txn = TransactionManager()
        #: engine statistics exposed to benchmarks and tests
        self.stats = {
            "inserts": 0,
            "deletes": 0,
            "updates": 0,
            "rows_scanned": 0,
            "rollbacks": 0,
            #: SELECT plans executed (probe accounting for batch sessions)
            "selects": 0,
            #: join levels served by an index lookup instead of a scan
            "index_joins": 0,
            #: join levels served by a transient hash table (built once
            #: per execution when equalities exist but no index covers them)
            "hash_joins": 0,
            #: SELECT plans compiled into closures (plan-cache misses)
            "plans_compiled": 0,
            #: SELECT executions served from the compiled-plan cache
            "plan_cache_hits": 0,
            #: compiled plans whose join order differs from FROM order
            "reorders": 0,
            #: statistics (re)builds — one scan per relation per build
            "stats_rebuilds": 0,
            #: rowid-path artifacts compiled (find_rowids access decisions
            #: + select_rowids predicate closures; cache misses)
            "rowid_plans_compiled": 0,
            #: find_rowids / select_rowids probes served from the
            #: compiled rowid-plan cache
            "rowid_cache_hits": 0,
            #: plan-cache validations that saw DML drift below the
            #: re-planning threshold and kept the cached plan
            "replans_avoided": 0,
            #: compiled plans whose join tree is bushy (some join's
            #: build side is itself a join) — the DP enumerator found a
            #: tree no left-deep order could express
            "bushy_plans": 0,
            #: crash recoveries performed (incomplete journal txns repaired)
            "recoveries": 0,
            #: inert, always 0: perfbench/harness.py reads these two
            "vectorized_plans": 0,
            "vector_fallbacks": 0,
            #: cached probe results kept current by applying DML deltas
            #: (one maintenance pass per entry per drain)
            "ivm_maintained": 0,
            #: maintained entries dropped to full recompute (bulk
            #: markers, unsupported plan shapes, oversized deltas,
            #: multiplicity conflicts)
            "ivm_fallbacks": 0,
            #: signed delta rows streamed into maintained entries
            #: (an update counts as retract + assert)
            "ivm_delta_rows": 0,
        }
        #: deterministic fault-injection registry shared with every
        #: table and index of this database (disarmed: near-zero cost)
        self.faults = FaultInjector()
        #: write-ahead journal; ``None`` until :meth:`attach_wal` —
        #: journaling is opt-in so the pure in-memory paths stay free
        self.wal: Optional[WriteAheadLog] = None
        #: open journal transaction id (volatile bookkeeping)
        self._wal_txn: Optional[int] = None
        #: set while an undo log replays — replay mutations must not
        #: journal undo-of-undo records
        self._replaying = False
        #: bumped by every :meth:`recover` that repaired damage, so
        #: sessions can notice and drop volatile caches (probe results)
        self.recovery_epoch = 0
        #: compiled SELECT plans keyed on structural signature
        self.plan_cache = PlanCache()
        #: compiled single-relation rowid paths (find_rowids access
        #: decisions, select_rowids predicate closures)
        self.rowid_plans = RowidPlanCache()
        #: per-relation statistics (row counts, distinct counts,
        #: equi-depth histograms, null fractions) feeding the planner
        self.statistics = StatisticsManager(self)
        #: inert, always 0: perfbench/harness.py reads ``columns.builds``
        self.columns = SimpleNamespace(builds=0)
        #: inert: perfbench/harness.py reads it as a knob
        self.vectorize_threshold = 512
        #: row-level DML event stream feeding incremental probe
        #: maintenance (:mod:`repro.rdb.ivm`); recording starts when a
        #: session opts in, so loads and engine-only workloads pay nothing
        self.deltas = DeltaLog()
        #: maintenance cost ceiling: a cached probe whose pending delta
        #: exceeds this many rows recomputes instead (``math.inf``
        #: maintains every delta)
        self.ivm_threshold: float = 256
        #: debug hook: statically verify every lowered plan and every
        #: maintenance plan before it compiles
        #: (:mod:`repro.analysis.planlint`), raising
        #: :class:`~repro.errors.PlanVerificationError` on any finding
        self.verify_plans = False
        #: bumped when the FK graph can change (CREATE/DROP of non-temp
        #: relations) — sessions key their cascade-closure memo on it;
        #: temp-table churn must not thrash that memo
        self.fk_epoch = 0
        #: re-planning threshold: a cached plan survives DML drift of up
        #: to ``max(replan_min_ops, replan_threshold × rows-at-compile)``
        #: modified rows per read relation before the join order is
        #: declared stale (setting BOTH knobs to 0 restores the old
        #: "any DML recompiles" rule)
        self.replan_threshold = 0.2
        self.replan_min_ops = 2
        #: force every query path onto the interpreted executors
        #: (``execute_select(optimize=False)`` and ``find_rowids`` /
        #: ``select_rowids(compiled=False)``) — the semantic-oracle
        #: switch the translation QA scenario generator flips on a clone
        #: to cross-check compiled results end to end
        self.oracle_mode = False
        #: set while an undo log replays so per-row version bumps can be
        #: coalesced into one bump per relation per rollback
        self._coalesce_versions = False
        #: planner drift bookkeeping at :meth:`begin` (``data_versions``
        #: and each statistics object's drift counter), handed back by a
        #: completed full :meth:`rollback`; ``None`` outside a transaction
        self._planner_mark: Optional[
            tuple[dict[str, int], list[tuple[TableStatistics, int]]]
        ] = None
        #: per-relation DDL counters (CREATE/DROP TABLE, CREATE INDEX) —
        #: compiled plans referencing stale schema objects are discarded,
        #: while temp-table churn leaves unrelated cached plans alone
        self.schema_versions: dict[str, int] = {}
        #: per-relation DML counters — a cached join order never outlives
        #: the cardinalities that justified it
        self.data_versions: dict[str, int] = {}
        for relation in schema:
            self.tables[relation.name] = self._adopt(
                Table(relation.name, relation.attribute_names)
            )
            self.indexes[relation.name] = [
                self._adopt(index) for index in self._build_indexes(relation)
            ]

    def _adopt(self, storage: Any) -> Any:
        """Share this database's fault injector with a table/index."""
        storage.faults = self.faults
        return storage

    @staticmethod
    def _build_indexes(relation: Relation) -> Iterator[HashIndex]:
        seen: set[tuple[str, ...]] = set()
        counter = 0
        for constraint in relation.constraints:
            if isinstance(constraint, Unique):
                columns = tuple(constraint.columns)
                unique = True
            elif isinstance(constraint, ForeignKey):
                columns = tuple(constraint.columns)
                unique = False
            else:
                continue
            if columns in seen:
                continue
            seen.add(columns)
            counter += 1
            prefix = "pk" if isinstance(constraint, PrimaryKey) else (
                "uq" if unique else "fk"
            )
            yield HashIndex(
                name=f"{prefix}_{relation.name}_{counter}",
                relation_name=relation.name,
                columns=columns,
                unique=unique,
            )

    # ------------------------------------------------------------------
    # DDL after construction
    # ------------------------------------------------------------------

    def add_relation(self, relation: Relation) -> None:
        """CREATE TABLE: register a new relation with its indexes."""
        self.schema.add_relation(relation)
        self.schema._validate_foreign_keys()
        self.tables[relation.name] = self._adopt(
            Table(relation.name, relation.attribute_names)
        )
        self.indexes[relation.name] = [
            self._adopt(index) for index in self._build_indexes(relation)
        ]
        self.fk_epoch += 1
        self._bump_schema_version(relation.name)

    def create_temp_table(
        self,
        name: str,
        columns: Sequence[str],
        rows: Iterable[Mapping[str, Any]] = (),
        index_columns: Sequence[Sequence[str]] = (),
    ) -> None:
        """Materialize a probe-query result as a temp table.

        This models the paper's ``TAB_book`` materialized view.  By
        default the table carries no indexes — the outside strategy's
        joins against it fall back to scans, the asymmetry behind
        Fig. 16.  ``index_columns`` lifts that limitation: each entry
        names a column list to cover with an ad-hoc hash index, turning
        those joins into index nested loops.
        """
        from .types import VarChar

        if name in self.tables:
            self.drop_table(name)
        relation = Relation(name, [Attribute(c, VarChar(4000)) for c in columns])
        relation.temp = True
        self.schema.add_relation(relation)
        self.tables[name] = self._adopt(Table(name, relation.attribute_names))
        self.indexes[name] = []
        table = self.tables[name]
        self._bump_schema_version(name)
        for row in rows:
            table.insert_row(row)
        for column_list in index_columns:
            self.create_index(name, column_list)

    def create_index(
        self,
        relation_name: str,
        columns: Sequence[str],
        unique: bool = False,
        name: Optional[str] = None,
    ) -> HashIndex:
        """CREATE INDEX: build an ad-hoc hash index over existing rows.

        Unlike the automatic PK/UNIQUE/FK indexes built at CREATE TABLE
        time, ad-hoc indexes can be added later — in particular on
        materialized probe results, whose join columns the schema knows
        nothing about.
        """
        table = self.table(relation_name)
        known = set(self.relation(relation_name).attribute_names)
        unknown = set(columns) - known
        if unknown:
            raise SchemaError(
                f"cannot index unknown column(s) {sorted(unknown)} "
                f"of {relation_name!r}"
            )
        index = self._adopt(HashIndex(
            name=name or f"adhoc_{relation_name}_{len(self.indexes[relation_name]) + 1}",
            relation_name=relation_name,
            columns=tuple(columns),
            unique=unique,
        ))
        index.add_rows(table.scan())
        self.indexes[relation_name].append(index)
        self._bump_schema_version(relation_name)
        return index

    def drop_table(self, name: str) -> None:
        relation = self.schema.relations.get(name)
        if relation is not None and not getattr(relation, "temp", False):
            self.fk_epoch += 1
        self.schema.drop_relation(name)
        self.tables.pop(name, None)
        self.indexes.pop(name, None)
        self.statistics.forget(name)
        self._bump_schema_version(name)

    def _bump_schema_version(self, relation_name: str) -> None:
        self.schema_versions[relation_name] = (
            self.schema_versions.get(relation_name, 0) + 1
        )
        # DDL invalidates any maintained result over the relation the
        # same way it invalidates compiled plans
        if self.deltas.enabled:
            self.deltas.record_bulk(relation_name)

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------

    def table(self, relation_name: str) -> Table:
        try:
            return self.tables[relation_name]
        except KeyError:
            raise SchemaError(f"unknown relation {relation_name!r}") from None

    def relation(self, relation_name: str) -> Relation:
        return self.schema.relation(relation_name)

    def row(self, relation_name: str, rowid: int) -> Row:
        return dict(self.table(relation_name).get(rowid))

    def count(self, relation_name: str) -> int:
        return len(self.table(relation_name))

    def rows(self, relation_name: str) -> list[Row]:
        return [dict(row) for _, row in self.table(relation_name).scan()]

    def index_on(self, relation_name: str, columns: Iterable[str]) -> Optional[HashIndex]:
        """An index covering exactly *columns*, if one exists."""
        wanted = set(columns)
        for index in self.indexes.get(relation_name, ()):
            if index.matches(wanted):
                return index
        return None

    def analyze(self, relation_name: Optional[str] = None) -> int:
        """ANALYZE: rebuild planner statistics eagerly, now.

        Statistics normally build lazily on first planner access and
        rebuild lazily once DML drift crosses the staleness threshold —
        which means the first probe after heavy DML pays the rebuild
        scan.  Call this after bulk loads (benchmark setup does) to move
        that cost off the query path.  Returns the number of relations
        analyzed.
        """
        return self.statistics.analyze(relation_name)

    def find_rowids(
        self,
        relation_name: str,
        equalities: Mapping[str, Any],
        compiled: bool = True,
    ) -> set[int]:
        """Rowids whose columns equal *equalities* (index-assisted).

        The equality dictionary lowers to the shared plan IR
        (:func:`repro.rdb.plan.lower_rowid_plan`: one ``col = ?``
        conjunct per column) and compiles once per (relation,
        column-set) signature, cached until DDL touches the relation; a
        probe that is one covering index lookup is served straight from
        the bucket.  SQL NULL semantics hold on every path: a
        NULL-valued probe matches nothing.  ``compiled=False`` forces
        the interpreted per-call decision, kept as the semantic oracle.
        """
        table = self.table(relation_name)
        if not equalities:
            return set(table.rowids())
        if not compiled or self.oracle_mode:
            return self._find_rowids_interpreted(table, equalities)
        columns = frozenset(equalities)
        key = ("access", relation_name, columns)
        entry = self.rowid_plans.get(key, self, relation_name)
        if entry is not None:
            plan = entry.payload
            if plan is not None:
                self.stats["rowid_cache_hits"] += 1
        else:
            plan = self._compile_rowid_equalities(relation_name, columns)
        if plan is None:
            return self._find_rowids_interpreted(table, equalities)
        params = tuple(equalities[column] for column in sorted(columns))
        return plan.run_rowid_set(self, params)

    def _compile_rowid_equalities(
        self, relation_name: str, columns: frozenset
    ) -> Optional[Any]:
        from .plan import lower_rowid_plan

        conjuncts: list[Expr] = [
            Comparison("=", ColumnRef(column, relation_name), Literal(None))
            for column in sorted(columns)
        ]
        root = lower_rowid_plan(self, relation_name, conjuncts)
        plan = compile_tree(self, root, conjuncts, count_index_joins=False)
        self.rowid_plans.put(
            ("access", relation_name, columns), self, relation_name, plan
        )
        if plan is not None:
            self.stats["rowid_plans_compiled"] += 1
        return plan

    def _find_rowids_interpreted(
        self, table: Table, equalities: Mapping[str, Any]
    ) -> set[int]:
        """The pre-compilation scan: per-call index pick, dict-driven
        residual checks.  The oracle compiled lookups must agree with."""
        if any(value is None for value in equalities.values()):
            # SQL equality (defined once in the IR's predicate lowering,
            # repro.rdb.plan): NULL matches nothing, on every path
            return set()
        relation_name = table.relation_name
        index = self.index_on(relation_name, equalities.keys())
        if index is not None:
            key = tuple(equalities[column] for column in index.columns)
            return index.lookup(key)
        candidates: Optional[set[int]] = None
        for index in self.indexes.get(relation_name, ()):
            if set(index.columns) <= set(equalities):
                key = tuple(equalities[column] for column in index.columns)
                candidates = index.lookup(key)
                break
        result = set()
        if candidates is not None:
            for rowid in candidates:
                row = table.get(rowid)
                self.stats["rows_scanned"] += 1
                if all(row.get(c) == v for c, v in equalities.items()):
                    result.add(rowid)
            return result
        for rowid, row in table.scan():
            self.stats["rows_scanned"] += 1
            if all(row.get(c) == v for c, v in equalities.items()):
                result.add(rowid)
        return result

    def select_rowids(
        self,
        relation_name: str,
        predicate: Optional[Expr],
        compiled: bool = True,
    ) -> list[int]:
        """Rowids satisfying a predicate over this single relation.

        The predicate lowers to the shared plan IR and compiles once
        per literal-agnostic signature into closures (an index probe
        when literal equalities pin an indexed column set) cached until
        DDL touches the relation; constants travel as a parameter
        vector, so repeated same-shape probes skip both analysis and
        compilation.  ``compiled=False`` (and shapes the compiler does
        not understand) runs the interpreted per-row ``Expr`` walk —
        the semantic oracle.

        Rowids come back in ascending order on every path: insertion
        (scan) order drifts once undo restores re-append old rowids,
        so sorting is the one ordering both executors can agree on.
        """
        from .plan import lower_rowid_plan

        table = self.table(relation_name)
        if predicate is None or not compiled or self.oracle_mode:
            return self._select_rowids_interpreted(table, relation_name, predicate)
        signature = where_signature(predicate)
        if signature is None:
            return self._select_rowids_interpreted(table, relation_name, predicate)
        key = ("predicate", relation_name, signature)
        entry = self.rowid_plans.get(key, self, relation_name)
        if entry is None:
            conjuncts = predicate.conjuncts()
            root = lower_rowid_plan(self, relation_name, conjuncts)
            plan = compile_tree(self, root, conjuncts, count_index_joins=False)
            self.rowid_plans.put(key, self, relation_name, plan)
            if plan is not None:
                self.stats["rowid_plans_compiled"] += 1
        else:
            plan = entry.payload
            if plan is not None:
                self.stats["rowid_cache_hits"] += 1
        if plan is None:
            return self._select_rowids_interpreted(table, relation_name, predicate)
        return plan.run(self, extract_where_params(predicate))

    def _select_rowids_interpreted(
        self, table: Table, relation_name: str, predicate: Optional[Expr]
    ) -> list[int]:
        matched = []
        for rowid, row in table.scan():
            self.stats["rows_scanned"] += 1
            env = {relation_name: row}
            if predicate is None or predicate.eval(env) is True:
                matched.append(rowid)
        matched.sort()
        return matched

    # ------------------------------------------------------------------
    # constraint checking helpers
    # ------------------------------------------------------------------

    def _coerce(self, relation: Relation, values: Mapping[str, Any]) -> Row:
        row: Row = {}
        for name, attribute in relation.attributes.items():
            row[name] = attribute.sql_type.coerce(values.get(name))
        unknown = set(values) - set(relation.attributes)
        if unknown:
            raise SchemaError(
                f"unknown column(s) {sorted(unknown)} for {relation.name!r}"
            )
        return row

    def _check_not_null(self, relation: Relation, row: Row) -> None:
        for column in relation.not_null_columns():
            if row.get(column) is None:
                raise NotNullViolation(
                    f"{relation.name}.{column} may not be NULL"
                )

    def _check_checks(self, relation: Relation, row: Row) -> None:
        env = {relation.name: row}
        for check in relation.check_constraints:
            if check.expression.eval(env) is False:
                raise CheckViolation(
                    f"{relation.name}: CHECK ({check.expression.to_sql()}) "
                    f"violated by {row!r}"
                )

    def _check_unique(
        self, relation: Relation, row: Row, ignore: Optional[int] = None
    ) -> None:
        for index in self.indexes[relation.name]:
            if index.would_conflict(row, ignore=ignore):
                message = (
                    f"{relation.name}: duplicate key "
                    f"({', '.join(index.columns)}) = "
                    f"{tuple(row.get(c) for c in index.columns)!r}"
                )
                if index.name.startswith("pk_"):
                    raise PrimaryKeyViolation(message)
                raise UniqueViolation(message)

    def _check_foreign_keys(self, relation: Relation, row: Row) -> None:
        for fk in relation.foreign_keys:
            key = tuple(row.get(column) for column in fk.columns)
            if any(component is None for component in key):
                continue  # NULL FK components never violate (SQL MATCH SIMPLE)
            parents = self.find_rowids(
                fk.ref_relation, dict(zip(fk.ref_columns, key))
            )
            if not parents:
                raise ForeignKeyViolation(
                    f"{relation.name}({', '.join(fk.columns)}) = {key!r} has "
                    f"no parent in {fk.ref_relation}"
                )

    # ------------------------------------------------------------------
    # physical operations (index maintenance only, no constraints)
    # ------------------------------------------------------------------

    def _bump_data_version(self, relation_name: str, count: int = 1) -> None:
        if self._coalesce_versions:
            return  # one bump per relation per rollback (see _replay_undo)
        if self._planner_mark is not None and not self.txn.active:
            # a mutation outside the transaction (between an interrupted
            # rollback and its resume): the rollback will not restore
            # the begin-state, so it must not rebase the planner
            self._planner_mark = None
        self.data_versions[relation_name] = (
            self.data_versions.get(relation_name, 0) + count
        )

    def _journals(self) -> bool:
        """Whether a mutation made now writes its undo image to the
        journal: a WAL is attached, a journal txn is open, and this is
        not a rollback replay."""
        return self.wal is not None and self._wal_txn is not None \
            and not self._replaying

    def _journal_undo(
        self,
        kind: str,
        relation_name: str,
        rowid: int,
        old_values: Optional[Mapping[str, Any]] = None,
    ) -> None:
        """Write one undo image to the journal *before* the mutation.

        Undo-of-undo is never journaled: rollback replays are repaired
        after a crash by re-running the journal's original records
        (conditional application makes that idempotent).
        """
        if not self._journals():
            return
        self.faults.hit("wal.record", relation_name)
        self.wal.log_undo(self._wal_txn, kind, relation_name, rowid, old_values)

    def _physical_insert(self, relation_name: str, row: Row) -> int:
        self._bump_data_version(relation_name)
        table = self.table(relation_name)
        self._journal_undo("insert", relation_name, table.next_rowid())
        # table + statistics form the primitive's atomic core (no
        # injection site between them); index maintenance comes last so
        # a transient fault mid-loop leaves a tear the conditional undo
        # fully repairs — re-adding a present entry and removing an
        # absent one are both no-ops
        rowid = table.insert_row(row)
        stored = table.get(rowid)
        self.statistics.on_insert(relation_name, stored)
        for index in self.indexes[relation_name]:
            index.add(rowid, stored)
        # recorded only once the mutation fully landed: a fault above
        # leaves no event, and the rollback that repairs the tear
        # records a bulk marker instead (see _replay_undo)
        if self.deltas.enabled and not self._replaying:
            self.deltas.record_insert(relation_name, rowid, stored)
        return rowid

    # The two batch primitives run the same steps as the single-row
    # ones, but only the steps that must interleave with the table stay
    # in the row loop: per row, the undo image is journaled (when the
    # batch journals at all) and the table mutated.  Every other sink
    # takes the batch once: each index, and, in a ``finally``, the
    # statistics and then the delta log, for the rows whose table change
    # landed, in row order.  Index upkeep sits on the side of the table
    # change that keeps a torn batch repairable, because a resumed undo
    # picks rows by table presence: a delete leaves every index first,
    # so a fault anywhere leaves rows still stored that the resumed undo
    # deletes again; a restore indexes, in the ``finally``, the rows
    # whose table change landed, so a fault at row k still indexes rows
    # 1..k-1.  Re-removing an absent entry and re-adding a present one
    # are both no-ops.

    def _physical_delete_rows(
        self, relation_name: str, images: Sequence[tuple[int, Row]]
    ) -> None:
        """Remove the stored rows of *images*, ``(rowid, stored row)``
        pairs (all present), as one batch."""
        self._bump_data_version(relation_name, len(images))
        table = self.table(relation_name)
        for index in self.indexes[relation_name]:
            index.remove_rows(images)
        journal = self._journals()
        landed = 0
        try:
            for rowid, image in images:
                if journal:
                    self._journal_undo("delete", relation_name, rowid, image)
                table.delete_row(rowid)
                landed += 1
        finally:
            if landed:
                gone = images[:landed]
                self.statistics.on_delete_rows(
                    relation_name, [row for _rowid, row in gone]
                )
                if self.deltas.enabled and not self._replaying:
                    for rowid, row in gone:
                        self.deltas.record_delete(relation_name, rowid, row)

    def _physical_restore_rows(
        self, relation_name: str, images: Sequence[tuple[int, Mapping[str, Any]]]
    ) -> None:
        """Store each ``(rowid, image)`` (all absent) under its own
        rowid as one batch: the undo of a delete, and :meth:`clone`."""
        self._bump_data_version(relation_name, len(images))
        table = self.table(relation_name)
        journal = self._journals()
        stored: list[tuple[int, Row]] = []
        try:
            for rowid, image in images:
                if journal:
                    self._journal_undo("insert", relation_name, rowid)
                stored.append((rowid, table.restore_row(rowid, image)))
        finally:
            if stored:
                self.statistics.on_insert_rows(
                    relation_name, [row for _rowid, row in stored]
                )
                if self.deltas.enabled and not self._replaying:
                    for rowid, row in stored:
                        self.deltas.record_insert(relation_name, rowid, row)
                for index in self.indexes[relation_name]:
                    index.add_rows(stored)

    def _physical_update(
        self, relation_name: str, rowid: int, changes: Mapping[str, Any]
    ) -> Row:
        self._bump_data_version(relation_name)
        table = self.table(relation_name)
        row = table.get(rowid)
        self._journal_undo(
            "update",
            relation_name,
            rowid,
            {column: row.get(column) for column in changes},
        )
        old = table.update_row(rowid, changes)
        self.statistics.on_update(relation_name, old, changes)
        current = table.get(rowid)
        for index in self.indexes[relation_name]:
            if changes.keys().isdisjoint(index.columns):
                continue  # its key is unchanged, so is its bucket
            index.remove(rowid, old)
            index.add(rowid, current)
        if self.deltas.enabled and not self._replaying:
            self.deltas.record_update(relation_name, rowid, old, current)
        return old

    # ------------------------------------------------------------------
    # DML
    # ------------------------------------------------------------------

    @contextmanager
    def _autocommit_journal(self) -> Iterator[None]:
        """Give a statement outside any transaction its own undo scope
        and journal txn.

        An auto-commit statement can still be multi-mutation (cascaded
        deletes, SET NULL fixups), so it must be atomic on its own.  An
        ordinary exception means the engine kept control: the
        statement's undo log is replayed before the exception goes on,
        and the journal txn is marked aborted — the statement leaves no
        trace.  Should that replay itself be interrupted, its tail stays
        pending, and the journal txn open, for :meth:`rollback` to
        resume, exactly as after an interrupted rollback.  A
        :class:`~repro.rdb.faults.SimulatedCrash` (``BaseException``)
        leaves the journal txn endless for recovery.
        """
        if self._replaying or not self.txn.open_statement():
            yield
            return
        journal = self.wal is not None and self._wal_txn is None
        if journal:
            self._wal_txn = self.wal.begin_txn()
        resumable = False
        try:
            yield
        # repro: allow[REP003] — deliberately blind to SimulatedCrash:
        # only an *engine-controlled* failure may undo the statement and
        # mark the journal txn aborted; a crash (BaseException) must
        # leave it endless so recovery sees it.  Re-raises, never
        # swallows.
        except Exception:
            resumable = True  # until the replay completes
            self._replay_undo(
                self.txn.close_statement(failed=True), site="undo.rollback"
            )
            resumable = False
            if journal:
                self.wal.end_txn(self._wal_txn, "abort")
            raise
        else:
            if journal:
                self.wal.end_txn(self._wal_txn, "commit")
                self.wal.checkpoint()
        finally:
            self.txn.close_statement(failed=False)
            if journal and not resumable:
                self._wal_txn = None

    def insert(self, relation_name: str, values: Mapping[str, Any]) -> int:
        """INSERT a tuple, enforcing every constraint.  Returns the rowid."""
        relation = self.relation(relation_name)
        row = self._coerce(relation, values)
        self._check_not_null(relation, row)
        self._check_checks(relation, row)
        self._check_unique(relation, row)
        self._check_foreign_keys(relation, row)
        with self._autocommit_journal():
            # undo is recorded *before* the mutation (the rowid the
            # table will allocate is deterministic): a fault inside the
            # physical insert leaves a row the rollback can still find
            rowid = self.table(relation_name).next_rowid()
            self.txn.record(UndoAction(UndoKind.INSERT, relation_name, rowid))
            allocated = self._physical_insert(relation_name, row)
            assert allocated == rowid
        self.stats["inserts"] += 1
        return rowid

    def delete(self, relation_name: str, rowids: Iterable[int]) -> int:
        """DELETE the given rows, honouring each FK's delete policy.

        The rows form one batch, and the cascade proceeds set at a time
        (see :meth:`_delete_batch`): every index is maintained once per
        batch, not once per row.  Absent and repeated rowids are
        ignored.  Returns the total number of rows removed (cascades
        included; SET NULL fix-ups are updates and do not count).
        """
        rowids = list(rowids)
        with self._autocommit_journal():
            return self._delete_batch(relation_name, rowids) if rowids else 0

    def delete_where(self, relation_name: str, predicate: Optional[Expr]) -> int:
        return self.delete(
            relation_name, self.select_rowids(relation_name, predicate)
        )

    def _delete_batch(
        self,
        relation_name: str,
        rowids: Iterable[int],
        doomed: Optional[dict[str, set[int]]] = None,
    ) -> int:
        """Delete one batch of *relation_name* rows and its cascade.

        Each FK into the relation is resolved for the whole batch:

        * RESTRICT is checked first, for every RESTRICT FK, so it raises
          before the batch mutates anything; the message counts the
          referencing rows of the first offending parent;
        * then, FK by FK, the rows referencing any parent of the batch
          form one child batch: CASCADE recurses on it once, SET NULL
          updates each child.

        *doomed* holds, per relation, every row a batch of this
        statement has taken on.  Those rows never join a child batch, so
        a cascade cycle (a self-referencing row, say) terminates; rows
        that are gone by the time the batch itself is deleted are
        skipped.  Returns the number of rows removed.
        """
        table = self.table(relation_name)
        batch = [rowid for rowid in dict.fromkeys(rowids) if rowid in table]
        if not batch:
            return 0
        if doomed is None:
            doomed = {}
        doomed.setdefault(relation_name, set()).update(batch)
        fks = self.schema.foreign_keys_into(relation_name)
        # each row image is read once: no row of the batch changes before
        # it is deleted (a child batch never takes on a doomed row)
        images = [(rowid, table.get(rowid)) for rowid in batch]
        parents = [row for _rowid, row in images]
        for fk in fks:
            if fk.on_delete is DeletePolicy.RESTRICT:
                for children in self._referencing(fk, parents):
                    if children:
                        raise ForeignKeyViolation(
                            f"cannot delete from {relation_name}: "
                            f"{len(children)} row(s) in {fk.relation_name} "
                            f"still reference it"
                        )
        removed = 0
        for fk in fks:
            if fk.on_delete is DeletePolicy.RESTRICT:
                continue
            referrer = fk.relation_name
            found = dict.fromkeys(chain.from_iterable(
                self._referencing(fk, parents)
            ))
            spared = doomed.get(referrer, ())
            children = [child for child in found if child not in spared]
            if not children:
                continue
            if fk.on_delete is DeletePolicy.CASCADE:
                removed += self._delete_batch(referrer, children, doomed)
            else:  # SET NULL
                nulls = {column: None for column in fk.columns}
                referrer_table = self.table(referrer)
                for child in children:
                    if child in referrer_table:
                        self.update(referrer, child, nulls)
        images = [(rowid, row) for rowid, row in images if rowid in table]
        self.txn.record_all([
            UndoAction(UndoKind.DELETE, relation_name, rowid, row)
            for rowid, row in images
        ])
        self._physical_delete_rows(relation_name, images)
        self.stats["deletes"] += len(images)
        return removed + len(images)

    def _referencing(
        self, fk: ForeignKey, parents: Sequence[Row]
    ) -> Iterator[Sequence[int]]:
        """For each parent row, the rowids of *fk*'s referrer that
        reference it (nothing for a parent key with a NULL).

        A probe of the FK index; ``find_rowids`` only when no index
        covers exactly the FK columns.
        """
        index = self.index_on(fk.relation_name, fk.columns)
        if index is None:
            for row in parents:
                key = tuple(row[column] for column in fk.ref_columns)
                yield () if None in key else sorted(
                    self.find_rowids(fk.relation_name, dict(zip(fk.columns, key)))
                )
            return
        ref_of = dict(zip(fk.columns, fk.ref_columns))
        key_columns = [ref_of[column] for column in index.columns]
        for row in parents:
            yield index.lookup_rowids([row[column] for column in key_columns])

    def update(
        self, relation_name: str, rowid: int, changes: Mapping[str, Any]
    ) -> None:
        """UPDATE one row, enforcing constraints on the new image."""
        relation = self.relation(relation_name)
        table = self.table(relation_name)
        current = dict(table.get(rowid))
        coerced_changes = {}
        for column, value in changes.items():
            attribute = relation.attribute(column)
            coerced_changes[column] = attribute.sql_type.coerce(value)
        new_row = dict(current)
        new_row.update(coerced_changes)
        self._check_not_null(relation, new_row)
        self._check_checks(relation, new_row)
        self._check_unique(relation, new_row, ignore=rowid)
        self._check_foreign_keys(relation, new_row)
        self._forbid_orphaning_update(relation, current, coerced_changes)
        old_changed = {column: current.get(column) for column in coerced_changes}
        with self._autocommit_journal():
            self.txn.record(
                UndoAction(UndoKind.UPDATE, relation_name, rowid, old_changed)
            )
            self._physical_update(relation_name, rowid, coerced_changes)
        self.stats["updates"] += 1

    def _forbid_orphaning_update(
        self, relation: Relation, current: Row, changes: Mapping[str, Any]
    ) -> None:
        """Reject updates of referenced key columns that still have children."""
        for fk in self.schema.foreign_keys_into(relation.name):
            touched = set(fk.ref_columns) & set(changes)
            if not touched:
                continue
            unchanged = all(
                changes.get(column, current.get(column)) == current.get(column)
                for column in touched
            )
            if unchanged:
                continue
            key = tuple(current.get(column) for column in fk.ref_columns)
            children = self.find_rowids(
                fk.relation_name, dict(zip(fk.columns, key))
            )
            if children:
                raise ForeignKeyViolation(
                    f"cannot update referenced key of {relation.name}: "
                    f"{len(children)} row(s) in {fk.relation_name} reference it"
                )

    def update_where(
        self, relation_name: str, predicate: Optional[Expr], changes: Mapping[str, Any]
    ) -> int:
        rowids = self.select_rowids(relation_name, predicate)
        with self._autocommit_journal():
            for rowid in rowids:
                self.update(relation_name, rowid, changes)
        return len(rowids)

    # ------------------------------------------------------------------
    # transactions
    # ------------------------------------------------------------------

    def begin(self) -> None:
        self.txn.begin()
        self._planner_mark = (dict(self.data_versions), self.statistics.mark())
        if self.wal is not None:
            self._wal_txn = self.wal.begin_txn()

    def commit(self) -> None:
        # the fault site fires before the in-memory commit: a transient
        # failure writing the commit marker leaves the transaction
        # active (still rollbackable), and a crash here is recovered by
        # rolling back — the durable marker *is* the commit point
        if self.wal is not None and self._wal_txn is not None:
            self.faults.hit("wal.commit")
        self.txn.commit()
        self._planner_mark = None
        if self.wal is not None and self._wal_txn is not None:
            wal_txn, self._wal_txn = self._wal_txn, None
            self.wal.end_txn(wal_txn, "commit")
            self.wal.checkpoint()

    def log_intent(self, name: str, ops: Sequence[Mapping[str, Any]]) -> None:
        """Journal a checked update's planned operations durably,
        before any of them executes (no-op without a journal txn)."""
        if self.wal is None or self._wal_txn is None:
            return
        self.faults.hit("wal.intent")
        self.wal.log_intent(self._wal_txn, name, ops)

    def rollback(self) -> int:
        """Undo every change of the active transaction.

        Returns the number of undo records replayed (the cost Fig. 14
        charges the no-checking baseline with).  An exception
        mid-replay leaves the unconsumed tail staged; calling
        :meth:`rollback` again resumes it (conditional application
        skips whatever already succeeded).
        """
        log = self.txn.take_rollback_log()
        self._replay_undo(log, site="undo.rollback")
        if self._planner_mark is not None:
            # Why rebasing the planner is exact: the replay restored
            # every relation to its multiset of rows at begin(), so each
            # statistics object live since then has the same exact
            # counters and build-time estimates as at begin(), and a plan
            # compiled before begin() faces the same rows and statistics
            # again — the optimizer would choose the same plan.  Only the
            # drift counters still carry the transaction (once for each
            # change, once for its undo); both are set back.
            # data_versions never rewinds (an equal version must mean
            # unchanged data), so the plan-cache stamps move instead.
            # Plans compiled inside the transaction saw in-transaction
            # cardinalities and are dropped; statistics rebuilt inside it
            # keep counting.
            versions, statistics = self._planner_mark
            self._planner_mark = None
            self.plan_cache.rebase(versions, self.data_versions)
            self.statistics.rebase(statistics)
        self.stats["rollbacks"] += 1
        if self.wal is not None and self._wal_txn is not None:
            wal_txn, self._wal_txn = self._wal_txn, None
            self.wal.end_txn(wal_txn, "abort")
            self.wal.checkpoint()
        return len(log)

    def savepoint(self) -> int:
        """Mark the undo-log position of the active transaction."""
        return self.txn.savepoint()

    def rollback_to(self, mark: int) -> int:
        """Undo changes made after :meth:`savepoint`'s *mark*; the
        transaction stays open.  Returns the records replayed.

        Replays the staged pending tail, not just the fresh one — so
        calling :meth:`rollback_to` again after a failure mid-replay
        resumes the interrupted undo instead of abandoning it.
        """
        self.txn.take_rollback_to(mark)
        log = self.txn.take_pending()
        self._replay_undo(log, site="undo.savepoint")
        if log:
            self.stats["rollbacks"] += 1
        return len(log)

    def _replay_undo(
        self, log: Sequence[UndoAction], site: str = "undo.rollback"
    ) -> None:
        """Replay undo actions in groups, with coalesced version bumps.

        Consecutive INSERT or DELETE actions of one kind on one relation
        form a group, replayed by one batch primitive, so each index is
        maintained once per group (a rolled-back cascade is a handful of
        groups); UPDATE actions replay one by one.  The ``site`` fault
        site is still passed once per action, before its group lands: a
        fault at an action first applies and confirms the group's
        actions before it, so an interrupted replay stages exactly the
        tail it would have staged replaying row by row.

        A rolled-back batch update can undo thousands of rows; bumping
        ``data_versions`` once per undone row costs one write (plus
        statistics bookkeeping) per row mid-replay.  The per-row bumps
        are suspended and replaced by a single per-relation write once
        the replay completes — advancing the version by the number of
        undone rows, so every version-stamped cache sees the true
        magnitude (a 10k-row rollback must not masquerade as one
        statement).  Whether the planner counts that as drift depends
        on the caller: a savepoint rollback leaves it counted, while a
        completed full :meth:`rollback` rebases the planner to its
        :meth:`begin` state.

        Each action is applied *conditionally* (delete-if-present /
        restore-if-absent / set-old-values) and confirmed back to the
        transaction manager with its group, which makes replay both
        idempotent and resumable: a failure mid-replay abandons nothing
        — the staged tail replays on the next rollback call.
        """
        touched: dict[str, int] = {}
        for action in log:
            touched[action.relation_name] = (
                touched.get(action.relation_name, 0) + 1
            )
        self._coalesce_versions = True
        self._replaying = True
        try:
            start, length = 0, len(log)
            while start < length:
                kind = log[start].kind
                relation_name = log[start].relation_name
                end = start + 1
                if kind is not UndoKind.UPDATE:
                    while end < length and log[end].kind is kind \
                            and log[end].relation_name == relation_name:
                        end += 1
                reached = start
                try:
                    while reached < end:
                        self.faults.hit(site, relation_name)
                        reached += 1
                finally:
                    # the actions whose site passed land (and are
                    # confirmed) even when a later one's site raises
                    if reached > start:
                        group = log[start:reached]
                        self._undo_group(kind, relation_name, group)
                        self.txn.confirm_undone(group)
                start = end
        finally:
            # bump even when a replay step raises: the prefix already
            # mutated these relations, and cached plans must see it
            self._coalesce_versions = False
            self._replaying = False
            for relation_name in sorted(touched):
                self.data_versions[relation_name] = (
                    self.data_versions.get(relation_name, 0)
                    + touched[relation_name]
                )
                # the delta log coalesces with rollback exactly like the
                # version bumps: no per-row compensation events replayed,
                # one bulk marker per touched relation instead
                if self.deltas.enabled:
                    self.deltas.record_bulk(relation_name)

    def _undo_group(
        self, kind: UndoKind, relation_name: str, group: Sequence[UndoAction]
    ) -> None:
        """Apply one group of same-kind undo actions conditionally
        (idempotent): delete-if-present, restore-if-absent, or
        set-old-values for the one action of an UPDATE group."""
        table = self.table(relation_name)
        if kind is UndoKind.INSERT:
            present = dict.fromkeys(a.rowid for a in group if a.rowid in table)
            if present:
                self._physical_delete_rows(
                    relation_name, [(rowid, table.get(rowid)) for rowid in present]
                )
        elif kind is UndoKind.DELETE:
            images: dict[int, Mapping[str, Any]] = {}
            landed: dict[int, None] = {}
            for action in group:
                if action.rowid in table:
                    landed[action.rowid] = None
                else:
                    images.setdefault(action.rowid, action.old_values)
            if landed:
                # restored by an interrupted replay whose index upkeep
                # faulted: re-adding an entry the index holds is a no-op
                rows = [(rowid, table.get(rowid)) for rowid in landed]
                for index in self.indexes[relation_name]:
                    index.add_rows(rows)
            if images:
                self._physical_restore_rows(relation_name, list(images.items()))
        else:
            for action in group:
                if action.rowid in table:
                    self._physical_update(
                        relation_name, action.rowid, action.old_values
                    )

    # ------------------------------------------------------------------
    # durability: journal attachment, crash recovery, integrity audit
    # ------------------------------------------------------------------

    def attach_wal(self, wal: Optional[WriteAheadLog] = None) -> WriteAheadLog:
        """Attach a write-ahead journal (a fresh in-memory one by
        default).  From here on, every mutation inside a transaction —
        explicit or auto-commit — journals its undo image first, and
        :meth:`recover` can repair a crash mid-apply."""
        self.wal = wal if wal is not None else WriteAheadLog()
        return self.wal

    def recover(self, redo: bool = False) -> RecoveryReport:
        """Repair crash damage from the journal (idempotent).

        The volatile transaction state died with the process, so it is
        discarded outright; the journal's valid prefix is the only
        witness.  Every transaction without an end marker is rolled
        back by applying its undo records newest-first — conditionally,
        so recovering twice (or crashing *during* recovery and
        recovering again) is safe.  Derived state is then rebuilt
        wholesale rather than trusted: every index is recomputed from
        its table, statistics are dropped, and compiled plans are
        invalidated via a schema-version bump.

        ``redo=True`` additionally re-submits the durable intents of
        crashed transactions (the "replay" half of replay-or-rollback):
        each pending intent re-executes in its own transaction, rolled
        back individually if its constraints no longer hold.
        """
        report = RecoveryReport()
        if self.wal is None:
            return report
        with self.faults.suspended():
            # RAM is gone: the in-memory undo log, the open journal txn
            # and any half-finished replay state did not survive
            self.txn.hard_reset()
            self._wal_txn = None
            self._replaying = False
            self._coalesce_versions = False
            self._planner_mark = None
            incomplete = self.wal.incomplete_txns()
            report.pending_intents = self.wal.pending_intents()
            if incomplete:
                report.transactions = sorted(incomplete)
                for txn_id in report.transactions:
                    undo_records = [
                        r for r in incomplete[txn_id] if r.get("t") == "undo"
                    ]
                    for record in reversed(undo_records):
                        self._recover_undo(record)
                        report.undo_applied += 1
                for relation_name, table in self.tables.items():
                    for index in self.indexes.get(relation_name, ()):
                        index.rebuild(table)
                    self.statistics.forget(relation_name)
                    self._bump_schema_version(relation_name)
                    self._bump_data_version(relation_name)
                for txn_id in report.transactions:
                    self.wal.end_txn(txn_id, "abort")
                self.recovery_epoch += 1
                self.stats["recoveries"] += 1
                # the crashed transaction's events (and the bulk markers
                # the repair loop just recorded) describe state that no
                # longer exists; the epoch bump makes every session drop
                # its probe cache, so the log restarts empty
                self.deltas.take()
            self.wal.checkpoint()
        if redo:
            self._redo_intents(report)
        return report

    # Raw undo application: recover() bumps both versions wholesale (and
    # rebuilds indexes/statistics) after every undo image has landed, so
    # a per-image bump here would be redundant.
    # repro: allow[REP004]
    def _recover_undo(self, record: Mapping[str, Any]) -> None:
        """Apply one journaled undo image straight to tuple storage.

        Indexes and statistics are not maintained here — they are
        rebuilt from scratch once every undo image has landed.
        """
        table = self.tables.get(record["rel"])
        if table is None:
            return  # the relation (a temp table, typically) is gone
        rowid = record["rid"]
        kind = record["k"]
        if kind == "insert":
            if rowid in table:
                table.delete_row(rowid)
        elif kind == "delete":
            if rowid not in table:
                table.restore_row(rowid, decode_row(record.get("old") or {}))
        else:
            if rowid in table:
                table.update_row(rowid, decode_row(record.get("old") or {}))

    def _redo_intents(self, report: RecoveryReport) -> None:
        """Re-submit recovered intents, one transaction each."""
        for intent in report.pending_intents:
            name = intent.get("name", "?")
            self.begin()
            try:
                for op in intent.get("ops", ()):
                    self._redo_op(op)
            except ReproError:
                self.rollback()
                report.redo_failed.append(name)
            else:
                self.commit()
                report.redone.append(name)

    def _redo_op(self, op: Mapping[str, Any]) -> None:
        kind = op.get("op")
        relation_name = op["rel"]
        if kind == "insert":
            self.insert(relation_name, decode_row(op.get("values") or {}))
        elif kind == "delete":
            self.delete(relation_name, op.get("rowids") or ())
        elif kind == "update":
            changes = decode_row(op.get("changes") or {})
            for rowid in op.get("rowids") or ():
                if rowid in self.table(relation_name):
                    self.update(relation_name, rowid, changes)
        else:
            raise DatabaseError(f"unknown journaled op kind {kind!r}")

    def verify_integrity(self) -> list[str]:
        """Audit every cross-structure invariant; returns violations.

        The single-source-of-truth is tuple storage; everything derived
        from it is recomputed and compared:

        * every index's buckets against a from-scratch recomputation,
          and its incremental size counter against its bucket contents;
        * uniqueness within unique-index buckets;
        * NOT NULL columns, scanning rows directly;
        * foreign-key closure, resolving parents by direct scan (an
          index lying about parents must not hide a dangling child);
        * the exact statistics counters (``row_count``/``null_counts``)
          of every relation that has built statistics;
        * rowid allocation monotonicity (no stored rowid at or past the
          allocator's next value).
        """
        violations: list[str] = []
        for relation_name, table in self.tables.items():
            rows = {rowid: row for rowid, row in table.scan()}
            if rows and max(rows) >= table.next_rowid():
                violations.append(
                    f"{relation_name}: stored rowid {max(rows)} >= next "
                    f"allocation {table.next_rowid()}"
                )
            for index in self.indexes.get(relation_name, ()):
                expected: dict[tuple, set[int]] = {}
                for rowid, row in rows.items():
                    key = index.key_of(row)
                    if key is not None:
                        expected.setdefault(key, set()).add(rowid)
                actual = index.entries()
                if actual != expected:
                    missing = sum(
                        len(b - actual.get(k, set())) for k, b in expected.items()
                    )
                    phantom = sum(
                        len(b - expected.get(k, set())) for k, b in actual.items()
                    )
                    violations.append(
                        f"index {index.name}: diverges from {relation_name} "
                        f"({missing} missing, {phantom} phantom entries)"
                    )
                if len(index) != index.counted_size():
                    violations.append(
                        f"index {index.name}: size counter {len(index)} != "
                        f"{index.counted_size()} bucket entries"
                    )
                if index.unique:
                    for key, bucket in actual.items():
                        if len(bucket) > 1:
                            violations.append(
                                f"unique index {index.name}: key {key!r} "
                                f"held by {len(bucket)} rows"
                            )
            relation = self.schema.relations.get(relation_name)
            if relation is None:
                violations.append(f"{relation_name}: table without a relation")
                continue
            for column in relation.not_null_columns():
                for rowid, row in rows.items():
                    if row.get(column) is None:
                        violations.append(
                            f"{relation_name} rowid {rowid}: NULL in NOT NULL "
                            f"column {column}"
                        )
            for fk in relation.foreign_keys:
                parent = self.tables.get(fk.ref_relation)
                if parent is None:
                    violations.append(
                        f"{relation_name}: FK parent {fk.ref_relation} missing"
                    )
                    continue
                parent_keys = {
                    tuple(prow.get(c) for c in fk.ref_columns)
                    for _, prow in parent.scan()
                }
                for rowid, row in rows.items():
                    key = tuple(row.get(c) for c in fk.columns)
                    if any(component is None for component in key):
                        continue
                    if key not in parent_keys:
                        violations.append(
                            f"{relation_name} rowid {rowid}: "
                            f"({', '.join(fk.columns)}) = {key!r} dangles "
                            f"(no parent in {fk.ref_relation})"
                        )
            cached = self.statistics.peek(relation_name)
            if cached is not None:
                if cached.row_count != len(rows):
                    violations.append(
                        f"{relation_name}: statistics row_count "
                        f"{cached.row_count} != {len(rows)} stored rows"
                    )
                for column, claimed in cached.null_counts.items():
                    real = sum(
                        1 for row in rows.values() if row.get(column) is None
                    )
                    if claimed != real:
                        violations.append(
                            f"{relation_name}.{column}: statistics null count "
                            f"{claimed} != {real} NULLs stored"
                        )
        return violations

    # ------------------------------------------------------------------
    # bulk loading / cloning
    # ------------------------------------------------------------------

    def load(self, relation_name: str, rows: Sequence[Mapping[str, Any]]) -> list[int]:
        """Insert many rows (constraints enforced row by row)."""
        return [self.insert(relation_name, row) for row in rows]

    def clone(self) -> "Database":
        """A deep copy sharing the schema: same rows under the same rowids.

        Used by the rectangle-rule verifier, which needs to apply a
        translation to a copy and compare the recomputed views.
        """
        copy = Database(self.schema)
        copy.oracle_mode = self.oracle_mode
        copy.verify_plans = self.verify_plans
        copy.ivm_threshold = self.ivm_threshold
        copy.replan_threshold = self.replan_threshold
        copy.replan_min_ops = self.replan_min_ops
        for relation_name, table in self.tables.items():
            if relation_name not in copy.tables:  # temp tables
                copy.create_temp_table(relation_name, table.columns)
            copy._physical_restore_rows(relation_name, list(table.scan()))
        return copy

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        sizes = ", ".join(f"{n}={len(t)}" for n, t in self.tables.items())
        return f"Database({sizes})"
