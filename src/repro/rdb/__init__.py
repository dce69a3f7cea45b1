"""Relational engine substrate (stands in for Oracle 10g in the paper).

Public surface:

* :class:`Schema`, :class:`Relation`, :class:`Attribute` — DDL metadata
* constraint classes (:class:`PrimaryKey`, :class:`ForeignKey`, ...)
  with :class:`DeletePolicy` (CASCADE / SET NULL / RESTRICT)
* :class:`Database` — storage, DML, constraint enforcement, transactions
* :class:`SelectPlan` / :func:`execute_select` — programmatic queries,
  executed through the cost-aware planner (:mod:`repro.rdb.optimizer`)
  and the compiled-predicate closures of :mod:`repro.rdb.compiled`
* :class:`SQLEngine` and the parser — textual SQL subset
* the expression algebra of :mod:`repro.rdb.expr`
* the fault-tolerance layer — :class:`WriteAheadLog` journaling with
  :meth:`Database.recover` / :meth:`Database.verify_integrity`, and the
  deterministic fault injection of :mod:`repro.rdb.faults`
"""

from .constraints import (
    Check,
    Constraint,
    DeletePolicy,
    ForeignKey,
    NotNull,
    PrimaryKey,
    Unique,
)
from .database import Database, RecoveryReport
from .expr import (
    And,
    ColumnRef,
    Comparison,
    Expr,
    InSubquery,
    IsNull,
    Literal,
    Not,
    Or,
    col,
    conjoin,
    lit,
)
from .compiled import CompiledPlan, PlanCache, RowidPlanCache
from .faults import FaultInjectedError, FaultInjector, FaultPlan, SimulatedCrash
from .index import HashIndex
from .optimizer import enumerate_joins, order_from_items
from .plan import (
    FromItem,
    LogicalPlan,
    OutputColumn,
    PlanNode,
    SelectPlan,
    execute_select,
    explain_select,
)
from .schema import Attribute, Relation, Schema
from .statistics import StatisticsManager, TableStatistics
from .sql import SQLEngine, parse_script, parse_statement
from .sql.parser import parse_expression
from .table import Table
from .types import Date, Double, Integer, SQLType, VarChar, sql_literal, type_from_name
from .wal import WriteAheadLog

__all__ = [
    "Attribute",
    "And",
    "Check",
    "col",
    "ColumnRef",
    "Comparison",
    "CompiledPlan",
    "conjoin",
    "Constraint",
    "Database",
    "Date",
    "DeletePolicy",
    "Double",
    "enumerate_joins",
    "execute_select",
    "explain_select",
    "Expr",
    "FaultInjectedError",
    "FaultInjector",
    "FaultPlan",
    "LogicalPlan",
    "PlanNode",
    "ForeignKey",
    "FromItem",
    "HashIndex",
    "InSubquery",
    "Integer",
    "IsNull",
    "lit",
    "Literal",
    "Not",
    "NotNull",
    "Or",
    "order_from_items",
    "OutputColumn",
    "PlanCache",
    "parse_expression",
    "parse_script",
    "parse_statement",
    "PrimaryKey",
    "RecoveryReport",
    "Relation",
    "RowidPlanCache",
    "Schema",
    "SimulatedCrash",
    "SelectPlan",
    "SQLEngine",
    "sql_literal",
    "SQLType",
    "StatisticsManager",
    "Table",
    "TableStatistics",
    "type_from_name",
    "Unique",
    "VarChar",
    "WriteAheadLog",
]
