"""The engine's invariant rules, REP001–REP005.

Each rule encodes one load-bearing correctness invariant that earlier
PRs established in prose and test folklore:

* **REP001** — a ``_physical_*`` storage primitive journals its undo
  image (``_journal_undo``) *before* the first tuple mutation, so a
  crash mid-primitive always leaves a journaled image recovery can
  replay (the PR 7 torn-state ordering).
* **REP002** — every ``Table`` / ``HashIndex`` DML primitive opens with
  a ``faults.hit("site", ...)`` injection site whose name is a string
  literal, and no two storage primitives share a site name — otherwise
  the crash-at-every-site sweep silently loses coverage.
* **REP003** — no handler may catch ``BaseException`` or use a bare
  ``except``: :class:`repro.rdb.faults.SimulatedCrash` is a
  ``BaseException`` precisely so it sails past every handler the way a
  killed process would.  In apply/recovery/WAL modules, even
  ``except Exception`` must re-raise (or carry an explicit
  ``# repro: allow[REP003]`` tag saying why it may swallow).
* **REP004** — a ``Database`` method that mutates rows must bump
  ``data_versions`` (or ``schema_versions``, which invalidates
  strictly more), and one that mutates schema objects must bump
  ``schema_versions`` — cached compiled plans must never outlive the
  state that justified them (the PR 2 invalidation contract).
* **REP005** — a retry handler (one that calls ``_backoff_sleep`` or
  increments ``retries_used``) may catch only transient error types;
  retrying a constraint violation or timeout only reproduces it.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Sequence

from .findings import LintFinding
from .linter import ModuleSource, Rule

__all__ = ["RULES", "register"]

#: rule registry, id -> singleton instance (rules are stateless)
RULES: Dict[str, Rule] = {}


def register(cls: type) -> type:
    RULES[cls.rule_id] = cls()
    return cls


# ---------------------------------------------------------------------------
# shared AST helpers
# ---------------------------------------------------------------------------

def dotted_name(node: ast.AST) -> str:
    """Flatten an attribute chain: ``self.db.faults.hit`` and friends."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts))


def calls_in(node: ast.AST) -> Iterator[ast.Call]:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call):
            yield sub


def call_tail(call: ast.Call) -> str:
    """The last component of the called name (``table.insert_row`` ->
    ``insert_row``)."""
    name = dotted_name(call.func)
    return name.rsplit(".", 1)[-1] if name else ""


def first_call_line(node: ast.AST, tails: set[str]) -> Optional[int]:
    """Line of the lexically first call whose name ends in *tails*."""
    best: Optional[int] = None
    for call in calls_in(node):
        if call_tail(call) in tails:
            if best is None or call.lineno < best:
                best = call.lineno
    return best


def handler_names(handler: ast.ExceptHandler) -> list[str]:
    """The exception names an ``except`` clause catches ([] = bare)."""
    node = handler.type
    if node is None:
        return []
    elts = node.elts if isinstance(node, ast.Tuple) else [node]
    names = []
    for elt in elts:
        if isinstance(elt, ast.Name):
            names.append(elt.id)
        elif isinstance(elt, ast.Attribute):
            names.append(elt.attr)
    return names


#: the tuple-storage mutation primitives of repro.rdb.table.Table
TABLE_MUTATORS = {"insert_row", "restore_row", "delete_row", "update_row"}


# ---------------------------------------------------------------------------
# REP001: journal before mutation
# ---------------------------------------------------------------------------

@register
class JournalBeforeMutation(Rule):
    rule_id = "REP001"
    title = "physical primitives journal undo images before mutating"

    def check(self, module: ModuleSource) -> Iterator[LintFinding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            if not node.name.startswith("_physical_"):
                continue
            mutation = first_call_line(node, TABLE_MUTATORS)
            if mutation is None:
                continue
            journal = first_call_line(node, {"_journal_undo"})
            if journal is None:
                yield self.finding(
                    module,
                    node.lineno,
                    f"{node.name} mutates tuple storage without journaling "
                    f"an undo image (_journal_undo) first — a crash inside "
                    f"it would be unrecoverable",
                )
            elif journal > mutation:
                yield self.finding(
                    module,
                    mutation,
                    f"{node.name} mutates tuple storage (line {mutation}) "
                    f"before journaling its undo image (line {journal}); "
                    f"the write-ahead ordering is journal first",
                )


# ---------------------------------------------------------------------------
# REP002: fault-site coverage + uniqueness
# ---------------------------------------------------------------------------

#: the storage DML primitives that must each open with a fault site
_STORAGE_PRIMITIVES = {
    "Table": {"insert_row", "restore_row", "delete_row", "update_row"},
    "HashIndex": {"add", "remove"},
}


def _opening_site(node: ast.FunctionDef) -> Optional[ast.Call]:
    """The ``faults.hit(...)`` call a primitive opens with, if any."""
    for statement in node.body:
        if (
            isinstance(statement, ast.Expr)
            and isinstance(statement.value, ast.Constant)
            and isinstance(statement.value.value, str)
        ):
            continue  # docstring
        if isinstance(statement, ast.Expr) and isinstance(
            statement.value, ast.Call
        ):
            call = statement.value
            if dotted_name(call.func).endswith("faults.hit"):
                return call
        return None
    return None


def _storage_sites(
    module: ModuleSource,
) -> Iterator[tuple[str, str, ast.FunctionDef, Optional[ast.Call]]]:
    """Yield (class, method, def-node, opening hit call) for every
    storage DML primitive defined in *module*."""
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        primitives = _STORAGE_PRIMITIVES.get(node.name)
        if primitives is None:
            continue
        for item in node.body:
            if isinstance(item, ast.FunctionDef) and item.name in primitives:
                yield node.name, item.name, item, _opening_site(item)


@register
class FaultSiteCoverage(Rule):
    rule_id = "REP002"
    title = "storage DML primitives open with a uniquely named fault site"

    def check(self, module: ModuleSource) -> Iterator[LintFinding]:
        for class_name, method, node, call in _storage_sites(module):
            where = f"{class_name}.{method}"
            if call is None:
                yield self.finding(
                    module,
                    node.lineno,
                    f"storage primitive {where} must open with a "
                    f"faults.hit(...) injection site — the fault sweep "
                    f"cannot enumerate crash points it never sees",
                )
                continue
            if not (
                call.args
                and isinstance(call.args[0], ast.Constant)
                and isinstance(call.args[0].value, str)
            ):
                yield self.finding(
                    module,
                    call.lineno,
                    f"{where}: the fault-site name must be a string "
                    f"literal so crash traces stay replayable",
                )

    def finalize(self, modules: Sequence[ModuleSource]) -> Iterator[LintFinding]:
        seen: dict[str, tuple[str, int]] = {}
        for module in modules:
            for class_name, method, _node, call in _storage_sites(module):
                if call is None or not call.args:
                    continue
                site = call.args[0]
                if not (isinstance(site, ast.Constant) and isinstance(site.value, str)):
                    continue
                previous = seen.get(site.value)
                if previous is None:
                    seen[site.value] = (module.path, call.lineno)
                else:
                    yield self.finding(
                        module,
                        call.lineno,
                        f"fault site {site.value!r} in {class_name}.{method} "
                        f"is already used at {previous[0]}:{previous[1]} — "
                        f"site names must be unique per storage primitive",
                    )


# ---------------------------------------------------------------------------
# REP003: exception hygiene around SimulatedCrash
# ---------------------------------------------------------------------------

#: module stems forming the apply/recovery/WAL paths, where swallowing
#: ``Exception`` can swallow the failure the crash-consistency story
#: depends on observing
_APPLY_PATH_STEMS = {
    "database",
    "datacheck",
    "faults",
    "faultsweep",
    "scenario_gen",
    "session",
    "transactions",
    "wal",
}


def _reraises(handler: ast.ExceptHandler) -> bool:
    return any(
        isinstance(node, ast.Raise) and node.exc is None
        for node in ast.walk(handler)
    )


@register
class ExceptionHygiene(Rule):
    rule_id = "REP003"
    title = "no handler may be blind to SimulatedCrash semantics"

    def check(self, module: ModuleSource) -> Iterator[LintFinding]:
        in_apply_path = module.stem in _APPLY_PATH_STEMS
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            names = handler_names(node)
            if node.type is None:
                yield self.finding(
                    module,
                    node.lineno,
                    "bare 'except:' catches SimulatedCrash (a "
                    "BaseException) and would hide a simulated kill; "
                    "catch a concrete error type",
                )
                continue
            if "BaseException" in names:
                yield self.finding(
                    module,
                    node.lineno,
                    "'except BaseException' catches SimulatedCrash; only "
                    "the fault-sweep harness may do that, via the "
                    "exception's own type",
                )
                continue
            if in_apply_path and "Exception" in names and not _reraises(node):
                yield self.finding(
                    module,
                    node.lineno,
                    "'except Exception' in an apply/recovery/WAL path "
                    "must re-raise (or carry a '# repro: allow[REP003]' "
                    "tag stating why it may swallow engine failures)",
                )


# ---------------------------------------------------------------------------
# REP004: version bumps on row/schema mutation
# ---------------------------------------------------------------------------

def _assigned_subscript_chains(node: ast.AST) -> Iterator[str]:
    """Dotted chains of subscripted assignment/delete targets
    (``self.tables[name] = ...`` yields ``self.tables``)."""
    for sub in ast.walk(node):
        targets: list[ast.expr] = []
        if isinstance(sub, ast.Assign):
            targets = list(sub.targets)
        elif isinstance(sub, (ast.AugAssign, ast.AnnAssign)):
            targets = [sub.target]
        elif isinstance(sub, ast.Delete):
            targets = list(sub.targets)
        for target in targets:
            if isinstance(target, ast.Subscript):
                yield dotted_name(target.value)


@register
class VersionBumpOnMutation(Rule):
    rule_id = "REP004"
    title = "Database mutations bump the plan-cache versions"

    _EXEMPT = {"__init__", "_bump_data_version", "_bump_schema_version"}

    def check(self, module: ModuleSource) -> Iterator[LintFinding]:
        for node in ast.walk(module.tree):
            if not (isinstance(node, ast.ClassDef) and node.name == "Database"):
                continue
            for item in node.body:
                if not isinstance(item, ast.FunctionDef):
                    continue
                if item.name in self._EXEMPT:
                    continue
                yield from self._check_method(module, item)

    def _check_method(
        self, module: ModuleSource, node: ast.FunctionDef
    ) -> Iterator[LintFinding]:
        bumps_data = first_call_line(node, {"_bump_data_version"}) is not None
        bumps_schema = first_call_line(node, {"_bump_schema_version"}) is not None
        mutates_rows = first_call_line(node, TABLE_MUTATORS) is not None
        mutates_schema = any(
            dotted_name(call.func)
            in (
                "self.schema.add_relation",
                "self.schema.drop_relation",
                "self.schema.relations.pop",
                "self.tables.pop",
                "self.indexes.pop",
            )
            for call in calls_in(node)
        ) or any(
            chain in ("self.tables", "self.indexes")
            for chain in _assigned_subscript_chains(node)
        )
        # a schema bump invalidates strictly more than a data bump, so
        # it satisfies the row-mutation obligation too
        if mutates_rows and not (bumps_data or bumps_schema):
            yield self.finding(
                module,
                node.lineno,
                f"Database.{node.name} mutates rows without bumping "
                f"data_versions — a cached compiled plan would outlive "
                f"the cardinalities that justified it",
            )
        if mutates_schema and not bumps_schema:
            yield self.finding(
                module,
                node.lineno,
                f"Database.{node.name} mutates schema objects without "
                f"bumping schema_versions — compiled plans referencing "
                f"stale schema objects would survive",
            )


# ---------------------------------------------------------------------------
# REP005: retry loops absorb only transient failures
# ---------------------------------------------------------------------------

#: names statically known to be TransientError subclasses (see
#: repro.errors: the transient/fatal taxonomy is closed on purpose)
_TRANSIENT_NAMES = {"TransientError", "ConflictError", "FaultInjectedError"}


def _is_retry_handler(handler: ast.ExceptHandler) -> bool:
    for node in ast.walk(handler):
        if isinstance(node, ast.Call) and call_tail(node) == "_backoff_sleep":
            return True
        if isinstance(node, ast.AugAssign):
            target = node.target
            name = (
                target.attr
                if isinstance(target, ast.Attribute)
                else target.id if isinstance(target, ast.Name) else ""
            )
            if name == "retries_used":
                return True
    return False


@register
class RetryTaxonomy(Rule):
    rule_id = "REP005"
    title = "retry handlers catch only TransientError subclasses"

    def check(self, module: ModuleSource) -> Iterator[LintFinding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not _is_retry_handler(node):
                continue
            bad = [
                name
                for name in (handler_names(node) or ["<bare>"])
                if name not in _TRANSIENT_NAMES
            ]
            if bad:
                yield self.finding(
                    module,
                    node.lineno,
                    f"retry handler catches {', '.join(bad)} — only "
                    f"TransientError subclasses may be retried; retrying "
                    f"a fatal failure only reproduces it",
                )
