"""An in-memory span tracer, patched around each layer's public entry point.

Tracing lives entirely in the benchmark: :meth:`Tracer.install` replaces
each entry point in :data:`PATCHES` with a wrapper *at the name its
caller looks up* (a module global such as ``repro.core.ufilter.star_check``,
or a class attribute such as ``Database.insert``), and
:meth:`Tracer.uninstall` puts the originals back.  No file of the
program changes.

A span records its name, start, end, parent span and request id.  Spans
are appended to flat arrays, which allocate no garbage-collected
objects, so a collection can never start half-way through recording a
span; ``gc.callbacks`` report collections as ``runtime.gc`` spans.  A
span's self time is its duration minus the durations of its children.
"""

from __future__ import annotations

import functools
import gc
import importlib
import time
from array import array
from typing import Any, Callable

#: (span name, module, attribute path) — the attribute is looked up and
#: replaced in that module, so each entry names a caller's lookup site
PATCHES: tuple[tuple[str, str, str], ...] = (
    ("core.ufilter", "repro.core.ufilter", "UFilter.check"),
    ("xquery", "repro.core.ufilter", "parse_view_update"),
    ("core.update_binding", "repro.core.ufilter", "resolve_update"),
    ("core.validation", "repro.core.ufilter", "validate_update"),
    ("core.star", "repro.core.ufilter", "star_check"),
    ("core.datacheck", "repro.core.datacheck", "DataChecker.check_and_translate"),
    ("core.translation", "repro.core.translation", "Translator.run_probe"),
    ("core.translation", "repro.core.translation", "Translator.key_probe"),
    ("core.qa", "repro.core.qa", "QAAuditor.audit"),
    ("core.session", "repro.core.session", "UpdateSession.execute"),
    ("rdb.plan.execute", "repro.core.translation", "execute_select"),
    ("rdb.plan.execute", "repro.rdb.sql.engine", "execute_select"),
    ("rdb.plan.execute", "repro.rdb.plan", "execute_select"),
    ("rdb.plan.lower", "repro.rdb.plan", "lower_select"),
    ("rdb.compiled", "repro.rdb.plan", "compile_tree"),
    ("rdb.compiled", "repro.rdb.plan", "compile_tree_vectorized"),
    ("rdb.compiled", "repro.rdb.database", "compile_tree"),
    ("rdb.database.dml", "repro.rdb.database", "Database.insert"),
    ("rdb.database.dml", "repro.rdb.database", "Database.delete"),
    ("rdb.database.dml", "repro.rdb.database", "Database.update"),
    ("rdb.database.rowid", "repro.rdb.database", "Database.find_rowids"),
    ("rdb.database.rowid", "repro.rdb.database", "Database.select_rowids"),
    ("rdb.database.rollback", "repro.rdb.database", "Database.rollback"),
    ("rdb.database.rollback", "repro.rdb.database", "Database.rollback_to"),
    ("rdb.wal", "repro.rdb.wal", "WriteAheadLog.begin_txn"),
    ("rdb.wal", "repro.rdb.wal", "WriteAheadLog.log_undo"),
    ("rdb.wal", "repro.rdb.wal", "WriteAheadLog.log_intent"),
    ("rdb.wal", "repro.rdb.wal", "WriteAheadLog.end_txn"),
    ("rdb.wal", "repro.rdb.wal", "WriteAheadLog.checkpoint"),
    ("rdb.ivm", "repro.core.translation", "ProbeCache.maintain"),
    ("rdb.ivm", "repro.rdb.ivm", "IncrementalView.build"),
    ("rdb.ivm", "repro.rdb.ivm", "IncrementalView.apply"),
)

GC_SPAN = "runtime.gc"
#: roots the harness opens: one per request, one per untimed restore
REQUEST_SPAN = "request"
RESTORE_SPAN = "restore"


class Tracer:
    """Span recorder plus the patch set that feeds it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.request = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._request = -1
        self._undo: list[Callable[[], None]] = []
        self._gc_span = -1

    # -- recording ------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name_id: int) -> int:
        span = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request.append(self._request)
        self.end.append(0.0)
        self._stack.append(span)
        self.start.append(time.perf_counter())
        return span

    def close(self, span: int) -> None:
        self.end[span] = time.perf_counter()
        self._stack.pop()

    def open_root(self, name: str, request: int) -> int:
        self._request = request
        return self.open(self.name_id(name))

    def close_root(self, span: int) -> None:
        self.close(span)
        self._request = -1

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_span = self.open(self._gc_id)
        elif self._gc_span >= 0:
            self.close(self._gc_span)
            self._gc_span = -1

    # -- patching -------------------------------------------------------

    def install(self) -> None:
        for span_name, module_name, path in PATCHES:
            owner: Any = importlib.import_module(module_name)
            *outer, attribute = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attribute] if outer else getattr(owner, attribute)
            if isinstance(original, (classmethod, staticmethod)):
                wrapped = type(original)(
                    self._wrap(self.name_id(span_name), original.__func__)
                )
            else:
                wrapped = self._wrap(self.name_id(span_name), original)
            setattr(owner, attribute, wrapped)
            self._undo.append(functools.partial(setattr, owner, attribute, original))
        self._gc_id = self.name_id(GC_SPAN)
        gc.callbacks.append(self._on_gc)
        self._undo.append(functools.partial(gc.callbacks.remove, self._on_gc))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def _wrap(self, name_id: int, function: Callable) -> Callable:
        open_span, close_span = self.open, self.close

        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            span = open_span(name_id)
            try:
                return function(*args, **kwargs)
            finally:
                close_span(span)

        return traced

    # -- analysis -------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus its children's durations."""
        own = [end - start for start, end in zip(self.start, self.end)]
        for span, parent in enumerate(self.parent):
            if parent >= 0:
                own[parent] -= self.end[span] - self.start[span]
        return own

    def spans(self, limit_request: int) -> list[dict[str, Any]]:
        """Spans of requests below *limit_request*, as JSON-ready dicts."""
        return [
            {
                "id": span,
                "name": self.names[self.name[span]],
                "start": self.start[span],
                "end": self.end[span],
                "parent": self.parent[span],
                "request": self.request[span],
            }
            for span in range(len(self.name))
            if 0 <= self.request[span] < limit_request
        ]
