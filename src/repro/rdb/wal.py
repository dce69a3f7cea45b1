"""Write-ahead journal for the apply phase.

The in-memory engine's undo log (:mod:`repro.rdb.transactions`) dies
with the process; this module is the durable complement.  Before a
physical mutation touches a table, its *undo image* is appended to the
journal; before a session applies a checked update, the planned
operations are serialized as an *intent* record and flushed with a
barrier.  On reopen, :meth:`repro.rdb.database.Database.recover` reads
the journal back, rolls back every transaction that has no end marker
(the crashed ones), and can optionally replay their durable intents.

Record stream (one JSON object per line, prefixed by the decimal CRC32
of its text and a space, so each record is encoded once)::

    {"t": "begin",  "x": 7}
    {"t": "intent", "x": 7, "name": "u1", "ops": [...]}   # barrier
    {"t": "undo",   "x": 7, "k": "insert", "rel": "book", "rid": 12}
    {"t": "undo",   "x": 7, "k": "delete", "rel": "author",
                    "rid": 3, "old": {...}}
    {"t": "end",    "x": 7, "s": "commit"}                # barrier

A transaction whose ``begin`` has no matching ``end`` in the valid
prefix of the stream is *incomplete* — the process died mid-apply.
Torn tails are expected: reading stops at the first record that fails
its checksum or does not parse, exactly like scanning a real log file
after a crash.

The journal runs in two modes.  In-memory (``path=None``) it keeps the
serialized lines in a list that stands in for "the disk": it survives a
:class:`~repro.rdb.faults.SimulatedCrash` because recovery reuses the
same object, and barriers are merely counted.  File-backed it appends
to *path* and issues real ``flush``/``fsync`` on barriers, which is
what the torn-write tests exercise with an actual truncate.
"""

from __future__ import annotations

import datetime
import json
import os
import zlib
from pathlib import Path
from typing import Any, Mapping, Optional, Sequence

from ..errors import DatabaseError

__all__ = ["WriteAheadLog", "encode_row", "decode_row"]


# -- value codec -------------------------------------------------------------
#
# Column values are str/int/float/date/None (repro.rdb.types).  Dates
# are not JSON; they travel as {"__date__": iso} envelopes.

def _encode_value(value: Any) -> Any:
    if isinstance(value, datetime.date) and not isinstance(value, datetime.datetime):
        return {"__date__": value.isoformat()}
    return value


def _decode_value(value: Any) -> Any:
    if isinstance(value, dict) and set(value) == {"__date__"}:
        return datetime.date.fromisoformat(value["__date__"])
    return value


def encode_row(row: Mapping[str, Any]) -> dict[str, Any]:
    """A row image as a JSON-able dict."""
    return {column: _encode_value(value) for column, value in row.items()}


def decode_row(row: Mapping[str, Any]) -> dict[str, Any]:
    return {column: _decode_value(value) for column, value in row.items()}


def _frame(record: Mapping[str, Any]) -> str:
    """Serialize one record as its checksummed journal line,
    ``"<crc32 of payload> <payload>"``; the record is encoded once."""
    payload = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return f"{zlib.crc32(payload.encode('utf-8'))} {payload}"


def _unframe(line: str) -> Optional[dict[str, Any]]:
    """Parse one journal line; ``None`` when torn or corrupted."""
    crc, _, payload = line.partition(" ")
    if not crc.isascii() or not crc.isdigit():
        return None
    if zlib.crc32(payload.encode("utf-8")) != int(crc):
        return None
    try:
        record = json.loads(payload)
    except ValueError:
        return None
    return record if isinstance(record, dict) else None


class WriteAheadLog:
    """Append-only, checksummed journal of apply-phase mutations."""

    def __init__(self, path: Optional[str | Path] = None) -> None:
        self.path = Path(path) if path is not None else None
        #: serialized journal lines — the simulated disk in memory mode
        self._lines: list[str] = []
        self._next_txn = 1
        #: observability counters
        self.appends = 0
        self.barriers = 0
        if self.path is not None and self.path.exists():
            self._lines = self.path.read_text().splitlines()
            for record in self.records():
                self._next_txn = max(self._next_txn, record.get("x", 0) + 1)

    # -- appending -----------------------------------------------------------

    def _append(self, record: Mapping[str, Any], barrier: bool = False) -> None:
        line = _frame(record)
        self._lines.append(line)
        self.appends += 1
        if self.path is not None:
            with self.path.open("a") as handle:
                handle.write(line + "\n")
                if barrier:
                    handle.flush()
                    os.fsync(handle.fileno())
        if barrier:
            self.barriers += 1

    def begin_txn(self) -> int:
        """Open a journal transaction; returns its id."""
        txn_id = self._next_txn
        self._next_txn += 1
        self._append({"t": "begin", "x": txn_id})
        return txn_id

    def log_undo(
        self,
        txn_id: int,
        kind: str,
        relation_name: str,
        rowid: int,
        old_values: Optional[Mapping[str, Any]] = None,
    ) -> None:
        """Journal the undo image of one physical mutation — called
        *before* the mutation happens (that is the whole point)."""
        record: dict[str, Any] = {
            "t": "undo", "x": txn_id, "k": kind,
            "rel": relation_name, "rid": rowid,
        }
        if old_values is not None:
            record["old"] = encode_row(old_values)
        self._append(record)

    def log_intent(
        self, txn_id: int, name: str, ops: Sequence[Mapping[str, Any]]
    ) -> None:
        """Durably record the planned operations of one checked update
        before any of them executes (barrier write)."""
        self._append(
            {"t": "intent", "x": txn_id, "name": name, "ops": list(ops)},
            barrier=True,
        )

    def end_txn(self, txn_id: int, status: str) -> None:
        """Write the transaction's end marker (barrier write)."""
        if status not in ("commit", "abort"):
            raise DatabaseError(f"invalid journal end status {status!r}")
        self._append({"t": "end", "x": txn_id, "s": status}, barrier=True)

    # -- reading back (recovery) ---------------------------------------------

    def records(self) -> list[dict[str, Any]]:
        """The valid prefix of the journal.

        Parsing stops at the first torn or corrupted line; everything
        before it was durably written, everything after it never
        happened as far as recovery is concerned.
        """
        out: list[dict[str, Any]] = []
        for line in self._lines:
            record = _unframe(line)
            if record is None:
                break
            out.append(record)
        return out

    def incomplete_txns(self) -> dict[int, list[dict[str, Any]]]:
        """Transactions with a ``begin`` but no ``end`` in the valid
        prefix, mapped to their records in append order."""
        open_txns: dict[int, list[dict[str, Any]]] = {}
        for record in self.records():
            kind = record.get("t")
            txn_id = record.get("x")
            if kind == "begin":
                open_txns[txn_id] = []
            elif kind == "end":
                open_txns.pop(txn_id, None)
            elif txn_id in open_txns:
                open_txns[txn_id].append(record)
        return open_txns

    def pending_intents(self) -> list[dict[str, Any]]:
        """Intent records of incomplete transactions, in journal order.

        These are updates whose plan was durably decided but whose
        apply never finished — the ``replay`` half of "replay or roll
        back".
        """
        intents: list[dict[str, Any]] = []
        for records in self.incomplete_txns().values():
            intents.extend(r for r in records if r.get("t") == "intent")
        return intents

    # -- maintenance ---------------------------------------------------------

    def checkpoint(self) -> int:
        """Drop the journal's history (every recorded txn is resolved).

        Called after a successful commit/abort/recovery; returns the
        number of lines discarded.
        """
        dropped = len(self._lines)
        self._lines.clear()
        if self.path is not None:
            self.path.write_text("")
        return dropped

    def tear_tail(self, keep_chars: int = 10) -> None:
        """Simulate a torn final write: truncate the last line mid-record."""
        if not self._lines:
            return
        self._lines[-1] = self._lines[-1][:keep_chars]
        if self.path is not None:
            self.path.write_text("\n".join(self._lines) + "\n")

    def __len__(self) -> int:
        return len(self._lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = str(self.path) if self.path else "memory"
        return f"<WriteAheadLog {where}, {len(self._lines)} line(s)>"
