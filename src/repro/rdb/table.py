"""Tuple storage with stable rowids.

A :class:`Table` stores tuples of a single relation as dicts keyed by a
monotonically increasing *rowid* — mirroring the ``ROWID`` pseudo-column
the paper's probe query PQ4 selects.  Iteration preserves insertion
order.  The table knows nothing about constraints; enforcement lives in
:class:`repro.rdb.database.Database`.
"""

from __future__ import annotations

from typing import Any, Iterator, Mapping

from ..errors import DatabaseError
from .faults import NULL_INJECTOR, FaultInjector

__all__ = ["Table"]

Row = dict[str, Any]


class Table:
    """Physical storage for one relation."""

    #: fault-injection registry; the owning Database replaces this with
    #: its own armed instance (standalone tables keep the shared no-op)
    faults: FaultInjector = NULL_INJECTOR

    def __init__(self, relation_name: str, columns: tuple[str, ...]) -> None:
        self.relation_name = relation_name
        self.columns = columns
        self._rows: dict[int, Row] = {}
        self._next_rowid = 1

    # -- mutation ------------------------------------------------------------

    def next_rowid(self) -> int:
        """The rowid the next :meth:`insert_row` will allocate.

        Allocation is deterministic (a bare increment), so callers that
        must journal an insert's undo image *before* the insert happens
        can pre-read the rowid it will get.
        """
        return self._next_rowid

    def insert_row(self, values: Mapping[str, Any]) -> int:
        """Store a fully-formed row; returns its rowid."""
        self.faults.hit("table.insert", self.relation_name)
        row = {column: values.get(column) for column in self.columns}
        rowid = self._next_rowid
        self._next_rowid += 1
        self._rows[rowid] = row
        return rowid

    def restore_row(self, rowid: int, values: Mapping[str, Any]) -> Row:
        """Re-insert a previously deleted row under its old rowid (undo);
        returns the stored row."""
        self.faults.hit("table.restore", self.relation_name)
        if rowid in self._rows:
            raise DatabaseError(
                f"rowid {rowid} already present in {self.relation_name}"
            )
        # an image this table stored (the undo of a delete, a clone's
        # source row) has exactly its columns, in order: copy it whole
        row = self._rows[rowid] = (
            dict(values) if tuple(values) == self.columns
            else {column: values.get(column) for column in self.columns}
        )
        if rowid >= self._next_rowid:
            self._next_rowid = rowid + 1
        return row

    def delete_row(self, rowid: int) -> Row:
        """Remove and return the row stored under *rowid*."""
        self.faults.hit("table.delete", self.relation_name)
        try:
            return self._rows.pop(rowid)
        except KeyError:
            raise DatabaseError(
                f"no row {rowid} in {self.relation_name}"
            ) from None

    def update_row(self, rowid: int, changes: Mapping[str, Any]) -> Row:
        """Apply *changes* in place; returns the previous image of the row."""
        self.faults.hit("table.update", self.relation_name)
        row = self.get(rowid)
        old = dict(row)
        for column, value in changes.items():
            if column not in self.columns:
                raise DatabaseError(
                    f"{self.relation_name} has no column {column!r}"
                )
            row[column] = value
        return old

    # -- access --------------------------------------------------------------

    def get(self, rowid: int) -> Row:
        try:
            return self._rows[rowid]
        except KeyError:
            raise DatabaseError(
                f"no row {rowid} in {self.relation_name}"
            ) from None

    def __contains__(self, rowid: int) -> bool:
        return rowid in self._rows

    def scan(self) -> Iterator[tuple[int, Row]]:
        """Yield ``(rowid, row)`` pairs in insertion order.

        Materializes the id list first so callers may delete during the
        scan (deleted rows simply stop appearing).
        """
        for rowid in list(self._rows):
            row = self._rows.get(rowid)
            if row is not None:
                yield rowid, row

    def rowids(self) -> list[int]:
        return list(self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Table({self.relation_name}, {len(self)} rows)"
