"""Hash indexes over table columns.

The engine builds an index for every PRIMARY KEY, UNIQUE constraint and
FOREIGN KEY column list, matching the paper's observation (Section 7.2)
that "Oracle builds indices over the primary keys and foreign keys,
which is used by the Join condition in the hybrid strategy".  The
*outside* strategy's joins over materialized probe results have no such
indexes — that asymmetry is what Fig. 16 measures.

NULL handling follows SQL: an index entry is only maintained when every
indexed column is non-NULL, and uniqueness is not enforced across
entries containing NULL.

Maintenance comes in two grains: :meth:`HashIndex.add` / :meth:`HashIndex.remove`
for one row (forward inserts and updates), and :meth:`HashIndex.add_rows` /
:meth:`HashIndex.remove_rows` for a batch of stored rows (cascaded deletes,
undo replay, bulk builds), which pass one fault site per batch and read the
key columns straight off each complete stored row.
"""

from __future__ import annotations

from operator import itemgetter
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Optional

from ..errors import DatabaseError
from .faults import NULL_INJECTOR, FaultInjector

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (table -> index)
    from .table import Table

__all__ = ["HashIndex"]

Key = tuple[Any, ...]


class HashIndex:
    """A (possibly unique) hash index over one or more columns.

    Buckets map a key to its rowids.  The single-row :meth:`add` /
    :meth:`remove` accept any mapping (missing columns read as NULL);
    the batch :meth:`add_rows` / :meth:`remove_rows` take complete
    stored rows, apply the whole batch under one fault site, and leave
    exactly the buckets the same rows added or removed one at a time
    would leave.
    """

    #: fault-injection registry; the owning Database replaces this with
    #: its own armed instance (standalone indexes keep the shared no-op)
    faults: FaultInjector = NULL_INJECTOR

    def __init__(
        self,
        name: str,
        relation_name: str,
        columns: tuple[str, ...],
        unique: bool = False,
    ) -> None:
        if not columns:
            raise DatabaseError("index needs at least one column")
        self.name = name
        self.relation_name = relation_name
        self.columns = columns
        self.unique = unique
        #: buckets are insertion-ordered (dict keys) so probes can iterate
        #: them deterministically without re-sorting per lookup
        self._entries: dict[Key, dict[int, None]] = {}
        #: incremental entry count — ``len()`` and ``average_bucket()``
        #: are planner-estimate hot paths and must not sum every bucket
        self._size = 0
        #: probe counter — used by benchmarks/tests to show index usage
        self.lookups = 0
        #: the key columns of a complete stored row (a scalar for one
        #: column, a tuple for several) — the batch methods' extractor
        self._get_key = itemgetter(*columns)

    # -- key helpers ---------------------------------------------------------

    def key_of(self, row: Mapping[str, Any]) -> Optional[Key]:
        """Extract the index key; None when any component is NULL."""
        key = tuple(row.get(column) for column in self.columns)
        if any(component is None for component in key):
            return None
        return key

    # -- maintenance ---------------------------------------------------------

    def add(self, rowid: int, row: Mapping[str, Any]) -> None:
        self.faults.hit("index.add", self.relation_name)
        key = self.key_of(row)
        if key is None:
            return
        bucket = self._entries.setdefault(key, {})
        if rowid not in bucket:
            bucket[rowid] = None
            self._size += 1

    def remove(self, rowid: int, row: Mapping[str, Any]) -> None:
        self.faults.hit("index.remove", self.relation_name)
        key = self.key_of(row)
        if key is None:
            return
        bucket = self._entries.get(key)
        if bucket is not None and rowid in bucket:
            del bucket[rowid]
            self._size -= 1
            if not bucket:
                del self._entries[key]

    def _keyed(
        self, rows: Iterable[tuple[int, Mapping[str, Any]]]
    ) -> list[tuple[int, Key]]:
        """``(rowid, key)`` for each complete stored row whose key has
        no NULL component."""
        get = self._get_key
        if len(self.columns) == 1:
            return [
                (rowid, (value,)) for rowid, row in rows
                if (value := get(row)) is not None
            ]
        return [
            (rowid, key) for rowid, row in rows
            if None not in (key := get(row))
        ]

    def add_rows(self, rows: Iterable[tuple[int, Mapping[str, Any]]]) -> None:
        """:meth:`add` for a batch of ``(rowid, stored row)`` pairs."""
        self.faults.hit("index.add_rows", self.relation_name)
        entries = self._entries
        added = 0
        for rowid, key in self._keyed(rows):
            bucket = entries.get(key)
            if bucket is None:
                entries[key] = {rowid: None}
                added += 1
            elif rowid not in bucket:
                bucket[rowid] = None
                added += 1
        self._size += added

    def remove_rows(self, rows: Iterable[tuple[int, Mapping[str, Any]]]) -> None:
        """:meth:`remove` for a batch of ``(rowid, stored row)`` pairs."""
        self.faults.hit("index.remove_rows", self.relation_name)
        entries = self._entries
        removed = 0
        for rowid, key in self._keyed(rows):
            bucket = entries.get(key)
            if bucket is not None and rowid in bucket:
                del bucket[rowid]
                removed += 1
                if not bucket:
                    del entries[key]
        self._size -= removed

    def entries(self) -> dict[Key, set[int]]:
        """A snapshot of every bucket (for integrity audits)."""
        return {key: set(bucket) for key, bucket in self._entries.items()}

    def counted_size(self) -> int:
        """Entry count recomputed from the buckets (audits the
        incremental ``_size`` counter)."""
        return sum(len(bucket) for bucket in self._entries.values())

    def rebuild(self, table: "Table") -> None:
        """Discard every bucket and re-add the table's current rows.

        Crash recovery calls this instead of trusting possibly-torn
        incremental maintenance: after undo replay, the table is the
        single source of truth and the index is derived state.
        """
        self._entries.clear()
        self._size = 0
        self.add_rows(table.scan())

    def would_conflict(self, row: Mapping[str, Any], ignore: Optional[int] = None) -> bool:
        """True iff inserting *row* would violate a unique index."""
        if not self.unique:
            return False
        key = self.key_of(row)
        if key is None:
            return False
        bucket = self._entries.get(key, ())
        return any(rowid != ignore for rowid in bucket)

    # -- probing -------------------------------------------------------------

    def lookup(self, key: Iterable[Any]) -> set[int]:
        """Rowids matching *key* exactly (empty set when absent)."""
        self.lookups += 1
        key = tuple(key)
        if any(component is None for component in key):
            return set()
        return set(self._entries.get(key, ()))

    def lookup_rowids(self, key: Iterable[Any]) -> tuple[int, ...]:
        """Like :meth:`lookup` but returns the bucket in its stable
        insertion order — no per-probe set copy or re-sort."""
        self.lookups += 1
        key = tuple(key)
        if None in key:
            return ()
        bucket = self._entries.get(key)
        return tuple(bucket) if bucket else ()

    def average_bucket(self) -> float:
        """Mean rowids per distinct key — the optimizer's estimate of how
        many rows one probe of this index emits."""
        if not self._entries:
            return 0.0
        return self._size / len(self._entries)

    def distinct_keys(self) -> int:
        """Number of distinct (fully non-NULL) keys currently indexed."""
        return len(self._entries)

    def matches(self, columns: Iterable[str]) -> bool:
        """True iff this index covers exactly the given column set."""
        return set(self.columns) == set(columns)

    def __len__(self) -> int:
        return self._size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "UNIQUE " if self.unique else ""
        return (
            f"<{kind}HashIndex {self.name} ON "
            f"{self.relation_name}({', '.join(self.columns)})>"
        )
