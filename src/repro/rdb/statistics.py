"""Per-relation, per-column table statistics for the cost-based planner.

PR 2's optimizer guessed: hash-join selectivity was ``count // 4`` and
index probes were estimated at the index's mean bucket size.  This
module replaces the guesses with real statistics, the way a production
engine's ``ANALYZE`` does:

* **row count** — maintained incrementally, always exact;
* **null counts** per column — maintained incrementally, always exact;
* **distinct-value counts** per column — computed at build time, allowed
  to drift between rebuilds;
* **equi-depth histograms** per column — computed at build time for
  columns whose values sort homogeneously; estimate range-predicate
  selectivities (the "bushy-friendly" part: a relation with a selective
  ``<``/``>`` filter can win a join-order slot even without an index).

Above ``StatisticsManager.sample_rows`` values per column, distinct
counts and histograms are built from a systematic sample (every step-th
value) instead of the full value list — only the estimates sample; row
counts and null counts stay exact (``verify_integrity`` audits them).

Statistics are built lazily on first planner access and rebuilt lazily
once the number of modifications since the last build exceeds a
configurable **staleness threshold** (a fraction of the rows seen at
build time).  DML between rebuilds only touches the O(1) incremental
counters, so the write path stays cheap.  A rollback's undo replay is
DML like any other, but a completed full rollback restores the
begin-state rows, so it hands each object live since ``begin()`` its
drift counter back (:meth:`StatisticsManager.rebase`): a rolled-back
transaction leaves no staleness behind.

The same staleness philosophy governs the plan cache: instead of "any
DML on a read relation recompiles", cached plans survive data drift
below ``Database.replan_threshold`` (see :mod:`repro.rdb.compiled`) —
statistics, not individual DML statements, decide when a cached join
order is stale.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .database import Database

__all__ = [
    "ColumnStatistics",
    "EquiDepthHistogram",
    "StatisticsManager",
    "TableStatistics",
]

Row = Mapping[str, Any]

#: default fraction of rows that may be modified before a rebuild
DEFAULT_STALENESS = 0.25
#: default number of histogram buckets
DEFAULT_BUCKETS = 16
#: values fed to distinct/histogram builds before sampling kicks in
DEFAULT_SAMPLE_ROWS = 10_000
#: selectivity assumed for predicates nothing can estimate
DEFAULT_SELECTIVITY = 1.0


class EquiDepthHistogram:
    """Equal-frequency buckets over one column's non-NULL values.

    ``fences`` holds ``buckets + 1`` boundary values (the minimum, the
    intermediate quantiles and the maximum); ``counts[i]`` is the number
    of values in ``[fences[i], fences[i + 1])`` (the last bucket is
    closed on both ends).  Built from a sorted value list; estimation
    never touches the table again.
    """

    __slots__ = ("fences", "counts", "total")

    def __init__(self, fences: list, counts: list[int], total: int) -> None:
        self.fences = fences
        self.counts = counts
        self.total = total

    @classmethod
    def build(
        cls, sorted_values: Sequence[Any], buckets: int = DEFAULT_BUCKETS
    ) -> Optional["EquiDepthHistogram"]:
        total = len(sorted_values)
        if total == 0:
            return None
        buckets = max(1, min(buckets, total))
        fences = [sorted_values[0]]
        counts = []
        consumed = 0
        for bucket in range(buckets):
            # distribute the remainder across the leading buckets
            take = total // buckets + (1 if bucket < total % buckets else 0)
            consumed += take
            counts.append(take)
            fences.append(sorted_values[min(consumed, total) - 1])
        return cls(fences, counts, total)

    def fraction_below(self, value: Any, inclusive: bool = False) -> float:
        """Fraction of values ``< value`` (``<= value`` when inclusive)."""
        if self.total == 0:
            return 0.0
        bisector = bisect_right if inclusive else bisect_left
        try:
            if inclusive:
                if value < self.fences[0]:
                    return 0.0
                if not value < self.fences[-1]:
                    return 1.0
            else:
                if not self.fences[0] < value:
                    return 0.0
                if self.fences[-1] < value:
                    return 1.0
            position = bisector(self.fences, value)
        except TypeError:
            # probe value does not compare with the histogrammed type
            return 0.5
        below = sum(self.counts[: max(position - 1, 0)])
        # interpolate inside the straddled bucket
        bucket = min(max(position - 1, 0), len(self.counts) - 1)
        lo, hi = self.fences[bucket], self.fences[bucket + 1]
        if isinstance(value, (int, float)) and isinstance(lo, (int, float)) \
                and isinstance(hi, (int, float)) and hi > lo:
            fraction = min(max((value - lo) / (hi - lo), 0.0), 1.0)
        else:
            fraction = 0.5  # non-numeric: credit half the bucket
        return min(1.0, (below + self.counts[bucket] * fraction) / self.total)

    def estimate_fraction(self, op: str, value: Any) -> float:
        """Fraction of non-NULL values satisfying ``column <op> value``."""
        if op == "<":
            return self.fraction_below(value, inclusive=False)
        if op == "<=":
            return self.fraction_below(value, inclusive=True)
        if op == ">":
            return 1.0 - self.fraction_below(value, inclusive=True)
        if op == ">=":
            return 1.0 - self.fraction_below(value, inclusive=False)
        return DEFAULT_SELECTIVITY


class ColumnStatistics:
    """Build-time snapshot for one column: distinct count + histogram."""

    __slots__ = ("column", "distinct", "histogram")

    def __init__(
        self,
        column: str,
        distinct: int,
        histogram: Optional[EquiDepthHistogram],
    ) -> None:
        self.column = column
        self.distinct = distinct
        self.histogram = histogram

    @classmethod
    def build(
        cls,
        column: str,
        values: Iterable[Any],
        buckets: int,
        sample_rows: int = 0,
    ) -> "ColumnStatistics":
        non_null = [value for value in values if value is not None]
        total = len(non_null)
        sampled = False
        if sample_rows and total > sample_rows:
            # systematic sample: every step-th value in scan order (store
            # order is already effectively arbitrary after delete churn)
            step = -(-total // sample_rows)
            non_null = non_null[::step]
            sampled = True
        distinct = len(set(non_null))
        if sampled and distinct * 2 >= len(non_null):
            # high cardinality: most sampled values were unique, so the
            # sample undercounts — scale linearly, capped at the row count.
            # Low-cardinality columns skip this: the sample already saw
            # (nearly) every value, so the raw count is the better answer.
            distinct = min(total, distinct * step)
        histogram: Optional[EquiDepthHistogram] = None
        try:
            non_null.sort()
        except TypeError:
            pass  # heterogeneous values: no histogram, distinct still valid
        else:
            histogram = EquiDepthHistogram.build(non_null, buckets)
        return cls(column, distinct, histogram)


class TableStatistics:
    """All statistics for one relation, with incremental maintenance.

    ``row_count`` and ``null_counts`` are exact after every DML
    primitive (O(1) per row; a batch primitive counts its rows at
    once).  ``columns`` (distinct counts, histograms) reflect the last
    build and drift until :class:`StatisticsManager` rebuilds them.
    """

    def __init__(self, relation_name: str, column_names: Sequence[str]) -> None:
        self.relation_name = relation_name
        self.row_count = 0
        self.null_counts: dict[str, int] = {name: 0 for name in column_names}
        self.columns: dict[str, ColumnStatistics] = {}
        self.rows_at_build = 0
        self.mods_since_build = 0

    # -- incremental maintenance (exact counters only) ----------------------

    def on_insert(self, row: Row) -> None:
        self.row_count += 1
        self.mods_since_build += 1
        for column in self.null_counts:
            if row.get(column) is None:
                self.null_counts[column] += 1

    def on_insert_rows(self, rows: Sequence[Row]) -> None:
        self._count_rows(rows, 1)

    def on_delete_rows(self, rows: Sequence[Row]) -> None:
        self._count_rows(rows, -1)

    def _count_rows(self, rows: Sequence[Row], sign: int) -> None:
        """A batch's exact counters: one NULL count per column over
        the whole batch, added (insert) or taken away (delete)."""
        self.row_count += sign * len(rows)
        self.mods_since_build += len(rows)
        null_counts = self.null_counts
        for column in null_counts:
            nulls = len([row for row in rows if row.get(column) is None])
            if nulls:
                null_counts[column] += sign * nulls

    def on_update(self, old_row: Row, changes: Row) -> None:
        self.mods_since_build += 1
        for column, new_value in changes.items():
            if column not in self.null_counts:
                continue
            old_value = old_row.get(column)
            if old_value is None and new_value is not None:
                self.null_counts[column] -= 1
            elif old_value is not None and new_value is None:
                self.null_counts[column] += 1

    def stale(self, staleness: float) -> bool:
        return self.mods_since_build > staleness * max(self.rows_at_build, 1)

    # -- estimation ----------------------------------------------------------

    def null_fraction(self, column: str) -> float:
        if self.row_count <= 0:
            return 0.0
        return min(1.0, self.null_counts.get(column, 0) / self.row_count)

    def distinct(self, column: str) -> int:
        """Distinct non-NULL values (as of the last build), at least 1."""
        stats = self.columns.get(column)
        if stats is None or stats.distinct <= 0:
            # never seen a build with values: assume everything matches
            return 1
        return stats.distinct

    def equality_rows(self, columns: Iterable[str]) -> float:
        """Estimated rows matching an equality over *columns*.

        Multi-column keys multiply the per-column distinct counts
        (independence assumption), capped at the row count.
        """
        if self.row_count <= 0:
            return 0.0
        combined = 1
        for column in columns:
            combined *= self.distinct(column)
            if combined >= self.row_count:
                return 1.0
        return self.row_count / max(combined, 1)

    def comparison_selectivity(self, op: str, column: str, value: Any) -> float:
        """Selectivity of ``column <op> <literal>`` in [0, 1].

        NULLs never satisfy a comparison, so the non-null fraction caps
        every estimate.
        """
        non_null = 1.0 - self.null_fraction(column)
        if non_null <= 0.0:
            return 0.0
        if op == "=":
            return non_null / self.distinct(column)
        if op == "<>":
            return non_null * (1.0 - 1.0 / self.distinct(column))
        stats = self.columns.get(column)
        if stats is None or stats.histogram is None:
            return non_null * DEFAULT_SELECTIVITY
        if value is None:
            return 0.0
        return non_null * stats.histogram.estimate_fraction(op, value)


class StatisticsManager:
    """Lazily built, incrementally maintained statistics per relation.

    The write path calls the ``on_*`` hooks (cheap counter updates for
    relations that have statistics, no-ops for those that never met the
    planner); the read path calls :meth:`table`, which builds or
    rebuilds when the staleness threshold has been crossed.
    """

    def __init__(
        self,
        db: "Database",
        staleness: float = DEFAULT_STALENESS,
        histogram_buckets: int = DEFAULT_BUCKETS,
        sample_rows: int = DEFAULT_SAMPLE_ROWS,
    ) -> None:
        self.db = db
        #: fraction of rows that may change before a lazy rebuild
        self.staleness = staleness
        self.histogram_buckets = histogram_buckets
        #: per-column value cap before distinct/histogram builds sample
        #: (0 disables sampling); row counts and null counts stay exact
        self.sample_rows = sample_rows
        #: builds that crossed the cap and sampled at least one column
        self.sampled_builds = 0
        self._tables: dict[str, TableStatistics] = {}

    # -- access --------------------------------------------------------------

    def table(self, relation_name: str) -> TableStatistics:
        stats = self._tables.get(relation_name)
        if stats is None or stats.stale(self.staleness):
            stats = self._build(relation_name)
        return stats

    def peek(self, relation_name: str) -> Optional[TableStatistics]:
        """The current statistics without triggering a (re)build."""
        return self._tables.get(relation_name)

    def analyze(self, relation_name: Optional[str] = None) -> int:
        """Eagerly (re)build statistics — one relation, or every
        relation of the database.  The explicit counterpart of the lazy
        rebuild, exposed as :meth:`repro.rdb.database.Database.analyze`
        so bulk-load setup can pay the scan up front.  Returns the
        number of relations built.
        """
        names = (
            [relation_name]
            if relation_name is not None
            else list(self.db.tables)
        )
        for name in names:
            self._build(name)
        return len(names)

    def _build(self, relation_name: str) -> TableStatistics:
        table = self.db.table(relation_name)
        stats = TableStatistics(relation_name, table.columns)
        values_by_column: dict[str, list] = {column: [] for column in table.columns}
        for _, row in table.scan():
            stats.row_count += 1
            for column, bucket in values_by_column.items():
                value = row.get(column)
                if value is None:
                    stats.null_counts[column] += 1
                else:
                    bucket.append(value)
        if self.sample_rows and stats.row_count > self.sample_rows:
            self.sampled_builds += 1
        for column, values in values_by_column.items():
            stats.columns[column] = ColumnStatistics.build(
                column, values, self.histogram_buckets,
                sample_rows=self.sample_rows,
            )
        stats.rows_at_build = stats.row_count
        stats.mods_since_build = 0
        self._tables[relation_name] = stats
        self.db.stats["stats_rebuilds"] += 1
        return stats

    # -- DML hooks (called from Database's physical layer) -------------------

    def on_insert(self, relation_name: str, row: Row) -> None:
        stats = self._tables.get(relation_name)
        if stats is not None:
            stats.on_insert(row)

    def on_insert_rows(self, relation_name: str, rows: Sequence[Row]) -> None:
        """:meth:`on_insert` for a batch of stored rows."""
        stats = self._tables.get(relation_name)
        if stats is not None:
            stats.on_insert_rows(rows)

    def on_delete_rows(self, relation_name: str, rows: Sequence[Row]) -> None:
        """Count out a batch of deleted rows."""
        stats = self._tables.get(relation_name)
        if stats is not None:
            stats.on_delete_rows(rows)

    def on_update(self, relation_name: str, old_row: Row, changes: Row) -> None:
        stats = self._tables.get(relation_name)
        if stats is not None:
            stats.on_update(old_row, changes)

    def forget(self, relation_name: str) -> None:
        """Drop statistics (DROP TABLE, or a schema change that widens)."""
        self._tables.pop(relation_name, None)

    # -- transaction rebase (see Database.rollback) --------------------------

    def mark(self) -> list[tuple[TableStatistics, int]]:
        """Each live statistics object with its drift counter, taken at
        ``begin()`` so a full rollback can hand the drift back."""
        return [(stats, stats.mods_since_build) for stats in self._tables.values()]

    def rebase(self, mark: Sequence[tuple[TableStatistics, int]]) -> None:
        """Restore ``mods_since_build`` of every object still live since
        *mark*.  Its exact counters are already back at their marked
        values (the replay undid every row), and its estimates predate
        the transaction; an object rebuilt in between keeps counting."""
        for stats, mods in mark:
            if self._tables.get(stats.relation_name) is stats:
                stats.mods_since_build = mods
