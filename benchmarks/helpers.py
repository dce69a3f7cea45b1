"""Shared machinery for the benchmark harness.

Each ``bench_figNN_*.py`` module regenerates one table/figure of the
paper's evaluation (see DESIGN.md's experiment index).  Timings come
from pytest-benchmark; in addition every module prints the same
rows/series the paper reports, so ``pytest benchmarks/ --benchmark-only``
output can be compared against the figures directly.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Callable, Iterable

from repro.core import Category, UFilter
from repro.core.update_binding import resolve_update
from repro.workloads import tpch

__all__ = [
    "Series",
    "blind_translate_and_execute",
    "byte_rows",
    "checked_translate_and_execute",
    "fresh_tpch",
    "timed",
]

#: nominal "DB size (MB)" sweep — stands in for the paper's 50..500 MB
SWEEP_MB = (0.5, 1.0, 2.0)


class Series:
    """Collects (label, x, seconds) points and prints a paper-style table."""

    _instances: dict[str, "Series"] = {}

    def __init__(self, title: str, x_name: str = "DB size (MB)") -> None:
        self.title = title
        self.x_name = x_name
        self.points: dict[str, dict[object, float]] = defaultdict(dict)

    @classmethod
    def get(cls, title: str, x_name: str = "DB size (MB)") -> "Series":
        if title not in cls._instances:
            cls._instances[title] = cls(title, x_name)
        return cls._instances[title]

    def add(self, label: str, x: object, seconds: float) -> None:
        self.points[label][x] = seconds

    def render(self) -> str:
        xs = sorted({x for series in self.points.values() for x in series})
        header = f"{self.x_name:>16} | " + " | ".join(
            f"{label:>22}" for label in self.points
        )
        lines = [f"--- {self.title} ---", header, "-" * len(header)]
        for x in xs:
            cells = " | ".join(
                (
                    f"{self.points[label][x]*1000:18.3f} ms"
                    if x in self.points[label]
                    else " " * 21
                )
                for label in self.points
            )
            lines.append(f"{x!s:>16} | {cells}")
        return "\n".join(lines)

    def print(self) -> None:
        print("\n" + self.render())


def timed(fn: Callable[[], object]) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def byte_rows(rows: Iterable[dict]) -> list:
    """Key-order-sensitive image of a result set.

    ``dict.__eq__`` ignores key order, so "byte-identical" comparisons
    between executors must compare item lists, not the dicts.
    """
    return [list(row.items()) for row in rows]


def fresh_tpch(megabytes: float, seed: int = 7):
    return tpch.build_tpch_database(tpch.scale_rows(megabytes), seed=seed)


def blind_translate_and_execute(ufilter: UFilter, update, expand=True) -> None:
    """Translate WITHOUT schema checks (Fig. 13/14's no-STAR baseline).

    Runs the data-level translation directly, as a system without
    U-Filter would: resolve, translate, execute.
    """
    resolved = resolve_update(ufilter.view_asg, update)
    from repro.core.star import StarVerdict

    fake = StarVerdict(Category.UNCONDITIONALLY_TRANSLATABLE)
    ufilter.checker.check_and_translate(
        resolved, fake, strategy="hybrid", execute=True, expand_cascades=expand
    )


def checked_translate_and_execute(ufilter: UFilter, update, expand=True):
    """The full three-step pipeline, executing the translation."""
    return ufilter.check(
        update, strategy="hybrid", execute=True, expand_cascades=expand
    )
