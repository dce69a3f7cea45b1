"""Set-up, the timed closed loop, the oracle checks and the metrics.

One run of one workload:

* **set-up** — build the database and checkers, then warm up with the
  stream's first requests (plan cache, probe cache and column stores
  fill); repeated :data:`SETUP_REPEATS` times, ``setup_s`` is the
  median.  After the last one, ``gc.collect(); gc.freeze()`` with GC
  left enabled.
* **timed loop** — one client sends the next request only after the
  previous one returned; each request is timed alone.  An untimed
  restore (rollback) between requests counts only in the wall clock of
  its block, so in ``updates_per_s``.  Each end-to-end timing is the
  median over blocks of whole passes (see :func:`end_to_end`).
* **oracle** — every outcome class and rows-affected count must match
  the generator's; afterwards the table digest must match the model's.

With tracing on, the run is made twice from fresh set-ups: untraced for
half the time, then traced for exactly as many requests.  Both must end
with identical engine counters and table digest; the traced one gives
the per-layer breakdown.
"""

from __future__ import annotations

import gc
import json
import math
import resource
import statistics
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator, Optional

from .streams import ACCEPTED, WORKLOADS, Env, Model, Request, Workload, db_digest
from .tracer import GC_SPAN, REQUEST_SPAN, RESTORE_SPAN, Tracer

SETUP_REPEATS = 5
#: candidate tail percentiles, highest first
TAIL_PERCENTILES = (99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)
#: process-wide engine overrides the CI sweeps export; a run under any
#: of them would not measure the default configuration
REFUSED_ENVIRONMENT = ("REPRO_VECTORIZE", "REPRO_IVM", "REPRO_PLAN_VERIFY")

#: layers with a self time (span names; ``unattributed`` is the request
#: root's own time)
TIMED_LAYERS = (
    "core.ufilter", "xquery", "core.update_binding", "core.validation",
    "core.star", "core.datacheck", "core.translation", "core.qa",
    "core.session", "rdb.plan.execute", "rdb.plan.lower", "rdb.compiled",
    "rdb.database.dml", "rdb.database.rowid", "rdb.database.rollback",
    "rdb.wal", "rdb.ivm", GC_SPAN, "unattributed",
)

def counters(env: Env) -> dict[str, int]:
    """Work counters: engine statistics, the session's probe cache, the
    WAL and the column stores."""
    db = env.db
    snapshot = {f"stats.{key}": value for key, value in db.stats.items()}
    cache = env.probe_cache
    snapshot["probe_cache.hits"] = cache.hits if cache is not None else 0
    snapshot["probe_cache.misses"] = cache.misses if cache is not None else 0
    snapshot["wal.appends"] = db.wal.appends if db.wal is not None else 0
    snapshot["wal.barriers"] = db.wal.barriers if db.wal is not None else 0
    snapshot["columns.builds"] = db.columns.builds
    return snapshot


def knobs(env: Env) -> dict[str, Any]:
    """The default ``Database`` tuning knobs the run measured under."""
    db = env.db
    return {
        "vectorize_threshold": db.vectorize_threshold,
        "ivm_threshold": db.ivm_threshold,
        "replan_threshold": db.replan_threshold,
        "replan_min_ops": db.replan_min_ops,
        "statistics.sample_rows": db.statistics.sample_rows,
    }


def tail_percentile(fixed_length: int) -> float:
    """Highest candidate percentile with >= 10 samples beyond it."""
    for percentile in TAIL_PERCENTILES:
        if fixed_length * (1.0 - percentile / 100.0) >= 10.0 - 1e-9:
            return percentile
    return 50.0


def percentile_of(values: list[float], percentile: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(percentile / 100.0 * len(ordered)))
    return ordered[rank - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# set-up and the loop
# ---------------------------------------------------------------------------

def _attempt(env: Env, request: Request) -> tuple[str, int]:
    try:
        return env.send(request)
    except Exception as exc:  # a raising request is a counted failure
        return f"raised {type(exc).__name__}: {exc}", -1


def _mismatch(request: Request, outcome: str, rows: int) -> Optional[str]:
    if outcome == request.expect and rows == request.rows:
        return None
    return (
        f"{request.kind}: expected {request.expect}/{request.rows} rows, "
        f"got {outcome}/{rows} rows"
    )


@dataclass
class Setup:
    env: Env
    model: Model
    stream: Iterator[Request]
    seconds: float
    failures: list[str]


def set_up(workload: Workload) -> Setup:
    """Build, then warm up with the stream's first requests.  Timed: the
    build and the warm-up; untimed: the oracle's table snapshot."""
    gc.collect()
    started = time.perf_counter()
    env = workload.build()
    built = time.perf_counter()
    model = Model(env.db, workload.relations)
    stream = workload.requests(model)
    failures = []
    warm_started = time.perf_counter()
    for _ in range(workload.warmup_length):
        request = next(stream)
        failure = _mismatch(request, *_attempt(env, request))
        if request.restore:
            env.restore()
        if failure is not None:
            failures.append(f"warm-up {failure}")
    seconds = (built - started) + (time.perf_counter() - warm_started)
    return Setup(env, model, stream, seconds, failures)


@dataclass
class Loop:
    latencies: array = field(default_factory=lambda: array("d"))
    accepted: array = field(default_factory=lambda: array("b"))
    #: loop clock after each request and its restore
    finished: array = field(default_factory=lambda: array("d"))
    failed: array = field(default_factory=lambda: array("b"))
    failures: list[str] = field(default_factory=list)
    started: float = 0.0

    @property
    def count(self) -> int:
        return len(self.latencies)

    def blocks(self, length: int) -> list[tuple[int, int]]:
        """Consecutive ``[low, high)`` request ranges of *length*; one
        range over the whole loop when it holds fewer than two."""
        edges = list(range(0, self.count + 1, length))
        if len(edges) < 3:
            edges = [0, self.count]
        return list(zip(edges, edges[1:]))

    def rate(self, low: int, high: int) -> float:
        """Updates completed per second of wall clock over requests
        ``[low, high)``, restores included."""
        begin = self.finished[low - 1] if low else self.started
        completed = (high - low) - sum(self.failed[low:high])
        return completed / (self.finished[high - 1] - begin)

    def updates_per_s(self, length: int) -> float:
        """The fast quartile of the block rates (see :func:`end_to_end`)."""
        return quartiles([self.rate(low, high) for low, high in self.blocks(length)])[2]


def run_loop(
    setup: Setup,
    seconds: Optional[float] = None,
    requests: Optional[int] = None,
    tracer: Optional[Tracer] = None,
) -> Loop:
    """The closed loop, for *seconds* or for exactly *requests*."""
    env, stream = setup.env, setup.stream
    loop = Loop()
    clock = time.perf_counter
    loop.started = clock()
    deadline = loop.started + seconds if seconds is not None else math.inf
    limit = requests if requests is not None else math.inf
    number = 0
    while number < limit and clock() < deadline:
        request = next(stream)
        if tracer is not None:
            root = tracer.open_root(REQUEST_SPAN, number)
        before = clock()
        outcome, rows = _attempt(env, request)
        after = clock()
        if tracer is not None:
            tracer.close_root(root)
        if request.restore:
            if tracer is not None:
                root = tracer.open_root(RESTORE_SPAN, number)
            env.restore()
            if tracer is not None:
                tracer.close_root(root)
        loop.finished.append(clock())
        loop.latencies.append(after - before)
        loop.accepted.append(outcome == ACCEPTED)
        failure = _mismatch(request, outcome, rows)
        loop.failed.append(failure is not None)
        if failure is not None:
            loop.failures.append(f"request {number} {failure}")
        number += 1
    return loop


def final_failures(setup: Setup, workload: Workload) -> list[str]:
    """The oracle's end-of-run check: table digest against the model."""
    actual = db_digest(setup.env.db, workload.relations)
    expected = setup.model.digest()
    if actual == expected:
        return []
    return [f"final table state {actual[:12]} differs from the model's {expected[:12]}"]


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def block_length(workload: Workload) -> int:
    """Whole passes of the stream, at least ``fixed_length`` requests."""
    return workload.pass_length * math.ceil(workload.fixed_length / workload.pass_length)


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def end_to_end(
    workload: Workload, setups: list[float], loop: Loop
) -> tuple[dict[str, Any], dict[str, list[float]]]:
    """Each timing is taken per block of the loop, and the run reports
    the block quartile on the fast side: the first quartile of the
    blocks' latencies, the third of their rates.  A block is whole
    passes, so every block has the same mix of request classes.  On a
    shared machine, contention from other tenants comes and goes in
    stretches of seconds; the fast quartile follows the program rather
    than how much of the run a neighbour was busy, and a slowdown the
    program causes moves every block, so it moves the quartile too.
    Also returns all three quartiles over blocks, the spread within the
    run."""
    tail = tail_percentile(workload.fixed_length)
    blocks: dict[str, list[float]] = {
        "updates_per_s": [], "request_p50_ms": [], "request_tail_ms": [],
        "accepted_p50_ms": [], "rejected_p50_ms": [],
    }
    for low, high in loop.blocks(block_length(workload)):
        latencies = loop.latencies[low:high]
        flags = loop.accepted[low:high]
        accepted = [t for t, ok in zip(latencies, flags) if ok]
        rejected = [t for t, ok in zip(latencies, flags) if not ok]
        blocks["updates_per_s"].append(loop.rate(low, high))
        blocks["request_p50_ms"].append(statistics.median(latencies) * 1e3)
        blocks["request_tail_ms"].append(percentile_of(latencies, tail) * 1e3)
        if accepted:
            blocks["accepted_p50_ms"].append(statistics.median(accepted) * 1e3)
        if rejected:
            blocks["rejected_p50_ms"].append(statistics.median(rejected) * 1e3)
    metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"}}
    for name, values in blocks.items():
        fast = quartiles(values)[2 if name == "updates_per_s" else 0] if values else 0.0
        metrics[name] = {"value": fast, "unit": "1/s" if name == "updates_per_s" else "ms"}
    metrics["peak_rss_mb"] = {"value": peak_rss_mb(), "unit": "MB"}
    return metrics, {name: quartiles(values) for name, values in blocks.items()}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_breakdown(tracer: Tracer) -> tuple[dict[str, float], dict[str, float], float, dict[str, int]]:
    """Self seconds per layer inside requests and inside restores, the
    summed request time, and span counts inside requests."""
    own = tracer.self_times()
    root = list(range(len(tracer.name)))
    in_requests: dict[str, float] = {}
    in_restores: dict[str, float] = {}
    calls: dict[str, int] = {}
    request_time = 0.0
    request_id = tracer.name_id(REQUEST_SPAN)
    restore_id = tracer.name_id(RESTORE_SPAN)
    for span, parent in enumerate(tracer.parent):
        if parent >= 0:
            root[span] = root[parent]
        kind = tracer.name[root[span]]
        name = tracer.names[tracer.name[span]]
        if kind == request_id:
            if span == root[span]:
                request_time += tracer.end[span] - tracer.start[span]
                name = "unattributed"
            in_requests[name] = in_requests.get(name, 0.0) + own[span]
            calls[name] = calls.get(name, 0) + 1
        elif kind == restore_id and span != root[span]:
            in_restores[name] = in_restores.get(name, 0.0) + own[span]
    return in_requests, in_restores, request_time, calls


def per_layer(
    block: int, env: Env, breakdown: tuple, loop: Loop, before: dict[str, int],
    after: dict[str, int], untraced: Loop, failed: int, attempted: int,
) -> dict[str, Any]:
    in_requests, in_restores, request_time, calls = breakdown
    requests = loop.count
    metrics: dict[str, tuple[float, str]] = {}
    for layer in TIMED_LAYERS:
        seconds = in_requests.get(layer, 0.0)
        if layer == "rdb.database.rollback":
            # restores run between requests; their rollback still counts
            seconds += in_restores.get(layer, 0.0)
        metrics[f"{layer}.self_ms"] = (seconds * 1e3 / requests, "ms")
        metrics[f"{layer}.share"] = (_ratio(seconds, request_time), "ratio")

    def delta(key: str) -> int:
        return after[key] - before[key]

    selects = delta("stats.selects")
    compiled = delta("stats.plans_compiled")
    maintained, fallbacks = delta("stats.ivm_maintained"), delta("stats.ivm_fallbacks")
    hits, misses = delta("probe_cache.hits"), delta("probe_cache.misses")
    rowid_hits = delta("stats.rowid_cache_hits")
    written = delta("stats.inserts") + delta("stats.deletes") + delta("stats.updates")
    counts = {
        "core.star.mark_ms": (env.marking_seconds * 1e3, "ms"),
        "core.translation.probes_per_update": (calls.get("core.translation", 0) / requests, "count"),
        "core.translation.probe_cache_hit_rate": (_ratio(hits, hits + misses), "ratio"),
        "rdb.plan.selects_per_update": (selects / requests, "count"),
        "rdb.plan.cache_hit_rate": (
            _ratio(delta("stats.plan_cache_hits"), delta("stats.plan_cache_hits") + compiled),
            "ratio",
        ),
        "rdb.plan.rows_scanned_per_select": (_ratio(delta("stats.rows_scanned"), selects), "count"),
        "rdb.compiled.plans_compiled": (compiled, "count"),
        "rdb.compiled.vectorized_share": (_ratio(delta("stats.vectorized_plans"), compiled), "ratio"),
        "rdb.compiled.vector_fallbacks_per_select": (
            _ratio(delta("stats.vector_fallbacks"), selects), "count",
        ),
        "rdb.database.rows_written_per_update": (written / requests, "count"),
        "rdb.database.rowid_cache_hit_rate": (
            _ratio(rowid_hits, rowid_hits + delta("stats.rowid_plans_compiled")), "ratio",
        ),
        "rdb.wal.appends_per_update": (delta("wal.appends") / requests, "count"),
        "rdb.wal.barriers_per_update": (delta("wal.barriers") / requests, "count"),
        "rdb.ivm.maintained_ratio": (_ratio(maintained, maintained + fallbacks), "ratio"),
        "rdb.ivm.fallbacks_per_update": (fallbacks / requests, "count"),
        "rdb.ivm.delta_rows_per_update": (delta("stats.ivm_delta_rows") / requests, "count"),
        "rdb.columnar.store_builds": (delta("columns.builds"), "count"),
        "rdb.statistics.rebuilds": (delta("stats.stats_rebuilds"), "count"),
        "tracing.overhead_ratio": (
            _ratio(loop.updates_per_s(block), untraced.updates_per_s(block)), "ratio",
        ),
        "failed_frac": (failed / attempted, "ratio"),
    }
    metrics.update(counts)
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

def _run_untraced(
    workload: Workload, seconds: float, requests: Optional[int]
) -> tuple[dict[str, Any], int, list[str], dict[str, Any]]:
    setup_seconds = []
    for _ in range(SETUP_REPEATS):
        setup = None  # let the previous set-up's database go first
        setup = set_up(workload)
        setup_seconds.append(setup.seconds)
    gc.collect()
    gc.freeze()
    loop = run_loop(setup, seconds=None if requests else seconds, requests=requests)
    failures = setup.failures + loop.failures + final_failures(setup, workload)
    blocks = loop.blocks(block_length(workload))
    metrics, spread = end_to_end(workload, setup_seconds, loop)
    detail = {
        "knobs": knobs(setup.env),
        "setup_seconds": setup_seconds,
        "tail_percentile": tail_percentile(workload.fixed_length),
        "tail_samples_beyond_per_block": (blocks[0][1] - blocks[0][0]) - math.ceil(
            tail_percentile(workload.fixed_length) / 100 * (blocks[0][1] - blocks[0][0])
        ),
        "block_requests": blocks[0][1] - blocks[0][0],
        "blocks": len(blocks),
        "requests": loop.count,
        "accepted": sum(loop.accepted),
        "failed_frac": len(failures) / max(loop.count, 1),
        "block_quartiles": spread,
    }
    return metrics, loop.count, failures, detail


def _run_traced(
    workload: Workload, seconds: float, requests: Optional[int],
    out_dir: Optional[Path],
) -> tuple[dict[str, Any], int, list[str], dict[str, Any]]:
    plain = set_up(workload)
    gc.collect()
    gc.freeze()
    untraced = run_loop(plain, seconds=None if requests else seconds / 2,
                        requests=requests)
    plain_counters = counters(plain.env)
    plain_digest = db_digest(plain.env.db, workload.relations)
    failures = plain.failures + untraced.failures + final_failures(plain, workload)
    del plain
    gc.unfreeze()
    gc.collect()

    setup = set_up(workload)
    gc.collect()
    gc.freeze()
    tracer = Tracer()
    before = counters(setup.env)
    tracer.install()
    try:
        loop = run_loop(setup, requests=untraced.count, tracer=tracer)
    finally:
        tracer.uninstall()
    after = counters(setup.env)
    failures += setup.failures + loop.failures + final_failures(setup, workload)
    diverged = sorted(key for key in after if after[key] != plain_counters.get(key))
    digests_match = db_digest(setup.env.db, workload.relations) == plain_digest
    if diverged or not digests_match:
        failures.append(
            f"traced run diverged from the untraced run: counters {diverged}, "
            f"digest {'same' if digests_match else 'differs'}"
        )
    attempted = untraced.count + loop.count
    breakdown = layer_breakdown(tracer)
    metrics = per_layer(
        block_length(workload), setup.env, breakdown, loop, before, after, untraced,
        len(failures), max(attempted, 1),
    )
    in_requests, _restores, request_time, _calls = breakdown
    detail = {
        "knobs": knobs(setup.env),
        "requests": loop.count,
        "request_seconds": request_time,
        "self_seconds": sum(in_requests.values()),
        "counters_match": not diverged,
        "digests_match": digests_match,
        "counters": after,
    }
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / f"{workload.name}-seed{workload.seed}.json"
        dump = dict(detail, metrics=metrics, spans=tracer.spans(limit_request=50))
        path.write_text(json.dumps(dump, indent=1) + "\n")
        detail["trace_file"] = str(path)
    return metrics, attempted, failures, detail


def run(
    workload_name: str, seed: int, seconds: float, trace: bool,
    out_dir: Optional[Path] = None, requests: Optional[int] = None,
) -> dict[str, Any]:
    """One benchmark run; returns ``{"result": ..., "detail": ...}``.

    *requests* replaces the time bound with a fixed request count (the
    self-test's tiny runs).  With *trace*, the spans of the first
    requests are written to *out_dir*."""
    workload = WORKLOADS[workload_name](seed)
    if trace:
        metrics, attempted, failures, detail = _run_traced(
            workload, seconds, requests, out_dir
        )
    else:
        metrics, attempted, failures, detail = _run_untraced(
            workload, seconds, requests
        )
    attempted = max(attempted, 1)
    detail = {"workload": workload_name, "seed": seed, **detail,
              "failures": failures[:5]}
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": min(len(failures), attempted),
        "metrics": metrics,
    }
    return {"result": result, "detail": detail}
