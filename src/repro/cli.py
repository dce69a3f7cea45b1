"""Command-line front end: ``python -m repro ...``.

Subcommands:

* ``demo``  — run the paper's running example end to end;
* ``asg``   — print the annotated schema graph (marks included) for a
  view over a schema;
* ``check`` — check one update against a view over a populated
  database;
* ``batch-update`` — run a whole file of updates as one
  :class:`repro.core.session.UpdateSession` (probe caching, conflict
  detection, single transaction);
* ``audit`` — regenerate the Fig. 12 W3C expressiveness table;
* ``wellnested`` — report whether a view is well-nested;
* ``qa`` — round-trip seeded random scenarios through every strategy
  and the interpreted oracles, cross-checking outcomes, final states,
  the rectangle rule and the post-translation QA audit
  (:mod:`repro.core.scenario_gen`);
* ``faults`` — crash-at-every-site fault sweep: re-run seeded
  scenarios with a simulated crash or transient fault injected at each
  recorded site, recover, and assert atomicity + storage integrity
  (:mod:`repro.core.faultsweep`);
* ``lint`` — run the repo invariant linter (rules REP001–REP005 of
  :mod:`repro.analysis`) over the source tree, and with ``--plans``
  additionally sweep the plan-IR verifier across generated scenarios;
* ``bench`` — run the engine executor benchmark (the Fig. 15/16 probe
  workloads under the interpreted and row-compiled executors) at a
  chosen scale, writing the timing JSON and optionally gating against
  a committed ``BENCH_engine.json``.

Schemas/data are supplied as SQL scripts (CREATE TABLE + INSERT
statements in the dialect of :mod:`repro.rdb.sql`), views and updates
as files in the languages of :mod:`repro.xquery`.  Batch files hold
several updates separated by lines containing only dashes (``---``);
a ``# name`` comment line at the top of a section names the update.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path
from typing import Optional, Sequence

from .core import UFilter, UpdateSession
from .core.wellnested import analyze_well_nestedness
from .rdb import Database, Schema, SQLEngine, parse_script

__all__ = ["main", "build_parser"]


def _load_database(sql_path: str) -> Database:
    db = Database(Schema())
    engine = SQLEngine(db)
    script = Path(sql_path).read_text()
    for statement in parse_script(script):
        engine.execute(statement)
    return db


def _read(path_or_dash: str) -> str:
    if path_or_dash == "-":
        return sys.stdin.read()
    return Path(path_or_dash).read_text()


def split_batch_file(text: str) -> list[tuple[str, str]]:
    """Split a batch file into (name, update text) sections.

    Sections are separated by lines of three or more dashes.  A leading
    ``# name`` comment inside a section names it; unnamed sections get
    positional names (#1, #2, ...).  Empty sections are dropped.
    """
    sections: list[tuple[str, str]] = []
    for raw in re.split(r"(?m)^-{3,}\s*$", text):
        name = ""
        lines: list[str] = []
        in_header = True
        for line in raw.splitlines():
            stripped = line.strip()
            if in_header and not stripped:
                continue
            if in_header and stripped.startswith("#"):
                name = name or stripped.lstrip("#").strip()
                continue
            in_header = False
            lines.append(line)
        body = "\n".join(lines).strip()
        if body:
            sections.append((name or f"#{len(sections) + 1}", body))
    return sections


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="U-Filter: a lightweight XML view update checker",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("demo", help="run the paper's running example")

    asg = sub.add_parser("asg", help="print a view's annotated schema graph")
    asg.add_argument("--db", required=True, help="SQL script (DDL [+ data])")
    asg.add_argument("--view", required=True, help="view query file (or -)")

    check = sub.add_parser("check", help="check an update against a view")
    check.add_argument("--db", required=True, help="SQL script (DDL + data)")
    check.add_argument("--view", required=True, help="view query file (or -)")
    check.add_argument("--update", required=True, help="update file (or -)")
    check.add_argument(
        "--strategy",
        choices=("internal", "hybrid", "outside"),
        default="outside",
    )
    check.add_argument(
        "--execute",
        action="store_true",
        help="apply the translated SQL to the loaded database",
    )

    batch = sub.add_parser(
        "batch-update",
        help="run a file of updates as one batched session",
    )
    batch.add_argument("batch", help="batch file: updates separated by '---' lines")
    batch.add_argument("--db", required=True, help="SQL script (DDL + data)")
    batch.add_argument("--view", required=True, help="view query file (or -)")
    batch.add_argument(
        "--strategy",
        choices=("internal", "hybrid", "outside"),
        default="outside",
    )
    batch.add_argument(
        "--mode",
        choices=("staged", "interleaved"),
        default="staged",
        help="staged: check all, detect conflicts, apply once; "
        "interleaved: check+apply update-by-update in one transaction",
    )
    batch.add_argument(
        "--no-atomic",
        action="store_true",
        help="apply the accepted updates even when others fail",
    )
    batch.add_argument(
        "--no-temp-indexes",
        action="store_true",
        help="leave materialized probe results unindexed (paper-faithful)",
    )

    sub.add_parser("audit", help="regenerate the Fig. 12 W3C table")

    wn = sub.add_parser("wellnested", help="well-nestedness analysis")
    wn.add_argument("--db", required=True)
    wn.add_argument("--view", required=True)

    qa = sub.add_parser(
        "qa",
        help="cross-check strategies/oracles over generated scenarios",
    )
    qa.add_argument(
        "--scenarios",
        type=int,
        default=100,
        help="number of seeded scenarios to round-trip (default 100)",
    )
    qa.add_argument(
        "--seed",
        type=int,
        default=0,
        help="first scenario seed; scenarios use seed, seed+1, ...",
    )
    qa.add_argument(
        "--json",
        metavar="PATH",
        help="also write the summary and any divergences as JSON",
    )

    faults = sub.add_parser(
        "faults",
        help="crash-at-every-site fault sweep over generated scenarios",
    )
    faults.add_argument(
        "--scenarios",
        type=int,
        default=50,
        help="number of seeded scenarios to sweep (default 50)",
    )
    faults.add_argument(
        "--seed",
        type=int,
        default=0,
        help="first scenario seed; scenarios use seed, seed+1, ...",
    )
    faults.add_argument(
        "--max-points",
        type=int,
        default=None,
        metavar="N",
        help="bound the exhaustive crash enumeration per scenario "
        "(evenly sampled past N; default: every recorded site)",
    )
    faults.add_argument(
        "--json",
        metavar="PATH",
        help="also write the summary and any findings as JSON",
    )

    lint = sub.add_parser(
        "lint",
        help="run the repo invariant linter (REP001-REP005)",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: the installed "
        "repro package source)",
    )
    lint.add_argument(
        "--rules",
        metavar="IDS",
        help="comma-separated rule ids to run (default: all)",
    )
    lint.add_argument(
        "--plans",
        action="store_true",
        help="also sweep the plan-IR verifier over generated scenarios "
        "(REPRO_PLAN_VERIFY armed for every lowering)",
    )
    lint.add_argument(
        "--scenarios",
        type=int,
        default=200,
        help="scenarios for the --plans sweep (default 200)",
    )
    lint.add_argument(
        "--seed",
        type=int,
        default=0,
        help="first scenario seed for the --plans sweep",
    )
    lint.add_argument(
        "--json",
        metavar="PATH",
        help="also write findings (and the plan-sweep report) as JSON",
    )

    bench = sub.add_parser(
        "bench",
        help="run the engine executor benchmark (Fig. 15/16 workloads, "
        "interpreted vs row-compiled)",
    )
    bench.add_argument(
        "--streaming",
        action="store_true",
        help="run the streaming-session benchmark instead (probe "
        "maintenance vs invalidate-and-recompute, BENCH_streaming.json)",
    )
    bench.add_argument(
        "--scale",
        type=float,
        default=None,
        metavar="MB",
        help="nominal database size in MB (default: the benchmark's "
        "full-run scale; engine benchmark only)",
    )
    bench.add_argument(
        "--rounds",
        type=int,
        default=None,
        help="best-of timing rounds per executor (with --streaming: "
        "live update rounds)",
    )
    bench.add_argument(
        "--quick",
        action="store_true",
        help="reduced scale, one timing round (CI smoke mode)",
    )
    bench.add_argument(
        "--out",
        metavar="PATH",
        help="output JSON path (default: the committed benchmark file)",
    )
    bench.add_argument(
        "--check-against",
        metavar="COMMITTED",
        help="fail if rows_scanned regresses versus this committed "
        "benchmark file (run at the committed shape)",
    )

    return parser


def _cmd_demo() -> int:
    from .workloads import books

    db = books.build_book_database()
    checker = UFilter(db, books.book_view_query())
    print("BookView annotated schema graph:")
    for node in checker.view_asg.internal_nodes():
        print(f"  {node.node_id}  <{node.name}>  ({node.mark})")
    print()
    for name in books.UPDATE_TEXTS:
        report = checker.check(books.update(name))
        line = f"{name:4} -> {report.outcome.value}"
        if report.condition:
            line += f" [{report.condition}]"
        print(line)
        if report.reason and not report.outcome.accepted:
            print(f"        {report.reason[:96]}")
        for sql in report.sql_updates:
            print(f"        SQL: {sql}")
    return 0


def _cmd_asg(args: argparse.Namespace) -> int:
    db = _load_database(args.db)
    checker = UFilter(db, _read(args.view))
    print(checker.describe_asg())
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    db = _load_database(args.db)
    checker = UFilter(db, _read(args.view))
    report = checker.check(
        _read(args.update), strategy=args.strategy, execute=args.execute
    )
    print(report.summary())
    return 0 if report.outcome.accepted else 1


def _cmd_batch_update(args: argparse.Namespace) -> int:
    from .core.session import STAGEABLE_STRATEGIES

    if args.mode == "staged" and args.strategy not in STAGEABLE_STRATEGIES:
        print(
            f"batch-update: --strategy {args.strategy} requires "
            f"--mode interleaved (staged sessions defer-apply structured "
            f"plans, which only {'/'.join(STAGEABLE_STRATEGIES)} produce)",
            file=sys.stderr,
        )
        return 2
    db = _load_database(args.db)
    session = UpdateSession(
        db,
        _read(args.view),
        strategy=args.strategy,
        index_temp_tables=not args.no_temp_indexes,
    )
    try:
        batch_text = Path(args.batch).read_text()
    except OSError as exc:
        print(f"{args.batch}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    sections = split_batch_file(batch_text)
    if not sections:
        print(f"{args.batch}: no updates found", file=sys.stderr)
        return 2
    from .errors import ReproError

    for name, text in sections:
        try:
            session.add(text, name=name)
        except ReproError as exc:
            print(f"{args.batch}: update {name!r}: {exc}", file=sys.stderr)
            return 2
    result = session.execute(mode=args.mode, atomic=not args.no_atomic)
    print(result.summary())
    return 0 if result.committed else 1


def _cmd_audit() -> int:
    from .workloads.w3c_usecases import run_audit

    print(f"{'View Query':12} {'Included':9} Reason")
    for name, included, reason in run_audit():
        print(f"{name:12} {'yes' if included else 'no':9} {reason or '-'}")
    return 0


def _cmd_wellnested(args: argparse.Namespace) -> int:
    db = _load_database(args.db)
    checker = UFilter(db, _read(args.view))
    report = analyze_well_nestedness(checker.view_asg)
    if report.well_nested:
        print("well-nested: every valid update over this view is translatable")
        return 0
    print("NOT well-nested:")
    for violation in report.violations:
        print(f"  - {violation}")
    return 1


def _cmd_qa(args: argparse.Namespace) -> int:
    import json

    from .core.scenario_gen import run_many

    summary = run_many(args.scenarios, seed=args.seed)
    print(summary.describe())
    if args.json:
        payload = {
            "scenarios": summary.scenarios,
            "updates_checked": summary.updates_checked,
            "accepted": summary.accepted,
            "rejected": summary.rejected,
            "qa_warnings": summary.qa_warnings,
            "divergences": [d.to_dict() for d in summary.divergences],
        }
        Path(args.json).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.json}")
    if not summary.ok:
        print(
            "replay one divergence with: repro qa --scenarios 1 --seed <seed>",
            file=sys.stderr,
        )
    return 0 if summary.ok else 1


def _cmd_faults(args: argparse.Namespace) -> int:
    import json

    from .core.faultsweep import sweep_many

    summary = sweep_many(
        args.scenarios, seed=args.seed, max_points=args.max_points
    )
    print(summary.describe())
    if args.json:
        payload = {
            "scenarios": summary.scenarios,
            "sites": summary.sites,
            "crash_points": summary.crash_points,
            "redo_points": summary.redo_points,
            "transient_points": summary.transient_points,
            "retries_used": summary.retries_used,
            "recoveries": summary.recoveries,
            "findings": [f.to_dict() for f in summary.findings],
        }
        Path(args.json).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.json}")
    if not summary.ok:
        print(
            "replay one finding with: repro faults --scenarios 1 --seed <seed>",
            file=sys.stderr,
        )
    return 0 if summary.ok else 1


def _cmd_lint(args: argparse.Namespace) -> int:
    import json

    from .analysis import lint_paths
    from .analysis.planlint import sweep_plans

    paths = args.paths or [str(Path(__file__).resolve().parent)]
    rule_ids = None
    if args.rules:
        rule_ids = [part.strip() for part in args.rules.split(",") if part.strip()]
    try:
        report = lint_paths(paths, rule_ids=rule_ids)
    except ValueError as exc:
        print(f"lint: {exc}", file=sys.stderr)
        return 2
    print(report.describe())
    exit_code = report.exit_code
    payload = report.to_dict()
    if args.plans:
        sweep = sweep_plans(args.scenarios, seed=args.seed)
        print(sweep.describe())
        payload["plan_sweep"] = sweep.to_dict()
        if not sweep.ok:
            exit_code = 1
    if args.json:
        Path(args.json).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.json}")
    return exit_code


def _cmd_bench(args: argparse.Namespace) -> int:
    # the benchmark harness lives in the repository's benchmarks/
    # package, next to src/ — importable from a checkout, not from an
    # installed wheel
    module = (
        "bench_batch_sessions" if args.streaming else "bench_engine_opt"
    )
    try:
        import importlib

        bench = importlib.import_module(f"benchmarks.{module}")
    except ImportError:
        sys.path.insert(0, str(Path.cwd()))
        try:
            bench = importlib.import_module(f"benchmarks.{module}")
        except ImportError:
            print(
                "bench: the benchmarks/ package is not importable — run "
                "from the repository root",
                file=sys.stderr,
            )
            return 2
    argv: list[str] = []
    if args.quick:
        argv.append("--quick")
    if args.scale is not None:
        if args.streaming:
            print("bench: --scale only applies to the engine benchmark",
                  file=sys.stderr)
            return 2
        argv += ["--scale", str(args.scale)]
    if args.rounds is not None:
        argv += ["--rounds", str(args.rounds)]
    if args.out:
        argv += ["--out", args.out]
    if args.check_against:
        argv += ["--check-against", args.check_against]
    try:
        bench.main(argv)
    except SystemExit as exc:
        if exc.code in (0, None):
            return 0
        if isinstance(exc.code, str):
            print(f"bench: {exc.code}", file=sys.stderr)
            return 1
        return int(exc.code)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "demo":
        return _cmd_demo()
    if args.command == "asg":
        return _cmd_asg(args)
    if args.command == "check":
        return _cmd_check(args)
    if args.command == "batch-update":
        return _cmd_batch_update(args)
    if args.command == "audit":
        return _cmd_audit()
    if args.command == "wellnested":
        return _cmd_wellnested(args)
    if args.command == "qa":
        return _cmd_qa(args)
    if args.command == "faults":
        return _cmd_faults(args)
    if args.command == "lint":
        return _cmd_lint(args)
    if args.command == "bench":
        return _cmd_bench(args)
    raise AssertionError("unreachable")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
