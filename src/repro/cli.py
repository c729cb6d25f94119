"""Command-line interface.

Installed as the ``repro`` console script::

    repro load-tpch ./db --scale 0.01
    repro info ./db
    repro query ./db "SELECT shipdate, linenum FROM lineitem \\
        WHERE shipdate < '1994-01-01' AND linenum < 7" --strategy lm-parallel
    repro explain ./db "SELECT ... "
    repro scrub ./db --deep
    repro serve ./db --port 7379 --workers 4
    repro advise ./db --apply
    repro calibrate ./db
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager

from .engine import Database
from .errors import ReproError


def _add_db_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("db", help="database root directory")


def _add_json_flag(parser: argparse.ArgumentParser, help: str) -> None:
    parser.add_argument("--json", action="store_true", help=help)


def _add_server_address(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7379)


def _add_encoding_option(parser: argparse.ArgumentParser, **kwargs) -> None:
    parser.add_argument(
        "--encoding", action="append", default=[], metavar="COLUMN=ENCODING",
        **kwargs,
    )


def _add_strategy_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--strategy",
        default="auto",
        help="em-pipelined | em-parallel | lm-pipelined | lm-parallel for a "
        "selection, materialized | multi-column | single-column for a join, "
        "or auto (default): the model's pick",
    )


def _parse_encodings(pairs: list[str]) -> dict[str, str]:
    out = {}
    for pair in pairs:
        column, sep, encoding = pair.partition("=")
        if not sep:
            raise SystemExit(
                f"--encoding expects column=encoding, got {pair!r}"
            )
        out[column] = encoding
    return out


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser for the `repro` console script."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Column-store engine reproducing 'Materialization Strategies in"
            " a Column-Oriented DBMS' (Abadi et al., ICDE 2007)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    load = sub.add_parser(
        "load-tpch", help="generate and load the TPC-H-style projections"
    )
    _add_db_argument(load)
    load.add_argument("--scale", type=float, default=0.01)
    load.add_argument("--seed", type=int, default=42)
    load.add_argument(
        "--partitions",
        type=int,
        default=1,
        help="range-partition the lineitem projection into N contiguous "
        "chunks with per-partition zone maps (default: 1, unpartitioned)",
    )

    info = sub.add_parser("info", help="list projections, columns, encodings")
    _add_db_argument(info)

    query = sub.add_parser("query", help="run a SQL statement")
    _add_db_argument(query)
    query.add_argument("sql", help="the SQL text")
    _add_strategy_option(query)
    _add_encoding_option(
        query, help="scan a column in a specific stored encoding (repeatable)"
    )
    query.add_argument("--cold", action="store_true", help="clear buffer pool")
    query.add_argument("--limit", type=int, default=20)
    query.add_argument(
        "--raw", action="store_true", help="print stored values, not decoded"
    )

    explain = sub.add_parser(
        "explain", help="show per-strategy model predictions for a query"
    )
    _add_db_argument(explain)
    explain.add_argument("sql")
    _add_encoding_option(explain)
    explain.add_argument(
        "--verbose",
        action="store_true",
        help="show the per-operator cost breakdown of each strategy",
    )
    explain.add_argument(
        "--plan",
        action="store_true",
        help="also print the chosen strategy's physical operator tree",
    )
    explain.add_argument(
        "--analyze",
        action="store_true",
        help="execute the query and print the measured span tree "
        "(EXPLAIN ANALYZE)",
    )
    _add_strategy_option(explain)
    _add_json_flag(
        explain, "with --analyze, emit the span tree as JSON instead of ASCII"
    )

    scrub = sub.add_parser(
        "scrub",
        help="verify every stored block's checksum and structure offline",
    )
    _add_db_argument(scrub)
    scrub.add_argument(
        "--deep",
        action="store_true",
        help="also decode each block and validate value counts and bounds",
    )
    scrub.add_argument(
        "--quiet",
        action="store_true",
        help="suppress the human summary line (JSON report only)",
    )

    serve = sub.add_parser(
        "serve",
        help="serve the database over TCP (newline-delimited JSON protocol)",
    )
    _add_db_argument(serve)
    _add_server_address(serve)
    serve.add_argument(
        "--workers", type=int, default=2,
        help="worker threads executing admitted queries (default: 2)",
    )
    serve.add_argument(
        "--max-queue", type=int, default=64,
        help="admission queue bound; offers past it are rejected "
        "(default: 64)",
    )

    workload = sub.add_parser(
        "workload",
        help="summarize a captured query log (templates, latency, mixes)",
    )
    workload.add_argument(
        "log", help="query-log directory (<db>/_qlog) or one segment file"
    )
    workload.add_argument(
        "--top", type=int, default=10,
        help="templates to list, by total wall time (default: 10)",
    )
    _add_json_flag(workload, "emit the summary as JSON")
    workload.add_argument(
        "--db", default=None, metavar="PATH",
        help="database root: also cost each template through the model "
        "and report per-template predicted-vs-measured residuals",
    )

    advise = sub.add_parser(
        "advise",
        help="recommend physical design changes from the query log",
    )
    _add_db_argument(advise)
    advise.add_argument(
        "--log", default=None, metavar="PATH",
        help="query-log directory or segment to read (default: the "
        "database's own <db>/_qlog)",
    )
    advise.add_argument(
        "--apply", action="store_true",
        help="execute the plan: build/drop projections through the "
        "catalog (previously logged results stay bit-identical)",
    )
    advise.add_argument(
        "--top", type=int, default=3,
        help="maximum projections to recommend building (default: 3)",
    )
    advise.add_argument(
        "--recalibrate", action="store_true",
        help="first fit the model constants to the same log "
        "(repro calibrate) and score with the fitted constants",
    )
    _add_json_flag(advise, "emit the plan as JSON")

    replay = sub.add_parser(
        "replay",
        help="re-execute a captured query log against a database",
    )
    _add_db_argument(replay)
    replay.add_argument(
        "log", help="query-log directory (<db>/_qlog) or one segment file"
    )
    replay.add_argument(
        "--check", action="store_true",
        help="assert each replayed result is bit-identical to the "
        "recorded result hash; exit 1 on any mismatch",
    )
    replay.add_argument(
        "--limit", type=int, default=None,
        help="replay at most N eligible records",
    )
    _add_json_flag(replay, "emit the report as JSON")

    metrics = sub.add_parser(
        "metrics",
        help="fetch Prometheus-format metrics from a running server",
    )
    _add_server_address(metrics)
    _add_json_flag(
        metrics, "raw registry export + serving stats instead of text format"
    )

    top = sub.add_parser(
        "top",
        help="live refreshing terminal view of a running server",
    )
    _add_server_address(top)
    top.add_argument(
        "--interval", type=float, default=2.0,
        help="seconds between refreshes (default: 2)",
    )
    top.add_argument(
        "--count", type=int, default=None,
        help="exit after N refreshes (default: run until Ctrl-C)",
    )
    top.add_argument(
        "--no-clear", action="store_true",
        help="append frames instead of clearing the screen",
    )

    calibrate = sub.add_parser(
        "calibrate",
        help="fit this host's Table 2 CPU constants to a query log's "
        "wall time over its logged counters",
    )
    _add_db_argument(calibrate)
    calibrate.add_argument(
        "--from-log", nargs="?", const="", default="", metavar="PATH",
        dest="from_log",
        help="query-log directory or segment to fit (default: the "
        "database's own <db>/_qlog)",
    )
    _add_json_flag(calibrate, "emit the calibration report as JSON")

    reproduce = sub.add_parser(
        "reproduce", help="regenerate one of the paper's evaluation figures"
    )
    reproduce.add_argument(
        "figure", help="11a | 11b | 11c | 12a | 12b | 12c | 13"
    )
    reproduce.add_argument("--scale", type=float, default=0.05)
    reproduce.add_argument("--seed", type=int, default=42)
    return parser


def cmd_load_tpch(args) -> int:
    """`repro load-tpch`: generate and load the TPC-H-style projections."""
    from .tpch import load_tpch

    with Database(args.db) as db:
        load_tpch(
            db.catalog,
            scale=args.scale,
            seed=args.seed,
            partitions=args.partitions,
        )
        for name in db.catalog.names():
            proj = db.projection(name)
            parts = (
                f" in {len(proj.partitions)} partitions"
                if proj.is_partitioned
                else ""
            )
            print(f"loaded projection {name}: {proj.n_rows} rows{parts}")
        return 0


def cmd_info(args) -> int:
    """`repro info`: list projections, columns, encodings, indexes."""
    with Database(args.db) as db:
        names = db.catalog.names()
        if not names:
            print("no projections")
            return 0
        for name in names:
            proj = db.projection(name)
            keys = ", ".join(proj.sort_keys) or "unsorted"
            print(f"{name}: {proj.n_rows} rows, sorted by ({keys})")
            if proj.is_partitioned:
                print(f"  range-partitioned: {len(proj.partitions)} "
                      "partitions")
                for part in proj.partitions:
                    zones = ", ".join(
                        f"{col}=[{zm.min_value},{zm.max_value}]"
                        for col, zm in part.zone_maps.items()
                    )
                    print(f"    {part.name}: {part.n_rows} rows, {zones}")
            for col in proj.column_names:
                pc = proj.physical_column(col)
                encodings = ", ".join(pc.encodings)
                indexed = "  [indexed]" if pc.indexed else ""
                print(f"  {col:>16} ({pc.schema.ctype.name}): "
                      f"{encodings}{indexed}")
        return 0


def cmd_query(args) -> int:
    """`repro query`: run a SQL statement and print rows + costs."""
    with Database(args.db) as db:
        result = db.sql(
            args.sql,
            strategy=args.strategy,
            encodings=_parse_encodings(args.encoding) or None,
            cold=args.cold,
        )
        rows = result.rows() if args.raw else result.decoded_rows()
        print(" | ".join(result.tuples.columns))
        for row in rows[: args.limit]:
            print(" | ".join(str(v) for v in row))
        if result.n_rows > args.limit:
            print(f"... ({result.n_rows - args.limit} more rows)")
        print(_summary_line(result.summary(), 1))
        return 0


def _summary_line(summary: dict, digits: int) -> str:
    """The ``-- N rows, strategy=…`` line of a :meth:`QueryResult.summary`,
    with the partition counts when it scanned a range-partitioned
    projection."""
    line = (
        f"-- {summary['rows']} rows, strategy={summary['strategy']}, "
        f"wall={summary['wall_ms']:.{digits}f} ms, "
        f"model-replay={summary['simulated_ms']:.{digits}f} ms"
    )
    parts = summary.get("partitions")
    if parts:
        line += (
            f", partitions={parts['scanned']}/{parts['total']} "
            f"scanned ({parts['pruned']} pruned)"
        )
    return line


def cmd_explain(args) -> int:
    """`repro explain`: model predictions, or measured spans with --analyze
    (the query run traced)."""
    from .planner.describe import render_span_tree
    from .sql import bind, parse

    with Database(args.db) as db:
        query = bind(
            parse(args.sql),
            db.catalog,
            encodings=_parse_encodings(args.encoding) or None,
        )
        if args.analyze:
            result = db.query(query, strategy=args.strategy, trace=True)
            if args.json:
                print(json.dumps(
                    result.spans.to_dict(db.constants), indent=2
                ))
            else:
                print(render_span_tree(result.spans, db.constants))
                print(_summary_line(result.summary(), 2))
            return 0
        plan = db.explain(query)
        parts = plan.get("partitions")
        if parts:
            print(
                f"partitions: {parts['scanned']}/{parts['total']} scanned, "
                f"{parts['pruned']} pruned by zone maps"
            )
        predictions = sorted(plan["predictions"].items(), key=lambda kv: kv[1])
        for name, ms in predictions:
            marker = "  <- chosen" if name == plan["chosen"] else ""
            print(f"{name:>14}: {ms:9.2f} ms predicted{marker}")
            if args.verbose:
                detail = next(
                    d for s, d in plan["details"].items() if s.value == name
                )
                for step, step_ms in detail.breakdown().items():
                    print(f"{'':>18}{step:<24} {step_ms:8.2f} ms")
        if args.plan:
            print()
            print(db.describe(query, strategy=plan["chosen"]))
        return 0


def cmd_scrub(args) -> int:
    """`repro scrub`: offline checksum + structure verification.

    Scrubs the root's files without opening a database (which would run
    recovery, and refuse metadata it cannot decode), so a root that cannot
    open is reported too. Prints a machine-readable JSON report naming each
    defect; exits 0 when the store is clean, 1 when any damage was found.
    """
    from .scrub import scrub_catalog

    report = scrub_catalog(args.db, deep=args.deep)
    print(json.dumps(report.to_json(), indent=2))
    if not args.quiet:
        status = "clean" if report.clean else f"{len(report.issues)} issue(s)"
        print(
            f"-- scrubbed {report.projections_scanned} projections, "
            f"{report.files_scanned} files, {report.blocks_scanned} blocks: "
            f"{status}",
            file=sys.stderr,
        )
    return 0 if report.clean else 1


def cmd_serve(args) -> int:
    """`repro serve`: run the query server in the foreground until Ctrl-C."""
    import asyncio

    from .serving import QueryServer

    async def main(db) -> None:
        server = QueryServer(
            db,
            host=args.host,
            port=args.port,
            workers=args.workers,
            max_queue=args.max_queue,
        )
        await server.start()
        print(
            f"serving {args.db} on {server.host}:{server.port} "
            f"({args.workers} workers, queue bound {args.max_queue}); "
            "Ctrl-C to drain and stop"
        )
        try:
            await server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await server.shutdown(drain=True)
            print("drained, bye", file=sys.stderr)

    try:
        with Database(args.db) as db:
            asyncio.run(main(db))
    except KeyboardInterrupt:
        # Runner semantics vary across Python versions: SIGINT may cancel
        # the main task (drain already ran above) or surface here.
        pass
    return 0


@contextmanager
def _logged_db(db_path, log_path):
    """Yield ``(db, records)`` for a command that reads a query log.

    The database (``None`` without *db_path*) opens with its own recorder
    off, so reading, advising on or replaying a log never appends to it;
    *log_path* defaults to the database's own ``<db>/_qlog``. The database
    is closed however the command ends.
    """
    from .qlog import read_query_log

    db = Database(db_path, query_log=False) if db_path else None
    try:
        yield db, read_query_log(log_path or db.catalog.root / "_qlog")
    finally:
        if db is not None:
            db.close()


def _emit(report, as_json: bool, **view) -> None:
    """Print *report* as indented JSON (``to_dict``) or as text (``render``)."""
    if as_json:
        print(json.dumps(report.to_dict(**view), indent=2))
    else:
        print(report.render(**view))


def cmd_workload(args) -> int:
    """`repro workload`: aggregate a query log into a workload summary."""
    from .workload import summarize_log

    with _logged_db(args.db, args.log) as (db, records):
        summary = summarize_log(records, db=db)
    _emit(summary, args.json, top=args.top)
    return 0


def cmd_advise(args) -> int:
    """`repro advise`: workload-adaptive physical design recommendations.

    Reads the query log, scores candidate designs in what-if mode, prints
    the ranked plan, and with --apply builds/drops the recommended
    projections through the catalog.
    """
    from .advisor import advise, apply_plan
    from .model import recalibrate_from_log

    with _logged_db(args.db, args.log) as (db, records):
        calibration = (
            recalibrate_from_log(db, records) if args.recalibrate else None
        )
        plan = advise(
            db, records,
            constants=calibration.constants if calibration else None,
            max_builds=args.top,
        )
        if args.json:
            payload = plan.to_dict()
            if calibration is not None:
                payload["calibration"] = calibration.to_dict()
            print(json.dumps(payload, indent=2))
        else:
            if calibration is not None:
                fit = "fitted" if calibration.used_fitted else "baseline"
                print(
                    f"constants      {fit} "
                    f"(mae {calibration.mae_fitted_ms:.3f} vs "
                    f"{calibration.mae_baseline_ms:.3f} ms over "
                    f"{calibration.n_records} records)"
                )
            print(plan.render())
        if args.apply:
            applied = apply_plan(db, plan)
            if not args.json:
                for name in applied:
                    print(f"applied        {name}")
                if not applied:
                    print("applied        nothing (no actions)")
    return 0


def cmd_replay(args) -> int:
    """`repro replay`: re-execute a captured log; --check gates bit-identity."""
    from .workload import replay_log

    with _logged_db(args.db, args.log) as (db, records):
        report = replay_log(db, records, check=args.check, limit=args.limit)
    _emit(report, args.json)
    return 0 if (not args.check or report.ok) else 1


def _poll_server(args, fmt: str, show, count=1, interval: float = 0.0) -> int:
    """Fetch a running server's metrics *count* times, handing each to *show*.

    ``count=None`` polls every *interval* seconds until Ctrl-C. Shared by
    `repro metrics` and `repro top`: an unreachable server or an error reply
    prints ``error: …`` and returns 1.
    """
    import asyncio

    from .serving import AsyncQueryClient

    async def run() -> int:
        client = await AsyncQueryClient.connect(args.host, args.port)
        try:
            polled = 0
            while True:
                response = await client.metrics(format=fmt)
                if not response.get("ok"):
                    print(f"error: {response.get('error')}", file=sys.stderr)
                    return 1
                show(response)
                polled += 1
                if count is not None and polled >= count:
                    return 0
                await asyncio.sleep(interval)
        finally:
            await client.close()

    try:
        return asyncio.run(run())
    except (ConnectionError, OSError) as exc:
        print(
            f"error: cannot reach {args.host}:{args.port}: {exc}",
            file=sys.stderr,
        )
        return 1
    except KeyboardInterrupt:
        return 0


def cmd_metrics(args) -> int:
    """`repro metrics`: scrape a running server's metrics exposition."""

    def show(response: dict) -> None:
        if args.json:
            print(json.dumps(
                {"metrics": response["metrics"], "stats": response["stats"]},
                indent=2,
            ))
        else:
            print(response["text"], end="")

    return _poll_server(args, "json" if args.json else "prometheus", show)


def _render_top_frame(payload: dict, previous: dict | None,
                      interval: float) -> tuple[str, dict]:
    """One `repro top` frame from a metrics-op JSON payload.

    Returns the frame text plus the counters carried to the next frame so
    rates (qps) can be computed as deltas.
    """
    from .metrics import bucket_percentile

    stats = payload.get("stats", {})
    metrics = payload.get("metrics", {})
    counters = metrics.get("counters", {})
    admission = stats.get("admission", {})
    lines = []
    uptime = stats.get("uptime_s", 0.0)
    lines.append(
        f"repro top — up {uptime:8.1f}s   sessions {stats.get('sessions', 0)}"
        f"   active {stats.get('active', 0)}/{stats.get('workers', 0)} workers"
        + ("   DRAINING" if stats.get("draining") else "")
    )
    per_class = admission.get("per_class", {})
    depth_text = "  ".join(
        f"{cls}={per_class.get(cls, 0)}"
        for cls in ("interactive", "normal", "batch")
    )
    lines.append(
        f"queue   depth {admission.get('depth', 0)} "
        f"(peak {admission.get('peak_depth', 0)}, "
        f"bound {admission.get('max_depth', 0)})   {depth_text}   "
        f"rejected {admission.get('rejected', 0)}"
    )
    total = counters.get("queries_total", 0)
    carried = {"queries_total": total}
    if previous is not None and interval > 0:
        qps = max(0, total - previous.get("queries_total", 0)) / interval
        lines.append(f"queries {total} total   {qps:8.1f} qps")
    else:
        lines.append(f"queries {total} total")
    hist = (metrics.get("histograms") or {}).get("query_wall_ms")
    if hist and hist.get("count"):
        p50, p90, p99 = (
            bucket_percentile(hist["bounds"], hist["counts"], q, hist["max_ms"])
            for q in (0.5, 0.9, 0.99)
        )
        lines.append(
            f"latency p50<={p50:g} ms  p90<={p90:g} ms  p99<={p99:g} ms  "
            f"(n={hist['count']})"
        )
    strategies = sorted(
        (name.rsplit(".", 1)[1], value)
        for name, value in counters.items()
        if name.startswith("queries.strategy.")
    )
    if strategies:
        lines.append(
            "mix     " + "  ".join(f"{s}={v}" for s, v in strategies)
        )
    slow = metrics.get("slow_queries") or []
    if slow:
        lines.append(f"slow queries (last {min(len(slow), 5)}):")
        for entry in slow[-5:]:
            wait = entry.get("queue_wait_ms", 0.0)
            flag = "  DEGRADED" if entry.get("degraded") else ""
            lines.append(
                f"  {entry.get('wall_ms', 0.0):9.2f} ms "
                f"(queue {wait:7.2f} ms) {entry.get('strategy', '?'):>13} "
                f"{str(entry.get('query', ''))[:60]}{flag}"
            )
    return "\n".join(lines), carried


def cmd_top(args) -> int:
    """`repro top`: live refreshing view of a running server."""
    previous: dict | None = None

    def show(response: dict) -> None:
        nonlocal previous
        frame, previous = _render_top_frame(response, previous, args.interval)
        if not args.no_clear and sys.stdout.isatty():
            print("\x1b[2J\x1b[H", end="")
        print(frame)

    return _poll_server(args, "json", show, args.count, args.interval)


def cmd_calibrate(args) -> int:
    """`repro calibrate`: fit the CPU constants to a query log.

    Least-squares-fits BIC, TICCOL, TICTUP and FC to the logged wall time
    over the logged counters (see :mod:`repro.model.recalibrate`); the fit
    is only adopted when its trace MAE is no worse than the baseline
    constants'.
    """
    from .model import recalibrate_from_log

    with _logged_db(args.db, args.from_log) as (db, records):
        report = recalibrate_from_log(db, records)
    _emit(report, args.json)
    return 0


def cmd_reproduce(args) -> int:
    """`repro reproduce`: regenerate one of the paper's figures."""
    from .reproduce import reproduce_figure

    reproduce_figure(args.figure, scale=args.scale, seed=args.seed)
    return 0


_COMMANDS = {
    "load-tpch": cmd_load_tpch,
    "info": cmd_info,
    "query": cmd_query,
    "explain": cmd_explain,
    "scrub": cmd_scrub,
    "serve": cmd_serve,
    "workload": cmd_workload,
    "advise": cmd_advise,
    "replay": cmd_replay,
    "metrics": cmd_metrics,
    "top": cmd_top,
    "calibrate": cmd_calibrate,
    "reproduce": cmd_reproduce,
}


def main(argv: list[str] | None = None) -> int:
    """Console entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
