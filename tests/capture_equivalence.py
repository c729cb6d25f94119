"""Counter/answer equivalence capture for wall-clock-only changes.

A change that only swaps the numpy underneath the operators must leave every
result block, every ``QueryStats`` counter (``extra`` included) and
``simulated_ms`` exactly as they were. Run this on the parent commit and on
the change and compare the two captures::

    PYTHONPATH=<parent>/src python tests/capture_equivalence.py /tmp/parent.json
    PYTHONPATH=src           python tests/capture_equivalence.py /tmp/change.json
    PYTHONPATH=src           python tests/capture_equivalence.py --compare /tmp/parent.json /tmp/change.json

``--compare`` prints the first differing records, how many records of
each kind differ (result, explain, describe, analyze, qlog, registry,
spans, pick, advise, write, pending), and for the reads over pending
writes how many differ in each field: the answer, the error,
``simulated_ms``, the describe text and every ``QueryStats`` counter.
Beside the ``qlog`` line it prints the bytes of every configuration's
query-log directory, summed, for each capture, with every record's
wall-clock fields (``ts``, ``wall_ms``, ``queue_wait_ms``) counted as one
fixed token each: a count that two captures of one tree print equal, so a
change to the log format shows its size exactly.

It sweeps seeds x {1, 4} partitions x engine configurations over the paper's
Section 4.1 selection (4 strategies x 3 ``linenum`` encodings x 6
selectivities), the Section 4.2 aggregations, and the Section 4.3 join under
all three right-table strategies and both left-table strategies, plus a
predicate-free selection, a disjunction and an all-columns projection.
Selections also run under ``auto`` (the chosen strategy is recorded), each
query's ``Database.explain`` (selections and joins) records the chosen
strategy and every strategy's predicted steps, each selection's
``Database.describe`` text is recorded per strategy (or the
``UnsupportedOperationError`` a rejected plan raises), each join cell
records, from a second handle on the same data (so its pool cannot move
the other records' counters), its traced span list and describe text (or
error) per strategy and its ``auto`` pick, and each query's
last strategy (``auto`` for
selections) records SHA-256 digests of the JSON a served reply would carry
(``rows()`` and ``decoded_rows()``, dates as ISO strings) — once per seed,
unpartitioned and in the default configuration, since the block digest
already pins the same block everywhere else. The views of each finished
query are captured too: every execution's query-log record (without its
``ts``, ``seq`` and ``wall_ms``), each query's ``explain(analyze=True)``
report under its last strategy in the default configuration (without
wall-clock timings), and each configuration's final registry counters
(without the wall-clock-dependent ``queries_slow_total``), and each
configuration's ``advise`` plan over its own query log: every action's
kind, name, sort keys, columns and encodings, and the baseline,
predicted and per-action (and per-template) deltas as ``repr`` floats,
so equal records mean bit-identical advice. The
grouping and join kernels have a direct-address branch for dense integer
domains and a sorting branch for the rest; TPC-H keys are all dense, so the
capture also groups over wide compound keys (1-D unique and int64-overflow
branches) and joins against ``sparse_customer``, a small right table of
every 97th customer built here, on its sparse ``custkey`` and on its dense
but descending ``revkey`` (both take the join's sort branch). The write
path has its own section: per seed and partition count, a seeded stream
of inserts, updates, deletes and merges over ``lineitem`` (plus two
secondary projections built here, one sorted on the tie-heavy
``quantity`` and one with no sort key) records ``disk.total_fsyncs``
after every write and the SHA-256 of every file in each merged projection
directory, and after every write five reads over the pending changes —
among them an ORDER BY / LIMIT read and a count(distinct), which must
raise — each under two strategies with its answer digest (or error),
``QueryStats`` counters, ``simulated_ms`` and ``describe`` text (or
error). Before each epoch's merge a second handle opens the same root,
replaying the WAL: its pending snapshot (per column, the dtype and a
digest of the bytes) and its ``scrub()`` issues are a ``replay`` record.
WAL bytes are not captured: their format is not part of the contract.
Not a pytest module (nothing here is collected): it compares two trees,
which one test process cannot hold.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

from repro import Database, Predicate, SelectQuery, load_tpch
from repro.advisor import advise
from repro.errors import ReproError, UnsupportedOperationError
from repro.metrics import MetricsRegistry
from repro.qlog import QueryLog, read_query_log
from repro.planner.logical import AggSpec, JoinQuery
from repro.dtypes import INT32, INT64, ColumnSchema
from repro.planner.strategies import RightTableStrategy, Strategy
from repro.tpch import SHIPDATE_MAX, SHIPDATE_MIN

SEEDS = (1, 2)
PARTITIONS = (1, 4)
SCALE = 0.05
ENCODINGS = ("uncompressed", "rle", "bitvector")
SELECTIVITIES = (0.02, 0.1, 0.3, 0.5, 0.7, 0.9)
CONFIGS = {
    "default": {},
    "no-decoded-cache": {"decoded_cache_bytes": 0},
    "no-compressed": {"compressed_execution": False},
    "no-multicolumns": {"use_multicolumns": False, "use_indexes": False},
}


SPARSE_STRIDE = 97


def _add_sparse_customer(catalog, n_customer: int) -> None:
    """A small right table whose keys span far more values than it has rows.

    ``widekey`` scales the key by 10**12, so grouping on it together with
    ``custkey`` overflows an int64 mixed-radix key; ``revkey`` numbers the
    rows ``m..1``, a dense domain out of order (not a sorted dense primary
    key, so the join cannot address it directly).
    """
    keys = np.arange(SPARSE_STRIDE, n_customer + 1, SPARSE_STRIDE, dtype=np.int64)
    catalog.create_projection(
        "sparse_customer",
        {
            "custkey": keys,
            "nationcode": (keys % 25).astype(np.int32),
            "widekey": keys * 10**12,
            "revkey": np.arange(len(keys), 0, -1, dtype=np.int64),
        },
        schemas={
            "custkey": ColumnSchema("custkey", INT64),
            "nationcode": ColumnSchema("nationcode", INT32),
            "widekey": ColumnSchema("widekey", INT64),
            "revkey": ColumnSchema("revkey", INT64),
        },
        sort_keys=["custkey"],
        encodings={
            "custkey": ["uncompressed"],
            "nationcode": ["uncompressed"],
            "widekey": ["uncompressed"],
            "revkey": ["uncompressed"],
        },
        presorted=True,
    )


def _shipdate(selectivity: float) -> int:
    """Shipdates are uniform, so this constant selects ~*selectivity*."""
    return int(SHIPDATE_MIN + selectivity * (SHIPDATE_MAX + 1 - SHIPDATE_MIN))


def _queries(db: Database) -> list[tuple[str, object, list[str]]]:
    """``(label, query, strategy names)`` for everything the capture runs."""
    select_strategies = [s.value for s in Strategy] + ["auto"]
    out: list[tuple[str, object, list[str]]] = []
    for enc in ENCODINGS:
        for sel in SELECTIVITIES:
            preds = (
                Predicate("shipdate", "<", _shipdate(sel)),
                Predicate("linenum", "<", 7),
            )
            out.append((
                f"select/{enc}/{sel}",
                SelectQuery(
                    projection="lineitem", select=("shipdate", "linenum"),
                    predicates=preds, encodings=(("linenum", enc),),
                ),
                select_strategies,
            ))
            if sel in (0.1, 0.5, 0.9):
                out.append((
                    f"agg/{enc}/{sel}",
                    SelectQuery(
                        projection="lineitem",
                        select=("shipdate", "sum(linenum)"),
                        predicates=preds, group_by="shipdate",
                        aggregates=(AggSpec("sum", "linenum"),),
                        encodings=(("linenum", enc),),
                    ),
                    select_strategies,
                ))
    half = _shipdate(0.5)
    out.append((
        "agg/returnflag",
        SelectQuery(
            projection="lineitem", select=("returnflag", "sum(quantity)"),
            predicates=(Predicate("shipdate", "<", half),),
            group_by="returnflag", aggregates=(AggSpec("sum", "quantity"),),
        ),
        select_strategies,
    ))
    out.append((
        "agg/compound",
        SelectQuery(
            projection="lineitem",
            select=("returnflag", "linenum", "sum(quantity)", "min(quantity)",
                    "max(shipdate)", "avg(quantity)"),
            predicates=(Predicate("shipdate", "<", half),),
            group_by=("returnflag", "linenum"),
            aggregates=(AggSpec("sum", "quantity"), AggSpec("min", "quantity"),
                        AggSpec("max", "shipdate"), AggSpec("avg", "quantity")),
        ),
        select_strategies,
    ))
    out.append((
        "agg/count-distinct",
        SelectQuery(
            projection="lineitem",
            select=("returnflag", "count(distinct linenum)", "count(linenum)"),
            predicates=(Predicate("shipdate", "<", half),),
            group_by="returnflag",
            aggregates=(AggSpec("count_distinct", "linenum"),
                        AggSpec("count", "linenum")),
        ),
        select_strategies,
    ))
    # Wide domains: custkey x shipdate spans far more than 4n + 1024 values.
    out.append((
        "agg/wide-compound",
        SelectQuery(
            projection="orders", select=("custkey", "shipdate", "count(shipdate)"),
            group_by=("custkey", "shipdate"),
            aggregates=(AggSpec("count", "shipdate"),),
        ),
        select_strategies,
    ))
    out.append((
        "agg/wide-count-distinct",
        SelectQuery(
            projection="orders",
            select=("custkey", "count(distinct shipdate)"),
            group_by="custkey",
            aggregates=(AggSpec("count_distinct", "shipdate"),),
        ),
        select_strategies,
    ))
    out.append((
        "agg/int64-overflow",
        SelectQuery(
            projection="sparse_customer",
            select=("widekey", "custkey", "count(nationcode)"),
            group_by=("widekey", "custkey"),
            aggregates=(AggSpec("count", "nationcode"),),
        ),
        select_strategies,
    ))
    out.append((
        "select/no-predicate",
        SelectQuery(projection="lineitem", select=("linenum", "quantity")),
        select_strategies,
    ))
    out.append((
        "select/all-columns",
        SelectQuery(
            projection="lineitem",
            select=("quantity", "returnflag", "shipdate", "linenum"),
            predicates=(
                Predicate("shipdate", "<", _shipdate(0.05)),
                Predicate("quantity", ">", 10),
            ),
        ),
        select_strategies,
    ))
    out.append((
        "select/disjunction",
        SelectQuery(
            projection="lineitem", select=("shipdate", "linenum"),
            disjuncts=(
                (Predicate("shipdate", "<", _shipdate(0.1)),),
                (Predicate("linenum", "=", 3), Predicate("quantity", "<", 5)),
            ),
        ),
        ["lm-parallel"],
    ))
    n_customer = db.projection("customer").n_rows
    for sel in (0.05, 0.5, 0.95):
        for left in ("late", "early"):
            out.append((
                f"join/{left}/{sel}",
                JoinQuery(
                    left="orders", right="customer",
                    left_key="custkey", right_key="custkey",
                    left_select=("shipdate",), right_select=("nationcode",),
                    left_predicates=(
                        Predicate("custkey", "<", max(int(sel * n_customer) + 1, 1)),
                    ),
                    left_strategy=left,
                ),
                [s.value for s in RightTableStrategy],
            ))
    for (label, right_key), left in itertools.product(
        (("sparse", "custkey"), ("descending", "revkey")), ("late", "early")
    ):
        out.append((
            f"join/{label}/{left}",
            JoinQuery(
                left="orders", right="sparse_customer",
                left_key="custkey", right_key=right_key,
                left_select=("shipdate",), right_select=("nationcode",),
                left_predicates=(
                    Predicate("custkey", "<", int(0.8 * n_customer)),
                ),
                left_strategy=left,
            ),
            [s.value for s in RightTableStrategy],
        ))
    out.append((
        "join/aggregated",
        JoinQuery(
            left="orders", right="customer",
            left_key="custkey", right_key="custkey",
            left_select=("shipdate",), right_select=("nationcode",),
            group_by="nationcode", aggregates=(AggSpec("count", "shipdate"),),
        ),
        [s.value for s in RightTableStrategy],
    ))
    return out


def _sha256_json(value) -> str:
    # Dates go out as ISO strings, as the server sends decoded replies.
    text = json.dumps(value, default=lambda v: v.isoformat())
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _reply_digests(result) -> dict:
    """What a served reply would carry: raw rows and decoded rows as JSON."""
    return {
        "rows_json_sha256": _sha256_json(result.rows()),
        "decoded_json_sha256": _sha256_json(result.decoded_rows()),
    }


def _explain_record(db: Database, query) -> dict:
    """The optimizer's choice and every strategy's predicted steps."""
    try:
        report = db.explain(query)
    except UnsupportedOperationError as exc:
        return {"unsupported": str(exc)}
    return {
        "chosen": report["chosen"],
        "steps": {
            strategy.value: [
                _step_record(prediction, step) for step in prediction.steps
            ]
            for strategy, prediction in report["details"].items()
        },
        "partitions": report.get("partitions"),
    }


def _step_record(prediction, step) -> list:
    """``[name, cpu_us, io_us]`` of one predicted step, priced as a
    one-step copy of its prediction through ``cpu_ms`` / ``io_ms``."""
    one = dataclasses.replace(prediction, steps=[step])
    return [step[0], one.cpu_ms * 1000.0, one.io_ms * 1000.0]


def _describe_record(db: Database, query, strategy: str) -> dict:
    """``Database.describe`` text, or the error a rejected plan raises
    (any error: a tree without join rendering fails on joins)."""
    try:
        return {"text": db.describe(query, strategy)}
    except UnsupportedOperationError as exc:
        return {"unsupported": str(exc)}
    except Exception as exc:  # noqa: BLE001 - recorded, not raised
        return {"error": f"{type(exc).__name__}: {exc}"}


def _join_views(db: Database, query: JoinQuery, strategies, prefix) -> dict:
    """A join cell's views: each strategy's traced span list (pre-order
    ``(name, column)`` below the root) and describe text, and the
    ``auto`` pick."""
    out = {}
    for strategy in strategies:
        result = db.query(query, strategy=strategy, trace=True)
        out[f"{prefix}/{strategy}/spans"] = {"spans": [
            [span.name, span.detail.get("column")]
            for span in list(result.spans.walk())[1:]
        ]}
        out[f"{prefix}/{strategy}/describe"] = _describe_record(
            db, query, strategy
        )
    out[f"{prefix}/pick"] = {"auto": db.query(query).strategy}
    return out


def _without_wall(value):
    """*value* with every ``wall_ms`` key dropped, at any depth."""
    if isinstance(value, dict):
        return {k: _without_wall(v) for k, v in value.items() if k != "wall_ms"}
    if isinstance(value, list):
        return [_without_wall(v) for v in value]
    return value


def _analyze_record(db: Database, query, strategy: str) -> dict:
    """``explain(analyze=True)`` without its wall-clock fields."""
    try:
        report = db.explain(query, analyze=True, strategy=strategy)
    except UnsupportedOperationError as exc:
        return {"unsupported": str(exc)}
    out = {
        k: v for k, v in report.items()
        if k not in ("wall_ms", "total_ms", "root", "text", "json")
    }
    out["json"] = _without_wall(report["json"])
    return out


def _qlog_record(record: dict) -> dict:
    return {
        k: v for k, v in record.items() if k not in ("ts", "seq", "wall_ms")
    }


def _advise_record(plan) -> dict:
    """An advisor plan's actions and predictions; floats as ``repr`` so
    equal records mean bit-identical advice."""
    return {
        "baseline_ms": repr(plan.baseline_ms),
        "predicted_ms": repr(plan.predicted_ms),
        "actions": [
            {
                "kind": a.kind,
                "name": a.name,
                "sort_keys": list(a.sort_keys),
                "columns": list(a.columns),
                "encodings": {c: list(e) for c, e in a.encodings.items()},
                "predicted_delta_ms": repr(a.predicted_delta_ms),
                "templates": {
                    fp: repr(d) for fp, d in sorted(a.templates.items())
                },
            }
            for a in plan.actions
        ],
    }


def capture() -> dict:
    records: dict[str, dict] = {}
    for seed in SEEDS:
        for partitions in PARTITIONS:
            with tempfile.TemporaryDirectory() as root:
                loader = Database(root, query_log=False, metrics=MetricsRegistry())
                load_tpch(loader.catalog, scale=SCALE, seed=seed,
                          partitions=partitions)
                _add_sparse_customer(
                    loader.catalog, loader.projection("customer").n_rows
                )
                loader.close()
                view = Database(root, query_log=False,
                                metrics=MetricsRegistry())
                for config_name, config in CONFIGS.items():
                    log_dir = Path(root) / f"_qlog_{config_name}"
                    registry = MetricsRegistry()
                    db = Database(root, query_log=QueryLog(log_dir),
                                  metrics=registry, **config)
                    logged: list[str] = []  # one key per query-log record
                    for label, query, strategies in _queries(db):
                        for strategy in strategies:
                            key = (f"seed{seed}/p{partitions}/{config_name}/"
                                   f"{label}/{strategy}")
                            logged.append(key)
                            try:
                                result = db.query(query, strategy=strategy)
                            except UnsupportedOperationError as exc:
                                records[key] = {"unsupported": str(exc)}
                                continue
                            block = np.ascontiguousarray(result.tuples.data)
                            records[key] = {
                                "columns": list(result.tuples.columns),
                                "shape": list(block.shape),
                                "dtype": str(block.dtype),
                                "sha256": hashlib.sha256(
                                    block.tobytes()
                                ).hexdigest(),
                                "stats": result.stats.as_dict(),
                                "simulated_ms": result.simulated_ms,
                                "strategy": result.strategy,
                            }
                            if (config_name == "default" and partitions == 1
                                    and strategy == strategies[-1]):
                                records[key].update(_reply_digests(result))
                        if config_name != "default":
                            continue
                        key = f"seed{seed}/p{partitions}/{label}/explain"
                        records[key] = _explain_record(db, query)
                        if isinstance(query, SelectQuery):
                            for strategy in strategies:
                                key = (f"seed{seed}/p{partitions}/{label}/"
                                       f"{strategy}/describe")
                                records[key] = _describe_record(
                                    db, query, strategy
                                )
                        else:
                            records.update(_join_views(
                                view, query, strategies,
                                f"seed{seed}/p{partitions}/{label}",
                            ))
                        key = f"seed{seed}/p{partitions}/{label}/analyze"
                        logged.append(key)
                        records[key] = _analyze_record(
                            db, query, strategies[-1]
                        )
                    records[
                        f"seed{seed}/p{partitions}/{config_name}/advise"
                    ] = _advise_record(advise(db))
                    db.close()
                    log = read_query_log(log_dir)
                    if len(log) != len(logged):
                        raise RuntimeError(
                            f"{len(log)} query-log records for "
                            f"{len(logged)} executions"
                        )
                    for key, record in zip(logged, log):
                        records[f"{key}/qlog"] = _qlog_record(record)
                    records[
                        f"seed{seed}/p{partitions}/{config_name}/qlog_bytes"
                    ] = {"bytes": _log_bytes(log_dir)}
                    counters = registry.snapshot()["counters"]
                    counters.pop("queries_slow_total", None)
                    records[
                        f"seed{seed}/p{partitions}/{config_name}/registry"
                    ] = counters
                view.close()
    return records


_WALL_CLOCK = re.compile(rb'"(ts|wall_ms|queue_wait_ms)":[-+.0-9eE]+')


def _log_bytes(log_dir: Path) -> int:
    """The query-log directory's bytes, each wall-clock field's number
    counted as ``0``: its printed length varies run to run."""
    return sum(
        len(_WALL_CLOCK.sub(rb'"\1":0', f.read_bytes()))
        for f in log_dir.iterdir()
    )


WRITE_EPOCHS = 3
WRITE_BATCH_ROWS = 64


def _add_write_projections(db: Database) -> None:
    """Secondary lineitem projections for the write section: one sorted
    on ``quantity`` (50 values, so pending rows tie with stored ones), one
    with no sort key."""
    base = db.projection("lineitem")
    data = {c: base.read_column_values(c) for c in base.column_names}
    schemas = {c: base.schema(c) for c in base.column_names}
    for name, sort_keys in (("lineitem_q", ["quantity", "linenum"]),
                            ("lineitem_heap", [])):
        db.catalog.create_projection(
            name, dict(data), schemas=dict(schemas), sort_keys=sort_keys,
            encodings={"returnflag": ["uncompressed"], "shipdate": ["rle"],
                       "linenum": ["uncompressed"],
                       "quantity": ["rle", "uncompressed"]},
            anchor="lineitem",
        )


def _tree_digests(directory: Path) -> dict:
    return {
        str(path.relative_to(directory)):
            hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.rglob("*")) if path.is_file()
    }


def _answer_digest(result) -> str:
    rows = np.ascontiguousarray(result.tuples.data)
    if len(rows):
        rows = rows[np.lexsort(rows.T[::-1])]
    return hashlib.sha256(rows.tobytes()).hexdigest()


def _pending_reads(rng) -> list[SelectQuery]:
    lo = int(rng.integers(SHIPDATE_MIN, SHIPDATE_MAX - 200))
    window = (Predicate("shipdate", ">=", lo),
              Predicate("shipdate", "<", lo + 150))
    return [
        SelectQuery("lineitem", ("shipdate", "linenum", "quantity"), window),
        SelectQuery("lineitem", ("linenum", "sum(quantity)", "count(quantity)"),
                    window, group_by="linenum",
                    aggregates=(AggSpec("sum", "quantity"),
                                AggSpec("count", "quantity"))),
        SelectQuery("lineitem", ("returnflag", "sum(quantity)"),
                    (Predicate("quantity", "<", 10),), group_by="returnflag",
                    aggregates=(AggSpec("sum", "quantity"),)),
        SelectQuery("lineitem", ("shipdate", "linenum", "quantity"), window,
                    order_by=(("quantity", True), ("shipdate", False)),
                    limit=7),
        SelectQuery("lineitem", ("returnflag", "count(distinct linenum)"),
                    window, group_by="returnflag",
                    aggregates=(AggSpec("count_distinct", "linenum"),)),
    ]


def _error(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _pending_read(db: Database, query: SelectQuery, strategy: str) -> dict:
    """One read over pending writes: its answer digest, counters and
    ``simulated_ms`` (or its error), and its ``describe`` text (or error)."""
    try:
        result = db.query(query, strategy=strategy)
        out = {"answer": _answer_digest(result),
               "stats": result.stats.as_dict(),
               "simulated_ms": result.simulated_ms}
    except ReproError as exc:
        out = {"error": _error(exc)}
    try:
        out["describe"] = db.describe(query, strategy)
    except ReproError as exc:
        out["describe"] = _error(exc)
    return out


def _replay_record(root: str) -> dict:
    """What a second handle on *root* rebuilds from the WAL: lineitem's
    pending snapshot, per column its dtype, length and SHA-256, and that
    handle's scrub issues (paths relative to *root*)."""
    replayed = Database(root, query_log=False, metrics=MetricsRegistry())
    try:
        proj = replayed.projection("lineitem")
        pending = replayed.pending_writes(
            proj, SelectQuery("lineitem", tuple(proj.column_names))
        )
        out = {
            side: {
                col: [str(values.dtype), len(values),
                      hashlib.sha256(values.tobytes()).hexdigest()]
                for col, values in getattr(pending, side).items()
            }
            for side in ("inserts", "deletes")
        } if pending else {}
        out["scrub"] = [
            dict(issue.to_json(),
                 file=str(Path(issue.file).relative_to(root)))
            for issue in replayed.scrub().issues
        ]
    finally:
        replayed.close()
    return out


def _write_op(db: Database, i: int, rng, flags) -> tuple[str, int]:
    """Op *i* of an epoch: an update at 4, a delete at 8, else an insert
    of a 64-row batch drawn uniformly over lineitem's domains."""
    line = Predicate("linenum", "=", int(rng.integers(1, 8)))
    if i == 4:
        return "update", db.update(
            "lineitem",
            (line, Predicate("quantity", "<", int(rng.integers(2, 6)))),
            {"quantity": int(rng.integers(1, 51))},
        )
    if i == 8:
        return "delete", db.delete(
            "lineitem",
            (line, Predicate("quantity", "=", int(rng.integers(1, 51)))),
        )
    n = WRITE_BATCH_ROWS
    flag = rng.integers(0, len(flags), n)
    shipdate = rng.integers(SHIPDATE_MIN, SHIPDATE_MAX + 1, n)
    linenum = rng.integers(1, 8, n)
    quantity = rng.integers(1, 51, n)
    return "insert", db.insert("lineitem", [
        {"returnflag": flags[int(flag[r])], "shipdate": int(shipdate[r]),
         "linenum": int(linenum[r]), "quantity": int(quantity[r])}
        for r in range(n)
    ])


def capture_write_path() -> dict:
    """The write section: answers over pending changes, fsync counts and
    the merged projections' file digests, per seed and partition count."""
    records: dict[str, dict] = {}
    for seed in SEEDS:
        for partitions in PARTITIONS:
            with tempfile.TemporaryDirectory() as root:
                db = Database(root, query_log=False, metrics=MetricsRegistry())
                load_tpch(db.catalog, scale=SCALE, seed=seed,
                          partitions=partitions)
                _add_write_projections(db)
                flags = db.projection("lineitem").schema("returnflag").dictionary
                rng = np.random.default_rng([seed, partitions])
                for epoch in range(WRITE_EPOCHS):
                    prefix = f"write/seed{seed}/p{partitions}/epoch{epoch}"
                    for i in range(10):
                        kind, rows = _write_op(db, i, rng, flags)
                        records[f"{prefix}/op{i}"] = {
                            "kind": kind,
                            "rows": rows,
                            "pending": db.pending("lineitem"),
                            "total_fsyncs": db.disk.total_fsyncs,
                        }
                        for j, query in enumerate(_pending_reads(rng)):
                            for strategy in ("em-parallel", "lm-parallel"):
                                key = f"{prefix}/op{i}/read{j}/{strategy}"
                                records[key] = _pending_read(
                                    db, query, strategy
                                )
                    records[f"{prefix}/replay"] = _replay_record(root)
                    moved = db.merge("lineitem")
                    records[f"{prefix}/merge"] = {
                        "moved": moved,
                        "total_fsyncs": db.disk.total_fsyncs,
                        "files": {
                            proj.name: _tree_digests(proj.directory)
                            for proj in db.catalog.candidates("lineitem")
                        },
                    }
                db.close()
    return records


#: Record kinds ``--compare`` counts separately, by key suffix; keys under
#: ``write/`` are the write section (``pending`` for its reads, ``replay``
#: for a second handle's WAL replay) and every other key is a result
#: block. ``qlog_bytes`` (each configuration's query-log size) is a
#: measurement, not a record: ``--compare`` prints the two totals beside
#: the ``qlog`` line and never counts it as a difference.
KINDS = ("result", "explain", "describe", "analyze", "qlog", "registry",
         "spans", "pick", "advise", "write", "pending", "replay",
         "qlog_bytes")


def record_kind(key: str) -> str:
    if key.startswith("write/"):
        if key.endswith("/replay"):
            return "replay"
        return "pending" if "/read" in key else "write"
    last = key.rsplit("/", 1)[-1]
    return last if last in KINDS else "result"


def _read_fields(record: dict) -> dict:
    """A pending-read record flattened to one value per field."""
    fields = {k: v for k, v in record.items() if k != "stats"}
    for name, value in record.get("stats", {}).items():
        fields[f"stats.{name}"] = value
    return fields


def compare(path_a: str, path_b: str) -> int:
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    sizes = [
        sum(r["bytes"] for k, r in side.items()
            if record_kind(k) == "qlog_bytes")
        for side in (a, b)
    ]
    bad = sorted(
        k for k in a.keys() | b.keys()
        if a.get(k) != b.get(k) and record_kind(k) != "qlog_bytes"
    )
    for key in bad[:20]:
        print("DIFF", key)
        ra, rb = a.get(key) or {}, b.get(key) or {}
        for field in sorted(ra.keys() | rb.keys()):
            if ra.get(field) != rb.get(field):
                print("   ", field, ra.get(field), "!=", rb.get(field))
    for kind in KINDS[:-1]:
        total = sum(record_kind(k) == kind for k in a.keys() | b.keys())
        differ = sum(record_kind(k) == kind for k in bad)
        line = f"{kind:>9}: {differ} of {total} differ"
        if kind == "qlog":
            line += f"; log bytes {sizes[0]} vs {sizes[1]}"
        print(line)
    reads = [k for k in bad if record_kind(k) == "pending"]
    by_field: dict[str, int] = {}
    for key in reads:
        fa, fb = _read_fields(a.get(key) or {}), _read_fields(b.get(key) or {})
        for field in fa.keys() | fb.keys():
            if fa.get(field) != fb.get(field):
                by_field[field] = by_field.get(field, 0) + 1
    for field in sorted(by_field):
        print(f"  pending reads, {field}: {by_field[field]} differ")
    print(f"{len(a)} vs {len(b)} records, {len(bad)} differ")
    return 1 if bad else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--compare"]:
        sys.exit(compare(sys.argv[2], sys.argv[3]))
    records = capture_write_path()
    records.update(capture())
    Path(sys.argv[1]).write_text(json.dumps(records, sort_keys=True))
