"""Names, units and predicted interactions of every metric and workload.

This table is the source ``BENCHMARK.json`` is rendered from (``validate.py
--write``) and checked against; later issues cite these names. A per-layer
metric's ``moves`` / ``on`` say which end-to-end metric it should move and on
which workloads — on every workload not listed the prediction is *no change*.
"""

from __future__ import annotations

from dataclasses import dataclass

COMMAND = ["python3", "benchmarks/e2e/run.py"]
PATHS = ["benchmarks/e2e"]
RUN_SECONDS = 10


@dataclass(frozen=True)
class Workload:
    name: str
    why: str


WORKLOADS = (
    Workload(
        "scan_warm_select",
        "paper 4.1 selection, 4 strategies x 3 linenum encodings x 6 "
        "selectivities, caches hold everything: operators, positions, "
        "multicolumn, decoded-block cache",
    ),
    Workload(
        "scan_cold_starved",
        "same schedule and data with pool and decoded cache at 1/16 of the "
        "stored bytes, so blocks are re-read and re-decoded: storage decode "
        "and buffer",
    ),
    Workload(
        "join_agg_mix",
        "paper 4.2 aggregation, dictionary GROUP BY and 4.3 FK-PK join under "
        "3 right-table strategies, warm: aggregate, joins, compressed "
        "execution; little OUTPUT stitching",
    ),
    Workload(
        "serve_sql_zipf",
        "repro serve subprocess, 2 closed-loop connections, Zipf(1.1) over 32 "
        "SQL texts with strategy auto: sql, planner, serving, protocol, "
        "flight recorder; transport dominates",
    ),
    Workload(
        "htap_ingest_read",
        "fsync inserts, updates, deletes beside selective reads over pending "
        "deltas, foreground merge every 8 cycles, reopen check: engine, delta, "
        "storage write path",
    ),
)
WORKLOAD_NAMES = tuple(w.name for w in WORKLOADS)

SCANS = ("scan_warm_select", "scan_cold_starved")
JOIN = ("join_agg_mix",)
SERVE = ("serve_sql_zipf",)
HTAP = ("htap_ingest_read",)
LIBRARY = SCANS + JOIN + HTAP
READ_ONLY = SCANS + JOIN
ALL = WORKLOAD_NAMES


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float


END_TO_END = (
    # ``bound`` is what the driver applies, both to a later PR's regression
    # and to the spread of ten runs of one commit, and it refuses the whole
    # benchmark when a spread passes it. On this sandbox the host's speed
    # shifts by +-8% over minutes (one seed's ops_per_s read 160 and 208 half
    # an hour apart), so ten runs spread 4-13% on every time-valued metric.
    # ISSUE 12 asked for 0.10 there; a bound the spread reaches would fail at
    # random, so those metrics take the contract's ceiling and the A/A check
    # keeps ISSUE 12's 0.10 for the gap between medians (``AA_GAP_BOUND``).
    # See README.md, "A/A evidence and the bounds".
    EndToEnd("setup_s", "s", "lower", 0.25),
    EndToEnd("ops_per_s", "1/s", "higher", 0.25),
    EndToEnd("op_p50_ms", "ms", "lower", 0.25),
    EndToEnd("op_p95_ms", "ms", "lower", 0.25),
    EndToEnd("peak_rss_mb", "MiB", "lower", 0.10),
    EndToEnd("stored_bytes_per_user_byte", "ratio", "lower", 0.02),
    EndToEnd("cpu_s_per_op", "s", "lower", 0.25),
)

#: ISSUE 12's bound: two sets of runs of one commit must have medians no
#: further apart than this (or than the metric's own bound, if tighter).
AA_GAP_BOUND = 0.10


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    better: str
    moves: str
    on: tuple
    #: Repeats exactly between two runs of one seed on the library workloads
    #: (single client, no timers), so it is eligible for count-based claims.
    exact: bool = False


def _p(name, unit, better, moves, on, exact=False):
    return PerLayer(name, unit, better, moves, tuple(on), exact)


PER_LAYER = (
    _p("tpch.generate_s", "s", "lower", "setup_s", ALL),
    _p("storage.create_projection_s", "s", "lower", "setup_s", ALL),
    _p("storage.open_ms", "ms", "lower", "setup_s", ALL),
    _p("storage.stored_bytes", "bytes", "lower",
       "stored_bytes_per_user_byte", ALL, exact=True),
    _p("sql.parse_us_per_stmt", "us", "lower", "op_p50_ms", SERVE),
    _p("sql.bind_us_per_stmt", "us", "lower", "op_p50_ms", SERVE),
    _p("planner.choose_ms_per_query", "ms", "lower", "op_p50_ms", SERVE),
    _p("model.predict_ms_per_query", "ms", "lower", "op_p50_ms", SERVE),
    _p("planner.auto_regret_ratio", "ratio", "lower", "ops_per_s", SERVE),
    _p("planner.partitions_pruned_share", "ratio", "higher", "op_p50_ms",
       SCANS, exact=True),
    _p("model.sim_ms_per_op", "ms", "lower", "op_p50_ms", LIBRARY, exact=True),
    _p("operators.ds_self_ms_per_op", "ms", "lower", "op_p50_ms", SCANS),
    _p("operators.and_merge_self_ms_per_op", "ms", "lower", "op_p50_ms", SCANS),
    _p("operators.output_self_ms_per_op", "ms", "lower", "op_p95_ms", SCANS),
    _p("operators.combine_self_ms_per_op", "ms", "lower", "op_p50_ms", SCANS),
    _p("operators.agg_self_ms_per_op", "ms", "lower", "op_p50_ms", JOIN),
    _p("operators.join_self_ms_per_op", "ms", "lower", "op_p50_ms", JOIN),
    _p("operators.values_scanned_per_op", "count", "lower", "cpu_s_per_op",
       READ_ONLY, exact=True),
    _p("operators.tuples_constructed_per_op", "count", "lower",
       "cpu_s_per_op", READ_ONLY, exact=True),
    _p("operators.function_calls_per_op", "count", "lower", "cpu_s_per_op",
       READ_ONLY, exact=True),
    _p("operators.positions_intersected_per_op", "count", "lower",
       "cpu_s_per_op", READ_ONLY, exact=True),
    _p("compressed.scan_share", "ratio", "higher", "op_p50_ms",
       JOIN + ("scan_cold_starved",), exact=True),
    _p("compressed.morphs_per_op", "count", "lower", "op_p50_ms",
       JOIN + ("scan_cold_starved",), exact=True),
    _p("buffer.pool_hit_share", "ratio", "higher", "op_p50_ms",
       ("scan_cold_starved",), exact=True),
    _p("buffer.decoded_hit_share", "ratio", "higher", "op_p50_ms",
       ("scan_cold_starved",), exact=True),
    _p("buffer.block_reads_per_op", "count", "lower", "op_p50_ms",
       ("scan_cold_starved",), exact=True),
    _p("buffer.disk_seeks_per_op", "count", "lower", "op_p50_ms",
       ("scan_cold_starved",), exact=True),
    _p("buffer.sim_io_ms_per_op", "ms", "lower", "op_p50_ms",
       ("scan_cold_starved",), exact=True),
    _p("buffer.resident_mb", "MiB", "lower", "peak_rss_mb", SCANS),
    _p("engine.query_wall_ms_p50", "ms", "lower", "op_p50_ms", LIBRARY),
    _p("engine.facade_overhead_ms_p50", "ms", "lower", "op_p50_ms", LIBRARY),
    _p("engine.read_pending_ms_p50", "ms", "lower", "op_p95_ms", HTAP),
    _p("engine.read_deletes_ms_p50", "ms", "lower", "op_p95_ms", HTAP),
    _p("engine.merge_ms_p50", "ms", "lower", "ops_per_s", HTAP),
    _p("engine.merge_count", "count", "lower", "ops_per_s", HTAP),
    _p("engine.merge_stall_share", "ratio", "lower", "ops_per_s", HTAP),
    _p("delta.insert_ms_p50", "ms", "lower", "op_p50_ms", HTAP),
    _p("delta.update_ms_p50", "ms", "lower", "op_p50_ms", HTAP),
    _p("delta.delete_ms_p50", "ms", "lower", "op_p50_ms", HTAP),
    _p("delta.fsyncs_per_write_op", "count", "lower", "op_p50_ms", HTAP,
       exact=True),
    _p("delta.wal_bytes_per_user_byte", "ratio", "lower",
       "stored_bytes_per_user_byte", HTAP, exact=True),
    _p("delta.pending_rows_max", "count", "lower",
       "stored_bytes_per_user_byte", HTAP, exact=True),
    _p("qlog.dropped_share", "ratio", "lower", "stored_bytes_per_user_byte",
       ALL),
    _p("qlog.bytes_per_query", "bytes", "lower", "stored_bytes_per_user_byte",
       ALL),
    _p("serving.engine_ms_p50", "ms", "lower", "op_p50_ms", SERVE),
    _p("serving.queue_wait_ms_p50", "ms", "lower", "op_p50_ms", SERVE),
    _p("serving.transport_self_ms_p50", "ms", "lower", "op_p50_ms", SERVE),
    _p("serving.reply_bytes_per_op", "bytes", "lower", "op_p50_ms", SERVE),
    _p("serving.protocol_us_per_query", "us", "lower", "op_p50_ms", SERVE),
    _p("serving.rejected_share", "ratio", "lower", "ops_per_s", SERVE),
    _p("serving.queue_depth_max", "count", "lower", "op_p95_ms", SERVE),
    _p("serving.reconnects", "count", "lower", "ops_per_s", SERVE),
    _p("driver.op_p99_ms", "ms", "lower", "op_p95_ms", ALL),
    _p("driver.op_max_ms", "ms", "lower", "op_p95_ms", ALL),
    _p("driver.samples", "count", "higher", "op_p95_ms", ALL),
    _p("driver.cycle_spread", "ratio", "lower", "ops_per_s", ALL),
    _p("driver.reference_s", "s", "lower", "setup_s", ALL),
    _p("driver.trace_overhead_share", "ratio", "lower", "ops_per_s", ALL),
    # Demoted from the end-to-end list: it is 0 on correct code and the
    # contract refuses end-to-end metrics that can be 0. The result line's
    # ``failed`` / ``attempted`` carry the same fact to the driver.
    _p("driver.failed_share", "ratio", "lower", "ops_per_s", ALL),
)

END_TO_END_NAMES = tuple(m.name for m in END_TO_END)
PER_LAYER_NAMES = tuple(m.name for m in PER_LAYER)
UNITS = {m.name: m.unit for m in END_TO_END + PER_LAYER}
EXACT_NAMES = tuple(m.name for m in PER_LAYER if m.exact)


def manifest() -> dict:
    """The ``BENCHMARK.json`` document this table describes."""
    return {
        "command": list(COMMAND),
        "paths": list(PATHS),
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }
