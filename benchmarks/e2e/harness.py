"""One benchmark run: set up, warm up, measure cycles, check answers, report.

A *cycle* is one pass over a workload's fixed, seeded schedule of operations;
cycles repeat until the time budget is spent (and, outside smoke mode, until
the tail percentile has enough samples). With ``trace`` on, cycles alternate
untraced / traced so one process yields the time-valued per-layer numbers
(from the traced cycles) and what tracing costs (the ``ops_per_s`` gap).
"""

from __future__ import annotations

import os
import pickle
import shutil
import subprocess
import sys
import time
import traceback
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import stats
from .metrics import END_TO_END_NAMES, PER_LAYER_NAMES, UNITS
from .spans import SpanRecorder

ROOT = Path(__file__).resolve().parents[2]
WORK_DIR = Path(__file__).resolve().parent / "_work"
MIB = 1024 * 1024

#: A trace file holds the spans of this many operations (every span stays
#: in memory and feeds the per-layer numbers; the file is for reading).
TRACE_FILE_OPS = 64

#: ``op_p95_ms`` needs ten samples beyond it.
MIN_SAMPLES = stats.samples_needed(0.95)

#: Complete set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 4


def tree_bytes(path: Path) -> int:
    """Bytes of every regular file under *path*."""
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def peak_rss_mb(pid: int | str = "self") -> float:
    """``VmHWM`` of a live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def answer_hash(columns, data) -> str:
    """Order-sensitive fingerprint of a result: column names + int64 rows."""
    block = np.ascontiguousarray(data, dtype=np.int64)
    return f"{'|'.join(columns)};{block.shape};{zlib.crc32(block):08x}"


@dataclass
class Op:
    """One executed operation as the caller saw it."""

    kind: str                  # read | insert | update | delete | merge
    latency_ms: float
    cpu_s: float
    ok: bool
    wall_ms: float = 0.0       # engine-reported execution time (reads)
    sim_ms: float = 0.0        # the paper's model time (reads)
    counters: dict | None = None   # QueryStats counters (traced reads)
    tag: str = ""              # workload-specific state label
    extra: dict = field(default_factory=dict)


@dataclass
class Cycle:
    traced: bool
    ops: list
    busy_s: float              # wall time the loop spent inside operations
    cpu_s: float               # CPU seconds of the engine process

    @classmethod
    def serial(cls, traced: bool, ops: list) -> "Cycle":
        """A single-threaded cycle: busy time and CPU are the ops' sums."""
        return cls(traced, ops, sum(op.latency_ms for op in ops) / 1000.0,
                   sum(op.cpu_s for op in ops))

    @property
    def ops_per_s(self) -> float:
        return sum(op.ok for op in self.ops) / self.busy_s

    @property
    def cpu_s_per_op(self) -> float:
        return self.cpu_s / len(self.ops)


def timed_cycles(cycles: list) -> list:
    """The cycles time-valued per-layer numbers come from: the traced ones
    of a ``--trace 1`` run, else all of them."""
    return [c for c in cycles if c.traced] or cycles


def cache_and_qlog_values(snapshot: dict) -> dict:
    """Per-layer values read off a ``MetricsRegistry`` snapshot or export."""
    qlog = snapshot["query_log"]
    return {
        "qlog.dropped_share": qlog["dropped"] / max(qlog["seen"], 1),
        "buffer.resident_mb": (
            snapshot["buffer_pool"]["resident_bytes"]
            + snapshot["decoded_cache"]["resident_bytes"]
        ) / MIB,
    }


def timed_call(fn, *args, **kwargs):
    """Call *fn*; returns (result or None, error or None, t0, t1, cpu_s).

    This is the operation boundary: an engine error must count as a failed
    operation, not end the benchmark, so every ``Exception`` is caught here
    and reported on stderr.
    """
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    try:
        result, error = fn(*args, **kwargs), None
    except Exception as exc:  # noqa: BLE001 - counted in failed
        result, error = None, exc
    t1 = time.perf_counter()
    cpu_s = time.process_time() - cpu0
    if error is not None:
        traceback.print_exception(error, file=sys.stderr)
    return result, error, t0, t1, cpu_s


class Helper:
    """The set-up helper process (``helper.py``), as a context manager that
    has waited for the process to end by the time it is left."""

    def __enter__(self) -> "Helper":
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(ROOT), str(ROOT / "src")]
        ))
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "benchmarks.e2e.helper"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env,
        )
        return self

    def call(self, fn, *args):
        """``fn(*args)`` over there; *fn* is a module-level function,
        because the call is pickled."""
        pickle.dump((fn, args), self.proc.stdin)
        self.proc.stdin.flush()
        ok, value = pickle.load(self.proc.stdout)
        if not ok:
            raise RuntimeError(f"in the helper process:\n{value}")
        return value

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.proc.kill()        # do not wait for the call in flight
        for pipe in (self.proc.stdin, self.proc.stdout):
            try:
                pipe.close()        # end of stdin is the helper's cue to exit
            except OSError:
                pass                # it is already gone
        self.proc.wait()


class Workload:
    """What the run loop needs from a workload (see ``workloads.py``)."""

    name = ""
    scale = 0.25
    smoke_scale = 0.01
    #: A run measures at least this many cycles, however slow the host.
    min_cycles = 1

    def __init__(self, seed: int, smoke: bool, recorder: SpanRecorder,
                 helper: Helper):
        self.seed = seed
        self.smoke = smoke
        self.recorder = recorder
        #: One helper process generates and loads the data and works out the
        #: reference answers, so what set-up allocates never reaches the
        #: ``peak_rss_mb`` of this process, which only opens and queries.
        self.helper = helper
        self.values: dict[str, float] = {}   # per-layer values it measured
        #: peak_rss_mb and stored_bytes_per_user_byte, which only it can see.
        self.end_to_end: dict[str, float] = {}
        self.next_op = 0

    @property
    def effective_scale(self) -> float:
        return self.smoke_scale if self.smoke else self.scale

    def op_id(self) -> int:
        self.next_op += 1
        return self.next_op

    # Called in this order; load + open + one warm-up cycle are setup_s.

    def in_helper(self, fn, *args):
        return self.helper.call(fn, *args)

    def load(self, root: Path) -> None:
        """Generate the data and store it under *root* (in the helper)."""
        raise NotImplementedError

    def reference(self) -> None:
        """Work out the correct answers (in the helper; not part of set-up
        time)."""
        raise NotImplementedError

    def probe(self) -> None:
        """Trace-only timings taken outside the measured loop."""

    def open(self) -> None:
        """Open what the measured loop talks to."""
        raise NotImplementedError

    def cycle(self, traced: bool) -> Cycle:
        raise NotImplementedError

    def snapshot(self) -> None:
        """Called once, after the first measured cycle."""

    def close(self) -> None:
        raise NotImplementedError

    def finish(self, cycles: list) -> list:
        """Final checks (returned as ops), end-of-run values, then close."""
        raise NotImplementedError


def _set_up(wl: Workload, work: Path, repeats: int, trace: bool) -> float:
    """Set the workload up *repeats* times; returns the median set-up time.

    Every set-up is complete (generate, load, open, warm-up cycle); all but
    the last are discarded. Reference answers depend only on the seed, so
    they are computed once, between load and open of the first set-up, and
    are not part of set-up time. The first set-up also pays for starting
    the helper process, which the median ignores.
    """
    times = []
    for attempt in range(repeats):
        root = work / f"db{attempt}"
        t0 = time.perf_counter()
        wl.load(root)
        elapsed = time.perf_counter() - t0
        if attempt == 0:
            t0 = time.perf_counter()
            wl.reference()
            wl.values["driver.reference_s"] = time.perf_counter() - t0
            if trace:
                wl.probe()
        t0 = time.perf_counter()
        wl.open()
        try:
            wl.cycle(traced=False)
        except BaseException:
            wl.close()
            raise
        elapsed += time.perf_counter() - t0
        times.append(elapsed)
        if attempt < repeats - 1:
            wl.close()
            shutil.rmtree(root)
    return stats.median(times)


def _measure(wl: Workload, seconds: float, trace: bool, smoke: bool) -> list:
    cycles: list[Cycle] = []
    deadline = time.perf_counter() + seconds
    # With tracing on, every other cycle is traced: twice as many.
    min_cycles = (1 if smoke else wl.min_cycles) * (2 if trace else 1)

    def enough() -> bool:
        if smoke or len(cycles) < min_cycles:
            return len(cycles) >= min_cycles
        samples = sum(len(c.ops) for c in cycles)
        return time.perf_counter() >= deadline and samples >= MIN_SAMPLES

    while not enough():
        traced = trace and len(cycles) % 2 == 1
        cycles.append(wl.cycle(traced=traced))
        if len(cycles) == 1:
            wl.snapshot()
    return cycles


def _end_to_end(wl: Workload, cycles: list, setup_s: float) -> dict:
    latencies = [op.latency_ms for c in cycles for op in c.ops]
    return {
        "setup_s": setup_s,
        "ops_per_s": stats.median([c.ops_per_s for c in cycles]),
        "op_p50_ms": stats.median(latencies),
        "op_p95_ms": stats.percentile(latencies, 0.95),
        **wl.end_to_end,
        "cpu_s_per_op": stats.median([c.cpu_s_per_op for c in cycles]),
    }


#: Engine span names charged to each ``operators.*_self_ms_per_op`` metric.
OPERATOR_GROUPS = {
    "operators.ds_self_ms_per_op":
        ("DS1", "DS2", "DS3", "DS3+filter", "DS4", "SPC"),
    "operators.and_merge_self_ms_per_op": ("AND", "MERGE"),
    "operators.output_self_ms_per_op": ("OUTPUT",),
    "operators.combine_self_ms_per_op": ("PRUNE", "PARTITION", "COMBINE"),
    "operators.agg_self_ms_per_op": ("AGG",),
    "operators.join_self_ms_per_op": ("JOIN",),
}


def _per_layer(wl: Workload, cycles: list, failed_share: float) -> dict:
    """Every per-layer metric; a workload's own ``values`` win over defaults."""
    traced = [c for c in cycles if c.traced]
    untraced = [c for c in cycles if not c.traced]
    t_ops = [op for c in traced for op in c.ops]
    reads = [op for op in t_ops if op.kind == "read"]
    latencies = [op.latency_ms for op in t_ops]
    traced_rates = [c.ops_per_s for c in traced]
    # "Per op" below means per read the engine traced: the ops that carry
    # counters and a span tree (writes have neither; serve_sql_zipf samples).
    spanned = sum(op.counters is not None for op in t_ops)
    # Counts come from the first traced cycle only: it is the same operations
    # on the same state in every run of a seed, however long the run lasts.
    first = [op for op in traced[0].ops if op.counters is not None]

    def total(key):
        return sum(op.counters.get(key, 0) for op in first)

    def per_op(key):
        return total(key) / len(first)

    def share(part, rest):
        return total(part) / max(total(part) + total(rest), 1)

    out = dict.fromkeys(PER_LAYER_NAMES, 0.0)
    self_ms = wl.recorder.self_ms_by_name()
    for metric, names in OPERATOR_GROUPS.items():
        out[metric] = sum(self_ms.get(n, 0.0) for n in names) / spanned
    out.update({
        "planner.partitions_pruned_share":
            total("partitions_pruned") / max(total("partitions_total"), 1),
        "model.sim_ms_per_op": sum(op.sim_ms for op in first) / len(first),
        "operators.values_scanned_per_op": per_op("values_scanned"),
        "operators.tuples_constructed_per_op": per_op("tuples_constructed"),
        "operators.function_calls_per_op": per_op("function_calls"),
        "operators.positions_intersected_per_op":
            per_op("positions_intersected"),
        # Of all block visits, those a compressed kernel answered encoded.
        "compressed.scan_share":
            total("compressed_scans") / max(total("block_iterations"), 1),
        "compressed.morphs_per_op": per_op("morphs"),
        "buffer.pool_hit_share": share("buffer_hits", "block_reads"),
        "buffer.decoded_hit_share": share("decode_hits", "decode_misses"),
        "buffer.block_reads_per_op": per_op("block_reads"),
        "buffer.disk_seeks_per_op": per_op("disk_seeks"),
        "buffer.sim_io_ms_per_op": per_op("simulated_io_us") / 1000.0,
        "engine.query_wall_ms_p50":
            stats.median([op.wall_ms for op in reads]),
        "engine.facade_overhead_ms_p50":
            stats.median([op.latency_ms - op.wall_ms for op in reads]),
        "driver.op_p99_ms": stats.supported_percentile(latencies, 0.99),
        "driver.op_max_ms": max(latencies),
        "driver.samples": float(len(latencies)),
        "driver.cycle_spread":
            (max(traced_rates) - min(traced_rates))
            / stats.median(traced_rates),
        "driver.trace_overhead_share": 1.0 - (
            stats.median(traced_rates)
            / stats.median([c.ops_per_s for c in untraced])
        ),
        "driver.failed_share": failed_share,
    })
    out.update(wl.values)
    return out


def run_workload(cls, seed: int, seconds: float, trace: bool,
                 smoke: bool = False, out: Path | None = None) -> dict:
    """Run one workload in this process; returns the contract's result."""
    recorder = SpanRecorder()
    work = WORK_DIR / f"{cls.name}-{seed}-{time.time_ns()}"
    work.mkdir(parents=True)
    try:
        with Helper() as helper:
            wl = cls(seed, smoke, recorder, helper)
            setup_s = _set_up(wl, work, 1 if smoke else SETUP_REPEATS, trace)
        try:
            cycles = _measure(wl, seconds, trace, smoke)
        except BaseException:
            wl.close()
            raise
        checks = wl.finish(cycles)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass  # another run is using it
    ops = [op for c in cycles for op in c.ops] + checks
    failed = sum(not op.ok for op in ops)
    if trace:
        values = _per_layer(wl, cycles, failed / len(ops))
        expected = PER_LAYER_NAMES
    else:
        values = _end_to_end(wl, cycles, setup_s)
        expected = END_TO_END_NAMES
    if set(values) != set(expected):
        raise RuntimeError(
            f"metric names differ from the manifest: "
            f"{sorted(set(values) ^ set(expected))}"
        )
    if trace and out is not None:
        out.mkdir(parents=True, exist_ok=True)
        recorder.dump(
            out / f"trace-{wl.name}.json", max_ops=TRACE_FILE_OPS,
            workload=wl.name, seed=seed, smoke=smoke,
        )
    return {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": UNITS[name]}
            for name in expected
        },
    }
