"""Query execution statistics and the process-wide metrics registry.

Two layers of observability live here:

* :class:`QueryStats` — per-query counters every operator increments on a
  shared instance. The counters correspond one-to-one to the terms of the
  paper's analytical model (Table 1), which lets the model be replayed over
  *observed* behaviour: ``repro.model.cost.simulated_time_ms(stats,
  constants)`` converts a finished query's counters into the model's
  predicted milliseconds. Benchmarks report both wall-clock and this
  simulated time, because on a laptop-scale Python substrate the simulated
  time is what preserves the paper's I/O trade-offs.
* :class:`MetricsRegistry` — process-lifetime counters, latency histograms
  (per strategy and per encoding override) and a ring-buffer slow-query
  log. The engine reports every query into a registry; the buffer pool and
  decoded-block cache are attached as pull-based *collectors*, so one
  :meth:`MetricsRegistry.snapshot` is the single source of truth a
  benchmark or serving layer reads. The module-level :data:`REGISTRY` is
  the process-wide default; pass ``Database(..., metrics=...)`` to isolate.
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_left
from collections import OrderedDict, deque
from dataclasses import dataclass, field, fields


@dataclass
class QueryStats:
    """Counters accumulated during one query execution.

    Attributes mirror Table 1 of the paper:

    * ``block_reads`` / ``disk_seeks`` — physical I/O issued past the buffer
      pool (the model's ``|C| * READ`` and ``|C|/PF * SEEK`` terms).
    * ``buffer_hits`` — reads absorbed by the buffer pool (the model's ``F``).
    * ``block_iterations`` — getNext() calls on block iterators (``BIC``).
    * ``column_iterations`` — per-value (or per-run) column iterator steps
      (``TICCOL``).
    * ``tuple_iterations`` — per-tuple iterator steps (``TICTUP``).
    * ``function_calls`` — glue function calls (``FC``).
    * ``tuples_constructed`` — row-style tuples stitched together.
    * ``values_scanned`` — raw values a predicate was applied to.
    * ``positions_intersected`` — position-list elements consumed by AND.
    * ``tuples_output`` — tuples handed to the query consumer.
    * ``blocks_skipped`` — blocks pruned via min/max or position coverage.
    * ``decode_hits`` / ``decode_misses`` — decoded-block cache hits and
      decode kernel invocations (the scan fast-path; not a model term, so
      neither feeds the simulated-time replay). These flow end-to-end:
      ``Database.query`` surfaces them on ``QueryResult.stats`` and the
      span tree attributes them per operator.
    * ``compressed_scans`` / ``morphs`` — blocks a compressed-execution
      kernel answered in the encoded domain, and blocks that *morphed*:
      a kernel-capable block the stay-vs-morph model sent to the decoded
      path instead (plus position sets an operator had to expand out of
      run form). Observability for the compressed-execution layer; not
      model terms, so neither feeds the simulated-time replay.
    * ``io_retries`` / ``io_gave_up`` — block-read attempts retried after a
      :class:`~repro.errors.TransientIOError`, and reads abandoned after the
      retry budget was exhausted (the fault-tolerance layer; retries charge
      their simulated backoff to ``simulated_io_us``).
    * ``simulated_io_us`` — microseconds the simulated disk model charged
      (the replayed ``SEEK``/``READ`` terms, plus injected slow-block
      latency and retry backoff when a fault schedule is active).

    The field list is the contract: ``merge``/``reset``/``as_dict`` operate
    reflectively over it, the class docstring documents every field (guarded
    by a reflection test), and new fields must keep all three in sync.
    """

    block_reads: int = 0
    disk_seeks: int = 0
    buffer_hits: int = 0
    decode_hits: int = 0
    decode_misses: int = 0
    block_iterations: int = 0
    column_iterations: int = 0
    tuple_iterations: int = 0
    function_calls: int = 0
    tuples_constructed: int = 0
    values_scanned: int = 0
    positions_intersected: int = 0
    tuples_output: int = 0
    blocks_skipped: int = 0
    compressed_scans: int = 0
    morphs: int = 0
    io_retries: int = 0
    io_gave_up: int = 0
    simulated_io_us: float = 0.0

    extra: dict = field(default_factory=dict)

    def merge(self, other: "QueryStats") -> None:
        """Fold another stats object into this one (for sub-plans)."""
        for f in fields(self):
            if f.name == "extra":
                continue
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))
        for key, value in other.extra.items():
            self.extra[key] = self.extra.get(key, 0) + value

    def reset(self) -> None:
        for f in fields(self):
            if f.name == "extra":
                self.extra = {}
            else:
                setattr(self, f.name, type(getattr(self, f.name))())

    def as_dict(self) -> dict:
        out = {
            f.name: getattr(self, f.name) for f in fields(self) if f.name != "extra"
        }
        out.update(self.extra)
        return out

    def __str__(self) -> str:
        pairs = ", ".join(f"{k}={v}" for k, v in self.as_dict().items() if v)
        return f"QueryStats({pairs})"


# --------------------------------------------------------------------------
# Process-wide metrics registry
# --------------------------------------------------------------------------


class Counter:
    """A monotonically increasing integer metric."""

    __slots__ = ("value", "_lock")

    def __init__(self):
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, n: int = 1) -> None:
        """Add *n* (default 1) to the counter."""
        with self._lock:
            self.value += n


class LatencyHistogram:
    """Log-bucketed latency histogram (milliseconds).

    Buckets double from 0.01 ms up to ~21 minutes, which keeps recording
    O(log buckets) and snapshots tiny while still giving usable p50/p90/p99
    estimates (each percentile reports its bucket's upper bound).
    """

    #: Upper bounds of the buckets, in ms; the last bucket is unbounded.
    BOUNDS = tuple(0.01 * 2**i for i in range(27))

    __slots__ = ("counts", "count", "sum_ms", "min_ms", "max_ms", "_lock")

    def __init__(self):
        self.counts = [0] * (len(self.BOUNDS) + 1)
        self.count = 0
        self.sum_ms = 0.0
        self.min_ms = float("inf")
        self.max_ms = 0.0
        self._lock = threading.Lock()

    def record(self, ms: float) -> None:
        """Record one latency observation in milliseconds."""
        bucket = bisect_left(self.BOUNDS, ms)
        with self._lock:
            self.counts[bucket] += 1
            self.count += 1
            self.sum_ms += ms
            self.min_ms = min(self.min_ms, ms)
            self.max_ms = max(self.max_ms, ms)

    def percentile(self, q: float) -> float:
        """Upper bound of the bucket holding the *q*-quantile (0 < q <= 1)."""
        if self.count == 0:
            return 0.0
        target = q * self.count
        seen = 0
        for i, c in enumerate(self.counts):
            seen += c
            if seen >= target:
                return self.BOUNDS[i] if i < len(self.BOUNDS) else self.max_ms
        return self.max_ms  # pragma: no cover - defensive

    def snapshot(self) -> dict:
        """Summary dict: count, sum, min/max/mean and p50/p90/p99."""
        with self._lock:
            if self.count == 0:
                return {"count": 0}
            return {
                "count": self.count,
                "sum_ms": round(self.sum_ms, 4),
                "mean_ms": round(self.sum_ms / self.count, 4),
                "min_ms": round(self.min_ms, 4),
                "max_ms": round(self.max_ms, 4),
                "p50_ms": round(self.percentile(0.50), 4),
                "p90_ms": round(self.percentile(0.90), 4),
                "p99_ms": round(self.percentile(0.99), 4),
            }

    def export(self) -> dict:
        """Raw bucket dump for exposition: bounds, per-bucket counts, totals.

        Unlike :meth:`snapshot` (a human-facing summary), this carries the
        full bucket array so :func:`repro.exposition.render_prometheus` can
        emit a standard cumulative ``_bucket{le=...}`` series.
        """
        with self._lock:
            return {
                "bounds": list(self.BOUNDS),
                "counts": list(self.counts),
                "count": self.count,
                "sum_ms": self.sum_ms,
            }


class SlowQueryLog:
    """Ring buffer of the most recent queries over a latency threshold."""

    def __init__(self, threshold_ms: float = 100.0, capacity: int = 128):
        self.threshold_ms = threshold_ms
        self._entries: deque = deque(maxlen=max(capacity, 1))
        self._lock = threading.Lock()

    def observe(self, wall_ms: float, **entry) -> bool:
        """Record *entry* if ``wall_ms`` meets the threshold; returns whether
        it was logged."""
        if wall_ms < self.threshold_ms:
            return False
        with self._lock:
            self._entries.append(
                {"wall_ms": round(wall_ms, 3), "ts": time.time(), **entry}
            )
        return True

    def entries(self) -> list[dict]:
        """Logged entries, oldest first."""
        with self._lock:
            return list(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()


class MetricsRegistry:
    """Process-lifetime metrics: counters, histograms, slow-query log.

    The engine calls :meth:`observe_query` once per finished query; cache
    layers are attached as pull-based collectors (a name plus a zero-arg
    callable returning a dict), so their live state appears in every
    :meth:`snapshot` without any hot-path bookkeeping.
    """

    def __init__(
        self,
        slow_query_threshold_ms: float = 100.0,
        slow_query_capacity: int = 128,
    ):
        self._lock = threading.Lock()
        self._counters: OrderedDict[str, Counter] = OrderedDict()
        self._histograms: OrderedDict[str, LatencyHistogram] = OrderedDict()
        self._collectors: OrderedDict[str, object] = OrderedDict()
        self.slow_queries = SlowQueryLog(
            threshold_ms=slow_query_threshold_ms,
            capacity=slow_query_capacity,
        )

    # ------------------------------------------------------------ instruments

    def counter(self, name: str) -> Counter:
        """Get (or lazily create) the counter called *name*."""
        with self._lock:
            c = self._counters.get(name)
            if c is None:
                c = self._counters[name] = Counter()
            return c

    def histogram(self, name: str) -> LatencyHistogram:
        """Get (or lazily create) the latency histogram called *name*."""
        with self._lock:
            h = self._histograms.get(name)
            if h is None:
                h = self._histograms[name] = LatencyHistogram()
            return h

    def register_collector(self, name: str, fn) -> None:
        """Attach a pull-based source; *fn* is called at snapshot time.

        Re-registering a name replaces the previous source (a new
        ``Database`` over the same registry supersedes the old one's caches).
        """
        with self._lock:
            self._collectors[name] = fn

    def unregister_collector(self, name: str, fn=None) -> None:
        """Detach a collector; with *fn* given, only if it is still *fn*.

        Equality (not identity) comparison, so bound methods — a fresh
        object on every attribute access — unregister correctly.
        """
        with self._lock:
            if fn is None or self._collectors.get(name) == fn:
                self._collectors.pop(name, None)

    # ------------------------------------------------------------- reporting

    def observe_query(
        self,
        strategy: str,
        wall_ms: float,
        simulated_ms: float = 0.0,
        rows: int = 0,
        description: str = "",
        encodings=(),
        queue_wait_ms: float = 0.0,
        degraded: bool = False,
    ) -> None:
        """Record one finished query into counters, histograms, slow log.

        ``queue_wait_ms`` and ``degraded`` travel onto the slow-query ring
        buffer entry, so a slow served query shows how much of its latency
        was admission-queue wait and whether it completed over a partial
        (quarantine-degraded) partition set.
        """
        self.counter("queries_total").inc()
        self.counter(f"queries.strategy.{strategy}").inc()
        for encoding in encodings:
            self.counter(f"queries.encoding.{encoding}").inc()
            self.histogram(f"query_wall_ms.encoding.{encoding}").record(wall_ms)
        self.histogram("query_wall_ms").record(wall_ms)
        self.histogram(f"query_wall_ms.strategy.{strategy}").record(wall_ms)
        self.histogram(f"query_sim_ms.strategy.{strategy}").record(simulated_ms)
        logged = self.slow_queries.observe(
            wall_ms,
            strategy=strategy,
            simulated_ms=round(simulated_ms, 3),
            rows=rows,
            query=description,
            queue_wait_ms=round(queue_wait_ms, 3),
            degraded=degraded,
        )
        if logged:
            self.counter("queries_slow_total").inc()

    # ------------------------------------------------------------- lifecycle

    def snapshot(self) -> dict:
        """One JSON-safe dict of everything the registry knows right now."""
        return self._dump(LatencyHistogram.snapshot)

    def export(self) -> dict:
        """Exposition-grade dump: like :meth:`snapshot` but with raw
        histogram buckets (via :meth:`LatencyHistogram.export`) so the
        Prometheus renderer can emit cumulative ``_bucket`` series."""
        return self._dump(LatencyHistogram.export)

    def _dump(self, histogram_view) -> dict:
        with self._lock:
            counters = {name: c.value for name, c in self._counters.items()}
            histograms = {
                name: histogram_view(h) for name, h in self._histograms.items()
            }
            collectors = list(self._collectors.items())
        out = {
            "counters": counters,
            "histograms": histograms,
            "slow_queries": self.slow_queries.entries(),
        }
        for name, fn in collectors:
            try:
                out[name] = fn()
            except Exception as exc:  # collector outlived its owner
                out[name] = {"error": f"{type(exc).__name__}: {exc}"}
        return out

    def reset(self) -> None:
        """Drop counters, histograms and the slow-query log (collectors stay)."""
        with self._lock:
            self._counters.clear()
            self._histograms.clear()
        self.slow_queries.clear()


#: The process-wide default registry every Database reports into unless
#: constructed with an explicit ``metrics=`` argument.
REGISTRY = MetricsRegistry()
