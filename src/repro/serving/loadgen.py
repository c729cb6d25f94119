"""Closed-loop load generator for the query server.

N simulated clients each run the classic closed loop: pick a query from a
seeded **Zipfian** mix over a generated corpus, send it, wait for the full
response, *think* for a jittered interval, repeat. Throughput under this
model follows the interactive-response-time law — one client's throughput
is bounded by ``1 / (think + response)``, so a server that overlaps many
clients' think time across its worker pool scales throughput with client
count until the machine (or the admission queue) saturates. That scaling
curve — plus p50/p99 latency, queue depth and rejection rate — is what
``repro loadgen`` prints; the e2e benchmark's ``serve_sql_zipf`` workload
measures served throughput against a ``repro serve`` subprocess.

Everything is seeded: the corpus, each client's query choices and think
jitter, so a run is reproducible end to end. The Zipfian skew (``theta``)
makes a handful of corpus queries dominate, which keeps the buffer pool and
decoded cache warm — the serving-layer analogue of the paper's warm-scan
measurements.
"""

from __future__ import annotations

import asyncio
import random
import time
from bisect import bisect_left
from dataclasses import dataclass, field

from ..metrics import exact_percentile
from ..planner import SelectQuery
from ..predicates import Predicate
from .client import AsyncQueryClient
from .protocol import query_to_dict
from .server import ServerThread

_OPS = ("<", "<=", ">", ">=", "=", "!=")
_AGG_FUNCS = ("sum", "count", "min", "max", "avg")


def build_corpus(
    db,
    projection: str = "lineitem",
    size: int = 32,
    seed: int = 7,
    limit: int | None = 1024,
) -> list[SelectQuery]:
    """Seeded random selection/aggregation corpus over one projection.

    A lighter sibling of the differential harness's ``QueryGenerator``
    (which lives in the test tree): predicates are drawn from observed
    value domains so selectivities span empty to full, a quarter of the
    corpus aggregates, and no stored-encoding overrides are used — every
    query is executable under every strategy, so the mix never trips the
    LM-pipelined/bit-vector limitation mid-benchmark.

    *limit* caps every selection's result set (an interactive client
    paginates; it does not pull the whole table per request). Without it a
    near-full-selectivity draw turns into a table dump whose serialization
    cost swamps the scan the benchmark is trying to measure. ``None``
    removes the cap. Aggregations are left uncapped — their outputs are
    group-count sized.
    """
    proj = db.projection(projection)
    rng = random.Random(seed)
    columns = list(proj.column_names)
    domains = {}
    for col in columns:
        values = proj.read_column_values(col)
        domains[col] = (int(values.min()), int(values.max()))

    def predicate(col: str) -> Predicate:
        lo, hi = domains[col]
        return Predicate(col, rng.choice(_OPS), rng.randint(lo, hi))

    corpus: list[SelectQuery] = []
    for _ in range(size):
        n_select = rng.randint(1, min(3, len(columns)))
        select = tuple(rng.sample(columns, n_select))
        pred_cols = rng.sample(columns, rng.randint(0, min(2, len(columns))))
        predicates = tuple(predicate(c) for c in pred_cols)
        if rng.random() < 0.25:
            group = rng.choice(columns)
            agg_col = rng.choice([c for c in columns if c != group])
            from ..operators.aggregate import AggSpec

            spec = AggSpec(rng.choice(_AGG_FUNCS), agg_col)
            corpus.append(
                SelectQuery(
                    projection=projection,
                    select=(group, spec.output_name),
                    predicates=predicates,
                    group_by=group,
                    aggregates=(spec,),
                )
            )
        else:
            corpus.append(
                SelectQuery(
                    projection=projection,
                    select=select,
                    predicates=predicates,
                    limit=limit,
                )
            )
    return corpus


def zipfian_cdf(n: int, theta: float) -> list[float]:
    """Cumulative Zipf weights for ranks 1..n (weight of rank k ∝ k^-theta)."""
    weights = [1.0 / (k ** theta) for k in range(1, n + 1)]
    total = sum(weights)
    cdf, acc = [], 0.0
    for w in weights:
        acc += w / total
        cdf.append(acc)
    cdf[-1] = 1.0
    return cdf


@dataclass
class LoadgenReport:
    """Outcome of one closed-loop run (JSON-safe via :meth:`to_dict`)."""

    clients: int = 0
    workers: int = 0
    duration_s: float = 0.0
    think_ms: float = 0.0
    theta: float = 0.0
    seed: int = 0
    corpus_size: int = 0
    queries: int = 0          # requests attempted
    ok: int = 0
    rejected: int = 0
    timeouts: int = 0
    errors: int = 0
    throughput_qps: float = 0.0
    mean_ms: float = 0.0
    p50_ms: float = 0.0
    p95_ms: float = 0.0
    p99_ms: float = 0.0
    max_ms: float = 0.0
    queue_depth_max: int = 0
    queue_depth_mean: float = 0.0
    rejection_rate: float = 0.0
    latencies_ms: list = field(default_factory=list, repr=False)

    def to_dict(self) -> dict:
        out = {
            k: getattr(self, k)
            for k in (
                "clients", "workers", "duration_s", "think_ms", "theta",
                "seed", "corpus_size", "queries", "ok", "rejected",
                "timeouts", "errors", "throughput_qps", "mean_ms", "p50_ms",
                "p95_ms", "p99_ms", "max_ms", "queue_depth_max",
                "queue_depth_mean", "rejection_rate",
            )
        }
        return {
            k: round(v, 4) if isinstance(v, float) else v
            for k, v in out.items()
        }


async def _client_loop(
    index: int,
    host: str,
    port: int,
    qdicts: list[dict],
    cdf: list[float],
    deadline: float,
    think_s: float,
    seed: int,
    timeout_ms,
    priority: str,
    report: LoadgenReport,
) -> None:
    rng = random.Random(seed * 10_007 + index)
    client = await AsyncQueryClient.connect(host, port)
    try:
        overrides: dict = {"priority": priority}
        if timeout_ms is not None:
            overrides["timeout_ms"] = timeout_ms
        while time.monotonic() < deadline:
            payload = {
                "op": "query",
                "query": qdicts[bisect_left(cdf, rng.random())],
                **overrides,
            }
            t0 = time.perf_counter()
            response = await client.request(payload)
            latency_ms = (time.perf_counter() - t0) * 1000.0
            report.queries += 1
            if response.get("ok"):
                report.ok += 1
                report.latencies_ms.append(latency_ms)
            elif response.get("rejected"):
                report.rejected += 1
            elif response.get("timeout"):
                report.timeouts += 1
            else:
                report.errors += 1
            if think_s > 0:
                # Jittered think time, mean == think_s, seeded per client.
                await asyncio.sleep(think_s * (0.5 + rng.random()))
    finally:
        await client.close()


async def _monitor_loop(
    host: str, port: int, stop: asyncio.Event, samples: list[int]
) -> None:
    """Sample the server's admission-queue depth until *stop* is set."""
    client = await AsyncQueryClient.connect(host, port)
    try:
        while not stop.is_set():
            response = await client.stats()
            if response.get("ok"):
                samples.append(response["stats"]["admission"]["depth"])
            try:
                await asyncio.wait_for(stop.wait(), timeout=0.05)
            except asyncio.TimeoutError:
                pass
    finally:
        await client.close()


async def _run_clients(
    host: str,
    port: int,
    corpus: list[SelectQuery],
    report: LoadgenReport,
    *,
    clients: int,
    duration_s: float,
    think_ms: float,
    theta: float,
    seed: int,
    timeout_ms,
    priority: str,
    warmup: bool,
) -> None:
    qdicts = [query_to_dict(q) for q in corpus]
    cdf = zipfian_cdf(len(qdicts), theta)
    if warmup:
        # One serial pass over the corpus so the measured window runs warm.
        client = await AsyncQueryClient.connect(host, port)
        try:
            for qd in qdicts:
                await client.request({"op": "query", "query": qd})
        finally:
            await client.close()
    stop = asyncio.Event()
    depth_samples: list[int] = []
    monitor = asyncio.ensure_future(
        _monitor_loop(host, port, stop, depth_samples)
    )
    deadline = time.monotonic() + duration_s
    start = time.perf_counter()
    await asyncio.gather(
        *(
            _client_loop(
                i, host, port, qdicts, cdf, deadline, think_ms / 1000.0,
                seed, timeout_ms, priority, report,
            )
            for i in range(clients)
        )
    )
    elapsed = time.perf_counter() - start
    stop.set()
    await monitor
    lat = sorted(report.latencies_ms)
    report.duration_s = elapsed
    report.throughput_qps = report.ok / elapsed if elapsed > 0 else 0.0
    report.mean_ms = sum(lat) / len(lat) if lat else 0.0
    report.p50_ms = exact_percentile(lat, 0.50)
    report.p95_ms = exact_percentile(lat, 0.95)
    report.p99_ms = exact_percentile(lat, 0.99)
    report.max_ms = lat[-1] if lat else 0.0
    report.queue_depth_max = max(depth_samples, default=0)
    report.queue_depth_mean = (
        sum(depth_samples) / len(depth_samples) if depth_samples else 0.0
    )
    report.rejection_rate = (
        report.rejected / report.queries if report.queries else 0.0
    )


def run_loadgen(
    db=None,
    host: str | None = None,
    port: int | None = None,
    *,
    clients: int = 8,
    duration_s: float = 4.0,
    think_ms: float = 20.0,
    theta: float = 1.1,
    seed: int = 7,
    corpus_size: int = 32,
    projection: str = "lineitem",
    workers: int = 4,
    max_queue: int = 64,
    timeout_ms: float | None = None,
    priority: str = "normal",
    warmup: bool = True,
    registry=None,
) -> LoadgenReport:
    """Run the closed loop and return a :class:`LoadgenReport`.

    Either pass *db* (a server is stood up in-process around it for the
    run, with *workers* threads and a *max_queue*-deep admission queue) or
    *host*/*port* of an already-running server — in the latter case *db*
    is still needed to build the corpus unless the corpus queries are
    known to exist server-side.

    The report is also folded into *registry* (default: the served
    database's registry) as ``loadgen.*`` counters and a latency histogram.
    """
    if db is None and (host is None or port is None):
        raise ValueError("need a Database or an explicit host/port")
    corpus = build_corpus(db, projection=projection, size=corpus_size,
                          seed=seed)
    report = LoadgenReport(
        clients=clients, workers=workers, think_ms=think_ms, theta=theta,
        seed=seed, corpus_size=corpus_size,
    )

    def _drive(target_host: str, target_port: int) -> None:
        asyncio.run(
            _run_clients(
                target_host, target_port, corpus, report,
                clients=clients, duration_s=duration_s, think_ms=think_ms,
                theta=theta, seed=seed, timeout_ms=timeout_ms,
                priority=priority, warmup=warmup,
            )
        )

    if host is not None and port is not None:
        _drive(host, port)
    else:
        with ServerThread(db, workers=workers, max_queue=max_queue) as st:
            _drive(st.host, st.port)

    reg = registry
    if reg is None and db is not None:
        reg = db.metrics
    if reg is not None:
        reg.counter("loadgen.queries_total").inc(report.queries)
        reg.counter("loadgen.rejected_total").inc(report.rejected)
        reg.counter("loadgen.timeouts_total").inc(report.timeouts)
        reg.counter("loadgen.errors_total").inc(report.errors)
        hist = reg.histogram("loadgen.latency_ms")
        for ms in report.latencies_ms:
            hist.record(ms)
    return report
