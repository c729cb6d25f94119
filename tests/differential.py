"""Differential test harness: random queries, every strategy, one answer.

The four materialization strategies (and any stored-encoding override) are
different *physical* executions of the same logical query, so they must all
produce identical result sets. This module generates seeded random
selection/aggregation queries over the TPC-H fixture, runs each one under
every strategy with tracing on, and checks

* **result identity** — sorted row sets match across strategies/encodings;
* **span-tree invariants** — no dangling open spans, per-span *self*
  simulated times sum to the query's ``simulated_ms``, children's cumulative
  simulated time never exceeds their parent's, and cardinalities shrink
  monotonically across AND -> DS3 (the extractions are at exactly the
  intersected positions).

A second, **partitioned** axis (:func:`run_partition_differential`) runs
every generated query on an unpartitioned database and a range-partitioned
copy of the same data: partitioning plus zone-map pruning is purely
physical, so both layouts must agree row-for-row under every strategy.

A third, **fault-schedule** axis (:func:`run_fault_differential`) runs every
query on a clean database and on a database whose block reads fail
transiently under a seeded :class:`~repro.faults.FaultInjector` with retries
enabled: recovery is purely physical too, so every faulted execution must
reproduce the clean rows exactly — and the sweep asserts retries actually
fired, so the axis cannot silently degrade to a clean-read re-run. CI's
``seeds`` job varies the schedule via ``REPRO_FAULT_SEED``.

A fourth, **compressed-execution** axis (:func:`run_compressed_differential`)
runs every query on a database with the compressed kernels on and on one
with them off, over the same stored data (loaded with dictionary and FOR
stored encodings so every kernel actually fires): operating directly on
compressed data is purely physical, so all executions must agree — and the
sweep asserts kernel scans actually happened on the compressed side and
never on the plain side.

A fifth, **concurrency** axis (:func:`run_concurrent_differential`) runs
every query serially to establish reference rows, then replays the whole
(query, strategy) matrix through the asyncio query server with 8 concurrent
client sessions sharing one Database: admission queueing, worker-thread
execution, shared caches under contention and the JSON wire format are all
purely physical, so every served execution must reproduce the serial rows
bit for bit. Engine values are integers end to end, so the JSON round trip
is exact and "bit-identical" is a meaningful comparison over the wire.

A sixth, **replay** axis (:func:`run_replay_differential`) exercises the
workload flight recorder end to end: a mixed capture phase runs every
generated query under all four strategies embedded *and* through the query
server from concurrent sessions (so both origins land in the log), then the
captured log is read back (torn-tail-tolerant reader) and re-executed
against a second Database over the same stored files with
``repro.workload.replay_log(check=True)`` — every replayed result hash must
be bit-identical to the hash captured at record time. Recording, log
round-tripping and replay are all purely observational, so a single
mismatch means either the recorder or the engine drifted.

A seventh, **advisor** axis (:func:`run_advisor_differential`) proves
``repro advise --apply`` is purely physical: a seeded workload is captured
into the query log (every generated query under all four strategies
embedded), the database root is cloned, the advisor's recommended plan is
applied to the clone through the real catalog machinery (building and
dropping projections), and then every captured ok record is replayed on the
clone **both** before and after the apply with
``repro.workload.replay_log(check=True)`` — the post-apply replay also runs
under a different ``parallel_scans`` setting to stack a second physical
knob on top. Every replayed result hash must equal the hash captured at
record time, so a single mismatch means the advisor changed an answer.

An eighth, **crash** axis (:func:`run_crash_differential`) proves the write
path is crash-consistent at *every* write/fsync/rename boundary. A seeded
mixed workload — inserts, updates, deletes, tuple-mover merges and advisor
applies — first runs to completion on a clean copy of a small template
database under a passive :class:`~repro.faults.CrashInjector` that only
counts boundaries, recording the canonical row state after every operation.
Then, for each boundary step *k*, a fresh copy replays the same workload
with ``crash_at=k``: the injector raises
:class:`~repro.faults.SimulatedCrash` at exactly that boundary, the harness
abandons the handle (a hard kill — no close, no flush) and reopens the
database cold. Every recovered state must be **prefix-consistent** — equal
to the clean reference executed to the same operation prefix, where the
interrupted operation is either fully invisible, fully applied, or (for a
multi-row insert, whose WAL lines land one row at a time) a row prefix —
and resuming the remaining workload on the recovered database must
reproduce the clean final state and query answers bit for bit (the reopened
database also runs with a different ``parallel_scans``, stacking a second
physical knob on the recovery path). CI's ``seeds`` job varies the
boundary schedule via ``REPRO_CRASH_SEED``.

A companion **write** axis (:func:`run_write_differential`) proves
merge-on-read over updates and deletes is purely logical: the same seeded
insert/update/delete workload is applied to two identically-loaded
databases, one of which then folds everything into the read store with the
tuple mover while the other leaves it all pending in the delta store —
every generated query under every strategy must produce the identical
sorted row set on both.

Known physical limitation: LM-pipelined cannot position-filter bit-vector
encoded columns (``UnsupportedOperationError``); such runs are recorded as
skips, not failures.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro import Predicate, SelectQuery, Strategy
from repro.errors import UnsupportedOperationError
from repro.operators.aggregate import AggSpec

#: Every selection strategy the harness differentials across.
STRATEGIES = tuple(Strategy)

_OPS = ("<", "<=", ">", ">=", "=", "!=")
_AGG_FUNCS = ("sum", "count", "min", "max", "avg")


@dataclass
class DifferentialReport:
    """Outcome of one differential sweep."""

    queries: int = 0
    runs: int = 0
    skipped: int = 0
    retries: int = 0
    compressed_scans: int = 0
    morphs: int = 0
    encodings_used: set = field(default_factory=set)
    mismatches: list = field(default_factory=list)

    def record_mismatch(self, query, strategy, expected, got) -> None:
        """Keep a bounded, readable record of a result divergence."""
        self.mismatches.append(
            {
                "query": query,
                "strategy": strategy,
                "expected_rows": len(expected),
                "got_rows": len(got),
                "first_diff": _first_diff(expected, got),
            }
        )


def _first_diff(expected, got):
    for i, (e, g) in enumerate(zip(expected, got)):
        if e != g:
            return {"index": i, "expected": e, "got": g}
    return {"index": min(len(expected), len(got)), "expected": None, "got": None}


class QueryGenerator:
    """Seeded random :class:`SelectQuery` generator over one projection."""

    def __init__(self, db, projection: str = "lineitem", seed: int = 0):
        self.db = db
        self.name = projection
        self.projection = db.projection(projection)
        self.rng = random.Random(seed)
        self.columns = list(self.projection.column_names)
        # Observed value domains drive predicate constants, so generated
        # predicates land anywhere from empty to full selectivity.
        self.domains = {}
        self.encodings = {}
        for col in self.columns:
            # Partition-aware reads: a partitioned projection's values and
            # encodings live in its children.
            values = self.projection.read_column_values(col)
            # A write workload may have deleted every row.
            self.domains[col] = (
                (int(values.min()), int(values.max())) if values.size
                else (0, 0)
            )
            self.encodings[col] = list(
                self.projection.physical_column(col).encodings
            )

    def _predicate(self, col: str) -> Predicate:
        lo, hi = self.domains[col]
        value = self.rng.randint(lo, hi)
        return Predicate(col, self.rng.choice(_OPS), value)

    def _encoding_overrides(self, cols) -> tuple[tuple[str, str], ...]:
        out = []
        for col in cols:
            if len(self.encodings[col]) > 1 and self.rng.random() < 0.5:
                out.append((col, self.rng.choice(self.encodings[col])))
        return tuple(out)

    def next_query(self) -> SelectQuery:
        """One random selection or aggregation query."""
        n_select = self.rng.randint(1, min(3, len(self.columns)))
        select = tuple(self.rng.sample(self.columns, n_select))
        pred_cols = self.rng.sample(
            self.columns, self.rng.randint(0, min(2, len(self.columns)))
        )
        predicates = tuple(self._predicate(c) for c in pred_cols)
        encodings = self._encoding_overrides(
            dict.fromkeys(list(select) + pred_cols)
        )
        if self.rng.random() < 0.25:
            group = self.rng.choice(self.columns)
            agg_col = self.rng.choice([c for c in self.columns if c != group])
            spec = AggSpec(self.rng.choice(_AGG_FUNCS), agg_col)
            return SelectQuery(
                projection=self.name,
                select=(group, spec.output_name),
                predicates=predicates,
                group_by=group,
                aggregates=(spec,),
                encodings=encodings,
            )
        order_by = ()
        if self.rng.random() < 0.3:
            order_by = ((self.rng.choice(select), self.rng.random() < 0.5),)
        return SelectQuery(
            projection=self.name,
            select=select,
            predicates=predicates,
            encodings=encodings,
            order_by=order_by,
        )


def check_span_invariants(result, constants, rtol: float = 1e-6) -> None:
    """Assert the EXPLAIN ANALYZE tree invariants for one traced result."""
    root = result.spans
    assert root is not None, "traced query produced no span tree"
    assert root.open_spans() == [], "dangling open spans after execution"
    total_self = sum(s.self_simulated_ms(constants) for s in root.walk())
    tolerance = max(1e-9, rtol * max(result.simulated_ms, 1.0))
    assert abs(total_self - result.simulated_ms) <= tolerance, (
        f"self simulated times sum to {total_self}, "
        f"query reports {result.simulated_ms}"
    )
    for span in root.walk():
        child_sum = sum(c.simulated_ms(constants) for c in span.children)
        assert child_sum <= span.simulated_ms(constants) + tolerance
        if span.name == "AND":
            assert span.detail["positions"] <= min(span.detail["inputs"])
        if span.name == "DS3+filter":
            assert span.detail["positions_out"] <= span.detail["positions_in"]
    # Rows-out monotonicity across AND -> DS3: extractions happen at exactly
    # the intersected positions, so sibling DS3 spans after an AND carry its
    # output cardinality.
    for span in root.walk():
        and_rows = None
        for child in span.children:
            if child.name == "AND":
                and_rows = child.rows_out
            elif child.name == "DS3" and and_rows is not None:
                assert child.rows_out == and_rows


def run_differential(
    db,
    n_queries: int = 60,
    seed: int = 0,
    projection: str = "lineitem",
    strategies=STRATEGIES,
) -> DifferentialReport:
    """Run the sweep: every generated query under every strategy."""
    gen = QueryGenerator(db, projection=projection, seed=seed)
    report = DifferentialReport()
    for _ in range(n_queries):
        query = gen.next_query()
        report.queries += 1
        report.encodings_used.update(dict(query.encodings).values())
        reference = None
        for strategy in strategies:
            try:
                result = db.query(query, strategy=strategy, trace=True)
            except UnsupportedOperationError:
                report.skipped += 1
                continue
            report.runs += 1
            check_span_invariants(result, db.constants)
            rows = sorted(result.rows())
            if reference is None:
                reference = rows
            elif rows != reference:
                report.record_mismatch(query, strategy.value, reference, rows)
    return report


def run_partition_differential(
    plain_db,
    partitioned_db,
    n_queries: int = 30,
    seed: int = 0,
    projection: str = "lineitem",
    strategies=STRATEGIES,
) -> DifferentialReport:
    """The partitioned axis: every query on both physical layouts.

    *plain_db* and *partitioned_db* must hold the same logical data (same
    scale and seed); each generated query then runs under every strategy on
    **both** databases, and all executions of one query — 2 layouts x 4
    strategies — must produce the identical sorted row set and satisfy the
    span-tree invariants. This is the end-to-end proof that range
    partitioning plus zone-map pruning is purely physical.
    """
    gen = QueryGenerator(plain_db, projection=projection, seed=seed)
    report = DifferentialReport()
    for _ in range(n_queries):
        query = gen.next_query()
        report.queries += 1
        report.encodings_used.update(dict(query.encodings).values())
        reference = None
        for strategy in strategies:
            for db in (plain_db, partitioned_db):
                try:
                    result = db.query(query, strategy=strategy, trace=True)
                except UnsupportedOperationError:
                    report.skipped += 1
                    continue
                report.runs += 1
                check_span_invariants(result, db.constants)
                rows = sorted(result.rows())
                if reference is None:
                    reference = rows
                elif rows != reference:
                    report.record_mismatch(
                        query, strategy.value, reference, rows
                    )
    return report


def run_compressed_differential(
    compressed_db,
    plain_db,
    n_queries: int = 30,
    seed: int = 0,
    projection: str = "lineitem",
    strategies=STRATEGIES,
) -> DifferentialReport:
    """The compressed-execution axis: encoded-domain kernels change nothing.

    *compressed_db* and *plain_db* must serve the same stored files;
    *compressed_db* runs with ``compressed_execution=True`` (DS1 predicate
    kernels over RLE run tables / dictionary codes / FOR offsets, run-list
    AND, run/code-histogram aggregation) and *plain_db* with the layer off.
    Each generated query runs under every strategy on **both** databases and
    every execution must produce the identical sorted row set and satisfy
    the span-tree invariants. The sweep also accumulates the compressed
    side's ``compressed_scans`` / ``morphs`` counters (so callers can assert
    the kernels really fired) and asserts the plain side never counts a
    kernel scan.
    """
    gen = QueryGenerator(compressed_db, projection=projection, seed=seed)
    report = DifferentialReport()
    for _ in range(n_queries):
        query = gen.next_query()
        report.queries += 1
        report.encodings_used.update(dict(query.encodings).values())
        reference = None
        for strategy in strategies:
            for db in (compressed_db, plain_db):
                try:
                    result = db.query(query, strategy=strategy, trace=True)
                except UnsupportedOperationError:
                    report.skipped += 1
                    continue
                report.runs += 1
                if db is compressed_db:
                    report.compressed_scans += result.stats.compressed_scans
                    report.morphs += result.stats.morphs
                else:
                    assert result.stats.compressed_scans == 0, (
                        "compressed_execution=False must never dispatch a "
                        "kernel scan"
                    )
                check_span_invariants(result, db.constants)
                rows = sorted(result.rows())
                if reference is None:
                    reference = rows
                elif rows != reference:
                    report.record_mismatch(
                        query, strategy.value, reference, rows
                    )
    return report


def run_concurrent_differential(
    db,
    n_queries: int = 30,
    seed: int = 0,
    projection: str = "lineitem",
    strategies=STRATEGIES,
    sessions: int = 8,
    workers: int = 4,
    max_queue: int = 256,
) -> DifferentialReport:
    """The concurrency axis: the serving stack changes nothing.

    Every generated query first runs *serially* on *db* (EM-parallel
    reference — it supports every encoding — traced, with the span
    invariants checked). Then the full (query, strategy) matrix is
    replayed through an in-process :class:`~repro.serving.ServerThread`
    over the **same** Database by *sessions* concurrent client
    connections, work-stealing from a shared list in a seeded shuffled
    order and rotating through the admission priority classes. Admission
    queueing, worker-thread execution, cache contention and the JSON wire
    format are all purely physical, so every served row set must equal the
    serial reference bit for bit (engine values are integers end to end,
    so the JSON round trip is exact).

    ``max_queue`` defaults high enough that backpressure cannot reject
    work mid-sweep (at most *sessions* requests are ever in flight);
    rejection behaviour has its own tests. ``report.runs`` counts served
    executions only; ``report.compressed_scans`` / ``morphs`` accumulate
    from serial LM-parallel runs, since EM references decompress eagerly
    and the wire protocol does not carry engine counters.
    """
    import asyncio

    from repro.serving import AsyncQueryClient, ServerThread, query_to_dict
    from repro.serving.admission import PRIORITIES

    gen = QueryGenerator(db, projection=projection, seed=seed)
    queries = [gen.next_query() for _ in range(n_queries)]
    report = DifferentialReport()
    report.queries = n_queries
    references = []
    for query in queries:
        report.encodings_used.update(dict(query.encodings).values())
        result = db.query(query, strategy=Strategy.EM_PARALLEL, trace=True)
        check_span_invariants(result, db.constants)
        references.append(sorted(result.rows()))
        # EM decompresses eagerly (compressed execution is off there by
        # construction), so kernel counters come from a serial LM run.
        lm = db.query(query, strategy=Strategy.LM_PARALLEL)
        report.compressed_scans += lm.stats.compressed_scans
        report.morphs += lm.stats.morphs

    qdicts = [query_to_dict(q) for q in queries]
    work = [
        (qi, strategy.value)
        for qi in range(n_queries)
        for strategy in strategies
    ]
    random.Random(seed).shuffle(work)
    outcomes: list[tuple[int, str, dict]] = []

    async def _session(si: int, host: str, port: int, cursor: list) -> None:
        client = await AsyncQueryClient.connect(host, port)
        try:
            while True:
                if cursor[0] >= len(work):
                    return
                item = cursor[0]
                cursor[0] += 1
                qi, strategy = work[item]
                response = await client.request(
                    {
                        "op": "query",
                        "query": qdicts[qi],
                        "strategy": strategy,
                        "priority": PRIORITIES[si % len(PRIORITIES)],
                    }
                )
                outcomes.append((qi, strategy, response))
        finally:
            await client.close()

    async def _drive(host: str, port: int) -> None:
        cursor = [0]  # single event loop -> plain shared index is safe
        await asyncio.gather(
            *(_session(si, host, port, cursor) for si in range(sessions))
        )

    with ServerThread(db, workers=workers, max_queue=max_queue) as server:
        asyncio.run(_drive(server.host, server.port))

    for qi, strategy, response in outcomes:
        if not response.get("ok"):
            error_type = response.get("error", {}).get("type")
            if error_type == "UnsupportedOperationError":
                report.skipped += 1
                continue
            raise AssertionError(
                f"served query {qi} ({strategy}) failed: {response}"
            )
        report.runs += 1
        rows = sorted(tuple(row) for row in response["rows"])
        if rows != references[qi]:
            report.record_mismatch(queries[qi], strategy, references[qi], rows)
    return report


def run_replay_differential(
    db,
    replay_db,
    n_queries: int = 40,
    seed: int = 0,
    projection: str = "lineitem",
    strategies=STRATEGIES,
    served_strategies=(Strategy.EM_PARALLEL, Strategy.LM_PARALLEL),
    sessions: int = 8,
    workers: int = 4,
    max_queue: int = 256,
):
    """The replay axis: capture a mixed workload, replay it bit-identically.

    *db* must have its query log enabled; *replay_db* must serve the same
    stored files with its own recorder **off** (so replaying never appends
    to the log under test). The capture phase runs every generated query
    under every strategy embedded, then replays the whole query list
    through a :class:`~repro.serving.ServerThread` over *db* from
    *sessions* concurrent connections under ``served_strategies`` (both
    support every encoding, so the served phase never skips) — giving the
    log a genuinely mixed embedded/served, multi-strategy, multi-encoding
    shape. The log is then read back and re-executed on *replay_db* with
    ``check=True``.

    Returns ``(records, replay_report)`` — the records as read back from
    disk and the :class:`repro.workload.ReplayReport` whose ``ok`` the
    caller asserts.
    """
    import asyncio

    from repro.qlog import read_query_log
    from repro.serving import AsyncQueryClient, ServerThread, query_to_dict
    from repro.serving.admission import PRIORITIES
    from repro.workload import replay_log

    assert db.qlog is not None, "capture database must have the recorder on"
    assert replay_db.qlog is None, "replay database must not re-log"

    gen = QueryGenerator(db, projection=projection, seed=seed)
    queries = [gen.next_query() for _ in range(n_queries)]
    for query in queries:
        for strategy in strategies:
            try:
                db.query(query, strategy=strategy)
            except UnsupportedOperationError:
                # Recorded by the qlog as an error-outcome row; the replay
                # phase skips non-ok records.
                continue

    qdicts = [query_to_dict(q) for q in queries]
    work = [
        (qi, strategy.value)
        for qi in range(n_queries)
        for strategy in served_strategies
    ]
    random.Random(seed).shuffle(work)

    async def _session(si: int, host: str, port: int, cursor: list) -> None:
        client = await AsyncQueryClient.connect(host, port)
        try:
            while True:
                if cursor[0] >= len(work):
                    return
                item = cursor[0]
                cursor[0] += 1
                qi, strategy = work[item]
                response = await client.request(
                    {
                        "op": "query",
                        "query": qdicts[qi],
                        "strategy": strategy,
                        "priority": PRIORITIES[si % len(PRIORITIES)],
                    }
                )
                assert response.get("ok"), (
                    f"served capture of query {qi} ({strategy}) failed: "
                    f"{response}"
                )
        finally:
            await client.close()

    async def _drive(host: str, port: int) -> None:
        cursor = [0]
        await asyncio.gather(
            *(_session(si, host, port, cursor) for si in range(sessions))
        )

    with ServerThread(db, workers=workers, max_queue=max_queue) as server:
        asyncio.run(_drive(server.host, server.port))

    db.qlog.flush()  # drain the background writer before reading back
    records = read_query_log(db.qlog.directory)
    report = replay_log(replay_db, records, check=True)
    return records, report


def run_advisor_differential(
    db,
    clone_root,
    n_queries: int = 60,
    seed: int = 0,
    projection: str = "lineitem",
    strategies=STRATEGIES,
    parallel_scans: int = 2,
):
    """The advisor axis: ``advise --apply`` never changes an answer.

    *db* must have its query log enabled. The capture phase runs every
    generated query under every strategy embedded (UnsupportedOperationError
    runs are recorded by the qlog as error rows and skipped by replay, like
    the replay axis). The stored files — data *and* captured log — are then
    cloned to *clone_root*, and on the clone:

    1. every ok record replays hash-identically **before** any advice
       (guards against the clone itself perturbing anything);
    2. :func:`repro.advisor.advise` ranks a plan from the captured records
       and :func:`repro.advisor.apply_plan` executes it through the real
       catalog (projection builds, merges, drops);
    3. every ok record replays hash-identically **after** the apply, on a
       freshly opened Database with ``parallel_scans`` set differently —
       projection routing is pinned per record, so new projections and a
       different scan parallelism must both be invisible in the hashes.

    Returns ``(records, plan, report_pre, report_post)``; the caller
    asserts both reports' ``ok`` and that the plan actually built
    something (otherwise the axis silently degrades to the replay axis).
    """
    import shutil

    from repro.advisor import advise, apply_plan
    from repro.qlog import read_query_log
    from repro.workload import replay_log

    from repro import Database, MetricsRegistry

    assert db.qlog is not None, "capture database must have the recorder on"

    gen = QueryGenerator(db, projection=projection, seed=seed)
    for _ in range(n_queries):
        query = gen.next_query()
        for strategy in strategies:
            try:
                db.query(query, strategy=strategy)
            except UnsupportedOperationError:
                continue

    db.qlog.flush()
    records = read_query_log(db.qlog.directory)
    shutil.copytree(db.catalog.root, clone_root)

    pre_db = Database(clone_root, metrics=MetricsRegistry(), query_log=False)
    try:
        report_pre = replay_log(pre_db, records, check=True)
        plan = advise(pre_db, records)
        apply_plan(pre_db, plan)
    finally:
        pre_db.close()

    post_db = Database(
        clone_root,
        metrics=MetricsRegistry(),
        query_log=False,
        parallel_scans=parallel_scans,
    )
    try:
        report_post = replay_log(post_db, records, check=True)
    finally:
        post_db.close()
    return records, plan, report_pre, report_post


def run_fault_differential(
    clean_db,
    faulted_db,
    n_queries: int = 60,
    seed: int = 0,
    projection: str = "lineitem",
    strategies=STRATEGIES,
) -> DifferentialReport:
    """The fault-schedule axis: transient faults + retries change nothing.

    *clean_db* and *faulted_db* must serve the same stored data;
    *faulted_db* carries a :class:`~repro.faults.FaultInjector` whose
    transient rules fail fewer attempts than its
    :class:`~repro.faults.RetryPolicy` grants, so every read eventually
    recovers. Each generated query establishes its reference rows on the
    clean database, then runs **cold** (physical reads, so faults actually
    fire) under every strategy on the faulted database with the injector's
    attempt counters reset per run; every faulted execution must match the
    clean rows, never give up, and satisfy the span-tree invariants (the
    extra ``RETRY`` spans and their simulated backoff are part of the
    accounted tree). ``report.retries`` totals the retries observed so
    callers can assert the axis really injected faults.
    """
    gen = QueryGenerator(clean_db, projection=projection, seed=seed)
    injector = faulted_db.pool.injector
    report = DifferentialReport()
    for _ in range(n_queries):
        query = gen.next_query()
        report.queries += 1
        report.encodings_used.update(dict(query.encodings).values())
        # EM strategies support every encoding, so the reference never skips.
        reference = sorted(
            clean_db.query(query, strategy=Strategy.EM_PARALLEL).rows()
        )
        for strategy in strategies:
            injector.reset()
            try:
                result = faulted_db.query(
                    query, strategy=strategy, cold=True, trace=True
                )
            except UnsupportedOperationError:
                report.skipped += 1
                continue
            report.runs += 1
            report.retries += result.stats.io_retries
            assert result.stats.io_gave_up == 0, (
                "retry budget must outlast the transient schedule"
            )
            assert not result.degraded, (
                "transient faults must recover, not quarantine"
            )
            check_span_invariants(result, faulted_db.constants)
            rows = sorted(result.rows())
            if rows != reference:
                report.record_mismatch(query, strategy.value, reference, rows)
    return report


def seeded_write_workload(db, projection: str, seed: int, n_ops: int = 12):
    """A seeded list of logical write ops over *projection*'s value domains.

    Returns ``[("insert", table, rows), ("update", table, preds, assigns),
    ("delete", table, preds), ...]`` with values drawn from the observed
    stored-domain ranges, so predicates land anywhere from empty to broad
    and inserted rows are always encodable. The list is a pure value — the
    same ops can be applied to any database holding the same logical data.
    """
    rng = random.Random(seed)
    proj = db.projection(projection)
    columns = list(proj.column_names)
    domains = {}
    schemas = {}
    for col in columns:
        values = proj.read_column_values(col)
        domains[col] = (int(values.min()), int(values.max()))
        schemas[col] = proj.schema(col)

    def logical_row():
        return {
            col: schemas[col].decode_value(rng.randint(*domains[col]))
            for col in columns
        }

    def predicate():
        col = rng.choice(columns)
        lo, hi = domains[col]
        return Predicate(col, rng.choice(("<", "<=", ">", ">=")),
                         rng.randint(lo, hi))

    ops = []
    for _ in range(n_ops):
        roll = rng.random()
        if roll < 0.4:
            rows = [logical_row() for _ in range(rng.randint(1, 3))]
            ops.append(("insert", projection, rows))
        elif roll < 0.7:
            col = rng.choice(columns)
            assigns = {
                col: schemas[col].decode_value(rng.randint(*domains[col]))
            }
            ops.append(("update", projection, (predicate(),), assigns))
        else:
            ops.append(("delete", projection, (predicate(),)))
    return ops


def apply_write_op(db, op) -> int:
    """Apply one :func:`seeded_write_workload` op; returns rows touched."""
    kind, table = op[0], op[1]
    if kind == "insert":
        return db.insert(table, op[2])
    if kind == "update":
        return db.update(table, op[2], op[3])
    if kind == "delete":
        return db.delete(table, op[2])
    raise ValueError(f"unknown write op {kind!r}")


def run_write_differential(
    merged_db,
    pending_db,
    n_queries: int = 30,
    seed: int = 0,
    projection: str = "lineitem",
    strategies=STRATEGIES,
    n_ops: int = 12,
) -> DifferentialReport:
    """The write axis: updates/deletes are identical merged or pending.

    *merged_db* and *pending_db* must hold the same logical data (same
    scale and seed). The identical seeded insert/update/delete workload is
    applied to both; *merged_db* then runs the tuple mover (folding the
    whole write set into rebuilt projections) while *pending_db* leaves
    everything in the delta store, answered by merge-on-read. Every
    generated query under every strategy must produce the identical sorted
    row set on both databases — the end-to-end proof that the write path
    (WAL, delete multisets, upserts, merge) is purely physical.

    Both sides run traced with the span invariants checked — on the
    pending side that covers the ``GHOST`` and ``DELTA`` spans of the
    merge-on-read fold. The sweep asserts the workload really updated and
    deleted rows, so the axis cannot silently degrade to the insert-only
    differential.
    """
    ops = seeded_write_workload(pending_db, projection, seed, n_ops=n_ops)
    touched = {"insert": 0, "update": 0, "delete": 0}
    for op in ops:
        a = apply_write_op(merged_db, op)
        b = apply_write_op(pending_db, op)
        assert a == b, (
            f"op {op[0]} touched {a} rows on the merged db, {b} on the "
            "pending db — the databases have diverged"
        )
        touched[op[0]] += a
    assert touched["update"] > 0 and touched["delete"] > 0, (
        f"workload must update and delete rows, touched {touched}"
    )
    merged_db.merge(projection)
    assert merged_db.pending(projection) == 0
    assert pending_db.pending(projection) > 0, (
        "the pending side must answer through merge-on-read"
    )

    gen = QueryGenerator(merged_db, projection=projection, seed=seed)
    report = DifferentialReport()
    for _ in range(n_queries):
        query = gen.next_query()
        report.queries += 1
        report.encodings_used.update(dict(query.encodings).values())
        reference = None
        for strategy in strategies:
            for db in (merged_db, pending_db):
                try:
                    result = db.query(query, strategy=strategy, trace=True)
                except UnsupportedOperationError:
                    report.skipped += 1
                    continue
                report.runs += 1
                check_span_invariants(result, db.constants)
                rows = sorted(result.rows())
                if reference is None:
                    reference = rows
                elif rows != reference:
                    report.record_mismatch(
                        query, strategy.value, reference, rows
                    )
    return report


# --------------------------------------------------------------- crash axis


@dataclass
class CrashDifferentialReport:
    """Outcome of one crash-differential sweep."""

    #: Write/fsync/rename boundaries the reference workload crosses.
    boundaries: int = 0
    #: Crash trials executed (one per tested boundary).
    trials: int = 0
    #: Trials in which the injector actually fired.
    crashes: int = 0
    #: Op kinds a crash interrupted ("open", "insert", "update", ...).
    ops_crashed: set = field(default_factory=set)
    #: Recoveries that surfaced a partially-durable multi-row insert
    #: (a true torn-tail row prefix, not just all-or-nothing).
    prefix_recoveries: int = 0
    mismatches: list = field(default_factory=list)


def build_crash_template(root, seed: int = 0):
    """A small two-table database for the crash axis.

    ``items`` is the interesting table: three int32 columns behind two
    projections — a range-partitioned primary sorted on ``a`` (with an RLE
    secondary encoding) and an anchored secondary sorted on ``b`` — so a
    tuple-mover merge rebuilds several directories in one commit. ``tags``
    is a second table proving per-table WAL isolation. All columns are
    plain integers, so logical and stored domains coincide and canonical
    row states compose exactly with WAL row prefixes.
    """
    import numpy as np

    from repro import Database, MetricsRegistry
    from repro.dtypes import INT32, ColumnSchema

    db = Database(root, query_log=False, metrics=MetricsRegistry())
    rng = np.random.default_rng(seed)
    n = 240
    items = {
        "a": np.sort(rng.integers(0, 500, size=n)).astype(np.int32),
        "b": rng.integers(0, 50, size=n).astype(np.int32),
        "c": rng.integers(0, 1000, size=n).astype(np.int32),
    }
    schemas = {col: ColumnSchema(col, INT32) for col in items}
    db.catalog.create_projection(
        "items",
        items,
        schemas=schemas,
        sort_keys=["a"],
        encodings={"a": ["uncompressed", "rle"],
                   "b": ["uncompressed", "rle"],
                   "c": ["uncompressed"]},
        presorted=True,
        partitions=2,
    )
    db.catalog.create_projection(
        "items_b",
        dict(items),
        schemas=dict(schemas),
        sort_keys=["b"],
        encodings={"a": ["uncompressed"],
                   "b": ["uncompressed", "rle"],
                   "c": ["uncompressed"]},
        anchor="items",
    )
    m = 60
    tags = {
        "t": np.sort(rng.integers(0, 20, size=m)).astype(np.int32),
        "v": rng.integers(0, 100, size=m).astype(np.int32),
    }
    db.catalog.create_projection(
        "tags",
        tags,
        schemas={col: ColumnSchema(col, INT32) for col in tags},
        sort_keys=["t"],
        encodings={"t": ["uncompressed", "rle"], "v": ["uncompressed"]},
        presorted=True,
    )
    db.close()


#: Tables of the crash template and the column order of their canonical
#: row states.
CRASH_TABLES = {"items": ("a", "b", "c"), "tags": ("t", "v")}


def crash_workload(seed: int = 0):
    """The deterministic mixed op list the crash axis replays.

    Every value is precomputed here (one seeded draw), so the reference
    run and every crash trial execute byte-identical operations — which is
    what makes the boundary numbering stable across runs.
    """
    rng = random.Random(seed)

    def item_rows(k):
        return [
            {"a": rng.randint(0, 499), "b": rng.randint(0, 49),
             "c": rng.randint(0, 999)}
            for _ in range(k)
        ]

    def tag_rows(k):
        return [
            {"t": rng.randint(0, 19), "v": rng.randint(0, 99)}
            for _ in range(k)
        ]

    return [
        ("insert", "items", item_rows(3)),
        ("insert", "tags", tag_rows(2)),
        ("update", "items", (Predicate("b", "<", 10),), {"c": 1111}),
        ("delete", "items", (Predicate("a", ">=", 450),)),
        ("merge", "items"),
        ("insert", "items", item_rows(2)),
        ("delete", "tags", (Predicate("t", "=", 5),)),
        ("merge", "tags"),
        ("update", "items", (Predicate("b", ">=", 45),), {"b": 7}),
        ("insert", "items", item_rows(3)),
        ("merge", "items"),
        ("apply_build", "items"),
        ("insert", "items", item_rows(2)),
        ("delete", "items", (Predicate("c", "<", 60),)),
        ("merge", "items"),
        ("apply_drop", "items"),
        ("insert", "tags", tag_rows(3)),
        ("update", "tags", (Predicate("v", "<", 30),), {"v": 77}),
        ("merge", "tags"),
    ]


def _crash_apply_op(db, op) -> None:
    """Execute one :func:`crash_workload` op against *db*."""
    from repro.advisor.plan import AdvisorAction, AdvisorPlan, apply_plan

    kind = op[0]
    if kind == "insert":
        db.insert(op[1], op[2])
    elif kind == "update":
        db.update(op[1], op[2], op[3])
    elif kind == "delete":
        db.delete(op[1], op[2])
    elif kind == "merge":
        db.merge(op[1])
    elif kind == "apply_build":
        plan = AdvisorPlan(actions=[AdvisorAction(
            kind="build", name="items_c", anchor=op[1],
            columns=("c", "a"), sort_keys=("c",),
            encodings={"c": ["uncompressed", "rle"],
                       "a": ["uncompressed"]},
        )])
        apply_plan(db, plan)
    elif kind == "apply_drop":
        plan = AdvisorPlan(actions=[AdvisorAction(kind="drop",
                                                  name="items_c")])
        apply_plan(db, plan)
    else:
        raise ValueError(f"unknown crash op {kind!r}")


def _canonical_state(db) -> dict:
    """table -> sorted tuple rows, via a full merge-on-read scan."""
    state = {}
    for table, columns in CRASH_TABLES.items():
        result = db.query(
            SelectQuery(projection=table, select=columns),
            strategy=Strategy.EM_PARALLEL,
        )
        state[table] = sorted(result.rows())
    return state


def _crash_suite_queries():
    """Fixed query suite hashing the recovered database's answers."""
    return [
        SelectQuery(projection="items", select=("a", "b", "c")),
        SelectQuery(projection="items", select=("b", "c"),
                    predicates=(Predicate("a", "<", 250),)),
        SelectQuery(projection="items",
                    select=("b", AggSpec("sum", "c").output_name),
                    group_by="b", aggregates=(AggSpec("sum", "c"),)),
        SelectQuery(projection="tags", select=("t", "v"),
                    predicates=(Predicate("v", ">=", 20),)),
    ]


def _acceptance_states(ops, states, j):
    """Every prefix-consistent state for a crash during op *j* (1-based).

    ``states[j]`` is the canonical state after op j (``states[0]`` = the
    template). The interrupted op may be invisible, fully applied, or —
    for a multi-row insert, whose WAL lines land row by row and whose tail
    may tear mid-payload — any row prefix. Merges and applies never change
    the canonical state, so for them before/after coincide.
    """
    if j == 0:
        return [states[0]]
    op = ops[j - 1]
    before, after = states[j - 1], states[j]
    if op[0] == "insert":
        table, rows = op[1], op[2]
        columns = CRASH_TABLES[table]
        accepted = []
        for i in range(len(rows) + 1):
            state = {t: list(v) for t, v in before.items()}
            state[table] = sorted(
                state[table]
                + [tuple(int(r[c]) for c in columns) for r in rows[:i]]
            )
            accepted.append(state)
        return accepted
    if op[0] in ("update", "delete"):
        return [before, after]
    return [before]  # merge / apply: answer-preserving by construction


def run_crash_differential(
    template_root,
    work_root,
    seed: int = 0,
    max_crash_points: int | None = None,
    parallel_scans: int = 2,
) -> CrashDifferentialReport:
    """The crash axis: every write boundary, crashed and recovered.

    Builds the template database under *template_root*, runs the seeded
    :func:`crash_workload` once on a clean copy under a step-counting
    injector (recording boundary ranges and the canonical state after
    every op), then for each boundary *k* replays the workload on a fresh
    copy with ``crash_at=k``, hard-abandons the crashed handle, reopens
    cold with a different ``parallel_scans``, and checks:

    1. the recovered canonical state is one of the prefix-consistent
       acceptance states for the interrupted op (acknowledged writes
       durable, unacknowledged invisible);
    2. resuming the remaining workload reproduces the clean reference's
       final canonical state and the fixed query suite's answers bit for
       bit (one strategy per trial, rotating through all four).

    ``max_crash_points`` subsamples the boundary list evenly when set
    (every boundary is tested when ``None``).
    """
    import shutil

    from repro import Database, MetricsRegistry
    from repro.faults import CrashInjector, SimulatedCrash

    template_root = str(template_root)
    work_root = str(work_root)
    build_crash_template(template_root, seed=seed)
    ops = crash_workload(seed=seed)

    def fresh(target):
        shutil.rmtree(target, ignore_errors=True)
        shutil.copytree(template_root, target)

    # ----------------------------------------------------- reference run
    ref_root = f"{work_root}/reference"
    fresh(ref_root)
    counter = CrashInjector(seed=seed)  # no schedule: counts boundaries
    ref_db = Database(ref_root, crash_injector=counter,
                      query_log=False, metrics=MetricsRegistry())
    cumulative = [counter.steps]  # boundaries consumed by the open itself
    states = [_canonical_state(ref_db)]
    for op in ops:
        _crash_apply_op(ref_db, op)
        cumulative.append(counter.steps)
        states.append(_canonical_state(ref_db))
    for j, op in enumerate(ops, start=1):
        if op[0] in ("merge", "apply_build", "apply_drop"):
            assert states[j] == states[j - 1], (
                f"{op[0]} changed the canonical state — the acceptance "
                "model is unsound"
            )
    suite = _crash_suite_queries()
    reference_answers = [
        sorted(ref_db.query(q, strategy=Strategy.EM_PARALLEL).rows())
        for q in suite
    ]
    ref_db.close()

    report = CrashDifferentialReport(boundaries=cumulative[-1])
    crash_points = list(range(1, cumulative[-1] + 1))
    if max_crash_points is not None and len(crash_points) > max_crash_points:
        stride = len(crash_points) / max_crash_points
        crash_points = [
            crash_points[int(i * stride)] for i in range(max_crash_points)
        ]

    # ----------------------------------------------------- crash trials
    trial_root = f"{work_root}/trial"
    for trial, k in enumerate(crash_points):
        report.trials += 1
        fresh(trial_root)
        injector = CrashInjector(seed=seed, crash_at=k)
        crashed_at = None  # 1-based op index; 0 = during open
        try:
            db = Database(trial_root, crash_injector=injector,
                          query_log=False, metrics=MetricsRegistry())
            for j, op in enumerate(ops, start=1):
                _crash_apply_op(db, op)
        except SimulatedCrash:
            crashed_at = 0 if injector.steps <= cumulative[0] else next(
                j for j in range(1, len(ops) + 1)
                if injector.steps <= cumulative[j]
            )
        # No close(), no flush: the crashed handle is abandoned exactly
        # where the exception left it, like a killed process.
        if crashed_at is None:
            report.mismatches.append(
                {"crash_at": k, "error": "injector never fired"}
            )
            continue
        report.crashes += 1
        report.ops_crashed.add(
            "open" if crashed_at == 0 else ops[crashed_at - 1][0]
        )

        recovered = Database(trial_root, query_log=False,
                             metrics=MetricsRegistry(),
                             parallel_scans=parallel_scans)
        state = _canonical_state(recovered)
        accepted = _acceptance_states(ops, states, crashed_at)
        try:
            match = accepted.index(state)
        except ValueError:
            report.mismatches.append(
                {
                    "crash_at": k,
                    "op": crashed_at,
                    "error": "recovered state is not prefix-consistent",
                    "rows": {t: len(v) for t, v in state.items()},
                }
            )
            recovered.close()
            continue
        if crashed_at and ops[crashed_at - 1][0] == "insert":
            if 0 < match < len(accepted) - 1:
                report.prefix_recoveries += 1

        # Resume: finish (or redo) the interrupted op, then run the rest.
        if crashed_at == 0:
            remaining = ops
        else:
            op = ops[crashed_at - 1]
            if op[0] == "insert":
                recovered.insert(op[1], op[2][match:])
            elif op[0] in ("update", "delete"):
                if match == 0:  # the op never became durable
                    _crash_apply_op(recovered, op)
            else:
                _crash_apply_op(recovered, op)  # idempotent re-run
            remaining = ops[crashed_at:]
        for op in remaining:
            _crash_apply_op(recovered, op)

        final = _canonical_state(recovered)
        if final != states[-1]:
            report.mismatches.append(
                {"crash_at": k, "op": crashed_at,
                 "error": "resumed final state diverges from reference"}
            )
            recovered.close()
            continue
        strategy = STRATEGIES[trial % len(STRATEGIES)]
        for q, expected in zip(suite, reference_answers):
            got = sorted(recovered.query(q, strategy=strategy).rows())
            if got != expected:
                report.mismatches.append(
                    {"crash_at": k, "op": crashed_at,
                     "strategy": strategy.value,
                     "error": "query suite diverges after recovery"}
                )
                break
        recovered.close()
    return report
