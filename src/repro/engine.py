"""High-level database facade.

:class:`Database` ties the pieces together: a catalog of projections, a
buffer pool over the cost-accounted disk model, strategy selection (explicit
or model-driven), execution over one snapshot of the pending writes, and
result decoding. This is the public entry point both the examples and the
benchmark harness use.

Example::

    db = Database("/tmp/demo")
    load_tpch(db.catalog, scale=0.01)
    result = db.query(
        SelectQuery(
            projection="lineitem",
            select=("shipdate", "linenum"),
            predicates=(
                Predicate("shipdate", "<", 9000),
                Predicate("linenum", "<", 7),
            ),
        ),
        strategy="lm-parallel",
    )
    print(result.rows()[:5], result.wall_ms, result.simulated_ms)
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

from .buffer import BufferPool, DecodedBlockCache, DiskModel
from .buffer.decoded import DEFAULT_DECODED_CAPACITY_BYTES
from .cancel import CancelToken

from .delta import (
    DeltaStore,
    PendingWrites,
    delta_select,
    merge_sorted,
    multiset_subtract,
)
from .errors import CatalogError, PlanError
from .faults import FaultInjector, PartitionQuarantine, RetryPolicy
from .metrics import REGISTRY, MetricsRegistry, QueryStats
from .model.constants import PAPER_CONSTANTS, ModelConstants
from .model.cost import simulated_time_ms
from .observe import Span, SpanTracer
from .operators import ExecutionContext, TupleSet
from .planner import (
    JoinQuery,
    RightTableStrategy,
    SelectQuery,
    Strategy,
    choose_strategy,
    execute_join,
    execute_select,
    resolve_projection,
)
from .planner.describe import render_span_tree
from .planner.nodes import executed_strategy, stored_overrides
from .planner.projection_choice import resolve_join_side
from .storage.catalog import Catalog
from .storage.projection import Projection


@dataclass
class QueryResult:
    """A finished query: tuples, the strategy used, and its costs."""

    tuples: TupleSet
    strategy: str
    stats: QueryStats
    wall_ms: float
    simulated_ms: float
    decoders: dict = field(default_factory=dict)
    #: Root of the EXPLAIN ANALYZE span tree when the query ran with
    #: ``trace=True``; None otherwise.
    spans: Span | None = None
    #: True when the query completed over a strict subset of its partitions
    #: (``Database(on_error="degrade")`` skipped quarantined or failing
    #: partitions). A degraded result is the clean result restricted to the
    #: surviving partitions — never silently wrong, always flagged.
    degraded: bool = False
    #: Names of the partitions skipped by degraded execution, in partition
    #: order; empty for a complete result.
    skipped_partitions: tuple = ()
    #: Rows read before predicates (stored + pending − deleted) — the
    #: denominator the query log's observed selectivity is computed
    #: against. 0 when unknown (joins).
    base_rows: int = 0
    #: Name of the projection the planner resolved the query to (selects
    #: only; None for joins). The query log records it so replay can pin
    #: each query to the projection that produced its result hash even
    #: after the advisor has changed the candidate set.
    projection: str | None = None

    @property
    def n_rows(self) -> int:
        return self.tuples.n_tuples

    @property
    def queue_wait_ms(self) -> float:
        """Milliseconds this query spent queued before execution started.

        Non-zero only for queries routed through a serving-layer admission
        queue (``Database.query(..., queue_wait_ms=...)``); together with
        ``wall_ms`` it decomposes end-to-end latency into wait + execute.
        """
        return float(self.stats.extra.get("queue_wait_ms", 0.0))

    def rows(self) -> list[tuple]:
        """Raw stored values as Python tuples."""
        return self.tuples.rows()

    def summary(self) -> dict:
        """The per-query facts every view reports, assembled in one place.

        ``strategy``, ``rows``, ``wall_ms``, ``simulated_ms``,
        ``queue_wait_ms`` and ``total_ms`` (wait + execute) always;
        ``partitions`` ``{total, scanned, pruned}`` when the query scanned
        a range-partitioned projection; ``degraded`` and
        ``skipped_partitions`` when it completed over a strict subset of
        its partitions. The metrics registry, the query log, the
        ``explain(analyze=True)`` report, the server reply and the CLI
        summary lines are all views of this dict.
        """
        queue_wait_ms = self.queue_wait_ms
        out = {
            "strategy": self.strategy,
            "rows": self.n_rows,
            "wall_ms": self.wall_ms,
            "simulated_ms": self.simulated_ms,
            "queue_wait_ms": queue_wait_ms,
            "total_ms": queue_wait_ms + self.wall_ms,
        }
        extra = self.stats.extra
        if "partitions_total" in extra:
            out["partitions"] = {
                "total": extra["partitions_total"],
                "scanned": extra.get("partitions_scanned", 0),
                "pruned": extra.get("partitions_pruned", 0),
            }
        if self.degraded:
            out["degraded"] = True
            out["skipped_partitions"] = list(self.skipped_partitions)
        return out

    def report(self) -> str:
        """Human-readable execution report: strategy, costs, counters, spans."""
        stats = self.stats
        summary = self.summary()
        lines = [
            f"strategy       {summary['strategy']}",
            f"rows           {summary['rows']}",
            f"wall time      {summary['wall_ms']:.2f} ms",
            f"model replay   {summary['simulated_ms']:.2f} ms",
            (
                f"I/O            {stats.block_reads} block reads, "
                f"{stats.disk_seeks} seeks, {stats.buffer_hits} pool hits, "
                f"{stats.blocks_skipped} blocks skipped"
            ),
            (
                f"decode cache   {stats.decode_hits} hits, "
                f"{stats.decode_misses} misses"
            ),
            (
                f"compressed     {stats.compressed_scans} kernel scans, "
                f"{stats.morphs} morphs"
            ),
            (
                f"CPU            {stats.values_scanned} values scanned, "
                f"{stats.tuples_constructed} tuples constructed, "
                f"{stats.positions_intersected} positions intersected"
            ),
        ]
        if "queue_wait_ms" in stats.extra:
            lines.append(
                f"queue wait     {summary['queue_wait_ms']:.2f} ms "
                f"(end-to-end {summary['total_ms']:.2f} ms)"
            )
        if stats.io_retries or stats.io_gave_up:
            lines.append(
                f"fault recovery {stats.io_retries} retries, "
                f"{stats.io_gave_up} reads abandoned"
            )
        if "degraded" in summary:
            lines.append(
                "DEGRADED       result excludes quarantined partitions: "
                + ", ".join(summary["skipped_partitions"])
            )
        for key, value in sorted(stats.extra.items()):
            if key == "queue_wait_ms":  # has its own line above
                continue
            lines.append(f"{key:<14} {value}")
        if self.spans is not None:
            lines.append("operators:")
            lines.append(render_span_tree(self.spans))
        return "\n".join(lines)

    def decoded_rows(self) -> list[tuple]:
        """Rows with dictionary codes and dates mapped back to logical values.

        Column at a time: one ``tolist()`` per column, its decoder mapped
        over that list, then the columns zipped into rows.
        """
        data = self.tuples.data
        columns = []
        for i, col in enumerate(self.tuples.columns):
            values = data[:, i].tolist()
            decode = self.decoders.get(col)
            columns.append(values if decode is None else map(decode, values))
        return list(zip(*columns)) if columns else [()] * len(data)


class Database:
    """A column-store database rooted at one directory."""

    def __init__(
        self,
        root: str | Path,
        pool_capacity_bytes: int = 256 * 1024 * 1024,
        disk: DiskModel | None = None,
        constants: ModelConstants = PAPER_CONSTANTS,
        use_multicolumns: bool = True,
        use_indexes: bool = True,
        decompress_eagerly: bool = False,
        compressed_execution: bool = True,
        decoded_cache_bytes: int = DEFAULT_DECODED_CAPACITY_BYTES,
        parallel_scans: int = 0,
        metrics: MetricsRegistry | None = None,
        fault_injector: FaultInjector | None = None,
        retry: RetryPolicy | None = None,
        on_error: str = "fail",
        query_log: "QueryLog | bool | None" = True,
        durability: str = "fsync",
        crash_injector=None,
    ):
        """Open (or create) a database.

        Args:
            compressed_execution: route DS1 scans through the per-encoding
                compressed kernels (:mod:`repro.compressed`) and the LM
                aggregation tail through run tables / code histograms.
                ``True`` (default) evaluates predicates in the encoded
                domain wherever the stay-vs-morph model says it wins;
                ``False`` restores the fully decoded path. Result rows are
                bit-identical either way (the compressed differential axis
                gates this). Model counters legitimately *drop* when
                kernels fire — run-length position lists are charged per
                run, not per position — so the model records the paper's
                compressed-execution advantage; within either setting the
                counters stay bit-identical across serial/parallel and
                cold/warm. ``decompress_eagerly=True`` forces this off.
            decoded_cache_bytes: byte budget for the decoded-block cache —
                the scan fast-path's second level, holding decoded value
                arrays and RLE run tables above the raw payload pool. ``0``
                disables it (every block access re-runs the decode kernel).
                Neither setting changes ``QueryStats`` cost counters or
                simulated time, only wall-clock.
            parallel_scans: worker threads for the independent scan leaves
                of the EM-parallel / LM-parallel strategies. ``0`` (default)
                keeps execution strictly serial. Counters merge
                deterministically, so results and simulated costs are
                identical to serial execution.
            metrics: registry every finished query is reported into. Defaults
                to the process-wide :data:`repro.metrics.REGISTRY`; pass a
                fresh :class:`~repro.metrics.MetricsRegistry` to isolate
                (its ``slow_query_threshold_ms`` sets the slow-query log's
                wall-clock threshold).
            fault_injector: optional :class:`~repro.faults.FaultInjector`
                consulted before every physical block read — the test
                substrate for transient I/O errors, injected corruption and
                slow blocks. ``None`` (default) skips the hook entirely.
            retry: :class:`~repro.faults.RetryPolicy` for transient block-
                read failures (default: 3 attempts, 500 us base backoff
                charged to simulated time). Pass
                :data:`repro.faults.NO_RETRY` to fail on first error.
            on_error: ``"fail"`` (default) aborts a query on the first
                unrecovered storage error, exactly the historical contract;
                ``"degrade"`` quarantines a failing partition for the
                session and completes queries over the survivors, marking
                results ``degraded=True`` with ``skipped_partitions``.
            query_log: the workload flight recorder. ``True`` (default)
                opens a :class:`~repro.qlog.QueryLog` under
                ``<root>/_qlog/`` recording every finished query (outcome,
                strategy, counters, selectivity, result hash — see
                :mod:`repro.qlog`); pass a ``QueryLog(directory)`` to log
                elsewhere, or ``False``/``None`` to disable. The recorder
                runs inside every workload of the e2e benchmark
                (``benchmarks/e2e``), so its cost is part of every
                end-to-end number there.
            durability: ``"fsync"`` (default) fsyncs every WAL append (one
                fsync per accepted batch, charged to the simulated disk
                clock) and every staged-commit boundary, so acknowledged
                writes survive power loss; ``"flush"`` restores the
                buffered pre-durability behaviour — the OS may lose the
                last few acknowledged writes on a crash. See
                ``docs/durability.md``.
            crash_injector: optional :class:`~repro.faults.CrashInjector`
                consulted at every write-path boundary (WAL append/fsync/
                truncate, staging fsyncs, renames, the manifest commit) —
                the test substrate for the crash differential. ``None``
                (default) skips the hooks entirely.
        """
        if on_error not in ("fail", "degrade"):
            raise ValueError(
                f"on_error must be 'fail' or 'degrade', got {on_error!r}"
            )
        if durability not in ("fsync", "flush"):
            raise ValueError(
                f"durability must be 'fsync' or 'flush', got {durability!r}"
            )
        self.durability = durability
        self.crash_injector = crash_injector
        self.disk = disk if disk is not None else DiskModel()
        self.catalog = Catalog(root, crash=crash_injector, disk=self.disk)
        self.pool = BufferPool(
            pool_capacity_bytes,
            self.disk,
            injector=fault_injector,
            retry=retry,
        )
        self.on_error = on_error
        self.quarantine = PartitionQuarantine()
        self.decoded = (
            DecodedBlockCache(decoded_cache_bytes, pool=self.pool)
            if decoded_cache_bytes > 0
            else None
        )
        if parallel_scans > 0:
            from .operators.scheduler import ScanScheduler

            self.scheduler: ScanScheduler | None = ScanScheduler(parallel_scans)
        else:
            self.scheduler = None
        self.constants = constants
        self.use_multicolumns = use_multicolumns
        self.use_indexes = use_indexes
        self.decompress_eagerly = decompress_eagerly
        self.compressed_execution = compressed_execution
        self.metrics = metrics if metrics is not None else REGISTRY
        self.metrics.register_collector("buffer_pool", self.pool.metrics)
        if self.decoded is not None:
            self.metrics.register_collector(
                "decoded_cache", self.decoded.metrics
            )
        if fault_injector is not None:
            self.metrics.register_collector(
                "fault_injector", fault_injector.metrics
            )
        self.metrics.register_collector("quarantine", self.quarantine.metrics)
        if query_log is True:
            from .qlog import QueryLog

            self.qlog: "QueryLog | None" = QueryLog(
                self.catalog.root / "_qlog"
            )
        elif query_log:
            self.qlog = query_log
        else:
            self.qlog = None
        if self.qlog is not None:
            self.metrics.register_collector("query_log", self.qlog.metrics)
        # Pending changes are WAL-backed under the database root so they
        # survive process restarts until the tuple mover folds them in; the
        # catalog's wal_applied markers make that fold crash-restartable.
        self.delta = DeltaStore(
            wal_directory=self.catalog.root / "_wal",
            catalog=self.catalog,
            disk=self.disk,
            durability=durability,
            crash=crash_injector,
        )

    def projection(self, name: str) -> Projection:
        return self.catalog.get(name)

    def drop_projection(self, name: str) -> None:
        """Remove a projection and its files from the catalog."""
        self.catalog.drop_projection(name)
        self.clear_cache()

    def clear_cache(self) -> None:
        """Drop both cache levels (queries start from a cold cache)."""
        self.pool.clear()
        if self.decoded is not None:
            self.decoded.clear()

    def close(self) -> None:
        """Release the scan scheduler and detach metrics collectors."""
        if self.scheduler is not None:
            self.scheduler.close()
        self.metrics.unregister_collector("buffer_pool", self.pool.metrics)
        if self.decoded is not None:
            self.metrics.unregister_collector(
                "decoded_cache", self.decoded.metrics
            )
        if self.pool.injector is not None:
            self.metrics.unregister_collector(
                "fault_injector", self.pool.injector.metrics
            )
        self.metrics.unregister_collector("quarantine", self.quarantine.metrics)
        if self.qlog is not None:
            self.metrics.unregister_collector("query_log", self.qlog.metrics)
            self.qlog.close()

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _context(
        self, trace: bool = False, cancel: CancelToken | None = None
    ) -> ExecutionContext:
        stats = QueryStats()
        return ExecutionContext(
            pool=self.pool,
            stats=stats,
            use_multicolumns=self.use_multicolumns,
            use_indexes=self.use_indexes,
            decompress_eagerly=self.decompress_eagerly,
            decoded=self.decoded,
            compressed=self.compressed_execution,
            constants=self.constants,
            scheduler=self.scheduler,
            tracer=SpanTracer(stats) if trace else None,
            on_error=self.on_error,
            quarantine=self.quarantine,
            cancel=cancel,
        )

    @staticmethod
    def _note_queue_wait(ctx: ExecutionContext, queue_wait_ms) -> None:
        """Record admission-queue wait so latency decomposes wait + execute.

        The wait is surfaced twice: as ``stats.extra["queue_wait_ms"]`` (so
        ``QueryResult.report()`` and ``queue_wait_ms`` see it) and, when
        tracing, as a synthetic ``QUEUE`` span under the root. The span
        carries zero model counters — queue wait is wall-clock only, so
        every span-tree simulated-time invariant is untouched — and its
        ``wall_ms`` is backdated to the measured wait.
        """
        if not queue_wait_ms:
            return
        wait = round(float(queue_wait_ms), 3)
        if ctx.tracer is not None:
            span = ctx.tracer.begin("QUEUE")
            ctx.stats.extra["queue_wait_ms"] = wait
            ctx.tracer.end(span, queue_wait_ms=wait)
            span.wall_ms = wait
        else:
            ctx.stats.extra["queue_wait_ms"] = wait

    def _resolve_strategy(self, projection, query, strategy, pending):
        """The strategy *query* runs with over :meth:`sources`
        *projection*: the model's pick for ``auto``, else the named one."""
        if strategy is None or strategy == "auto":
            # The model's F: how much of the first column read is cached.
            if isinstance(query, JoinQuery):
                first, column = projection[0], query.left_key
                encodings = dict(stored_overrides(first, query.encodings))
            else:
                first, column = projection, query.all_columns[0]
                encodings = query.encoding_map
            cf = first.physical_column(column).file(encodings.get(column))
            chosen, _predictions = choose_strategy(
                projection,
                query,
                constants=self.constants,
                resident=self.pool.resident_fraction(cf),
                pending=pending,
            )
            return chosen
        if isinstance(query, JoinQuery):
            if isinstance(strategy, RightTableStrategy):
                return strategy
            return RightTableStrategy.from_name(str(strategy))
        if not isinstance(strategy, Strategy):
            strategy = Strategy.from_name(str(strategy))
        return executed_strategy(query, strategy)

    def query(
        self,
        query: SelectQuery | JoinQuery,
        strategy: Strategy | str | None = "auto",
        cold: bool = False,
        trace: bool = False,
        timeout_ms: float | None = None,
        cancel: CancelToken | None = None,
        queue_wait_ms: float | None = None,
        origin: str = "embedded",
        session: str | None = None,
        pin_projection: str | None = None,
    ) -> QueryResult:
        """Execute a logical query.

        Args:
            query: a :class:`SelectQuery` or :class:`JoinQuery`.
            strategy: a :class:`Strategy` / its name, "auto" for model-driven
                choice, or for joins a :class:`RightTableStrategy` / name
                ("auto" picks it by the join model).
            cold: clear the buffer pool first (cold-cache measurement).
            trace: build the EXPLAIN ANALYZE span tree and return it on
                ``QueryResult.spans``.
            timeout_ms: per-query deadline; expiry raises
                :class:`~repro.errors.QueryTimeoutError` at the next block
                access. Ignored when *cancel* already carries a deadline.
            cancel: cooperative :class:`~repro.cancel.CancelToken`, checked
                on every block access. Tripping it raises
                :class:`~repro.errors.QueryCancelledError`; with ``trace``
                on, the truncated-but-valid span tree rides on
                ``exc.spans``. Either way no partial result escapes.
            queue_wait_ms: milliseconds the query waited in a serving-layer
                admission queue before execution; recorded as
                ``stats.extra["queue_wait_ms"]`` and a ``QUEUE`` span so
                end-to-end latency decomposes into wait + execute.
            origin / session: provenance stamped on the query-log record —
                ``"embedded"`` (default) for in-process callers,
                ``"served"`` plus the session id for the serving layer.
            pin_projection: execute a select against exactly this stored
                projection, bypassing model-driven candidate routing.
                Replay uses it to pin each record to the projection that
                produced its recorded result hash, which stays correct
                even after the design advisor has grown the candidate
                set. Selects only; raises
                :class:`~repro.errors.CatalogError` when the projection
                does not exist or does not cover the query.
        """
        if timeout_ms is not None:
            if cancel is None:
                cancel = CancelToken(timeout_ms=timeout_ms)
            elif cancel.timeout_ms is None:
                cancel.timeout_ms = timeout_ms
        if cold:
            self.clear_cache()
        if not isinstance(query, (SelectQuery, JoinQuery)):
            raise PlanError(f"cannot execute {type(query).__name__}")
        dispatch_start = time.perf_counter()
        try:
            if isinstance(query, JoinQuery):
                result = self._run_join(
                    query, strategy, trace=trace, cancel=cancel,
                    queue_wait_ms=queue_wait_ms,
                )
            else:
                result = self._run_select(
                    query, strategy, trace=trace, cancel=cancel,
                    queue_wait_ms=queue_wait_ms,
                    pin_projection=pin_projection,
                )
        except BaseException as exc:
            if self.qlog is not None:
                self.qlog.observe_error(
                    query,
                    exc,
                    wall_ms=(time.perf_counter() - dispatch_start) * 1000.0,
                    queue_wait_ms=queue_wait_ms,
                    origin=origin,
                    session=session,
                )
            raise
        self.metrics.observe_query(
            result,
            description=repr(query)[:200],
            encodings=getattr(query, "encoding_map", {}).values(),
        )
        if self.qlog is not None:
            self.qlog.observe(query, result, origin=origin, session=session)
        return result

    def _pending_table(self, *names) -> str | None:
        """First of *names* with buffered changes (inserts or deletes)."""
        for name in names:
            if name and self.delta.dirty(name):
                return name
        return None

    def sources(self, query: SelectQuery | JoinQuery):
        """What *query* reads: a select's routed projection, or a join's
        ``(left, right)`` pair of stored projections — the first argument
        of :func:`~repro.planner.plan_nodes` and every view of it."""
        if isinstance(query, SelectQuery):
            return resolve_projection(
                self.catalog, query, constants=self.constants
            )
        left = resolve_join_side(
            self.catalog,
            query.left,
            [query.left_key, *query.left_select]
            + [p.column for p in query.left_predicates],
        )
        right = resolve_join_side(
            self.catalog, query.right, [query.right_key, *query.right_select]
        )
        return left, right

    def pending_writes(
        self, projection, query: SelectQuery | JoinQuery
    ) -> PendingWrites | dict[str, int] | None:
        """The one snapshot of pending writes a select over *projection*
        reads, as its columns; None when there are none. For a join
        (*projection* is its :meth:`sources` pair), ``{table: pending
        changes}`` of its sides that have any: joins refuse them."""
        if isinstance(query, JoinQuery):
            dirty = {}
            for side, proj in zip((query.left, query.right), projection):
                table = self._pending_table(side, proj.anchor)
                if table is not None:
                    dirty[table] = self.pending(table)
            return dirty or None
        table = self._pending_table(query.projection, projection.anchor)
        if table is None:
            return None
        schemas = {c: projection.schema(c) for c in projection.column_names}
        return self.delta.snapshot(table, schemas)

    def _run_select(
        self,
        query: SelectQuery,
        strategy,
        trace: bool = False,
        cancel: CancelToken | None = None,
        queue_wait_ms: float | None = None,
        pin_projection: str | None = None,
    ) -> QueryResult:
        if pin_projection is not None:
            projection = self.catalog.get(pin_projection)
            missing = set(query.all_columns) - set(projection.column_names)
            if missing:
                raise CatalogError(
                    f"pinned projection {pin_projection!r} does not cover "
                    f"columns {sorted(missing)}"
                )
        else:
            projection = self.sources(query)
        pending = self.pending_writes(projection, query)
        resolved = self._resolve_strategy(projection, query, strategy, pending)
        base_rows = projection.n_rows
        if pending:
            base_rows += pending.n_inserts - pending.n_deletes
        return self._execute(
            lambda ctx: execute_select(ctx, projection, query, resolved, pending),
            resolved, (projection,), trace, cancel, queue_wait_ms,
            base_rows=base_rows, projection=projection.name,
        )

    def _execute(
        self, run, resolved, sources, trace, cancel, queue_wait_ms, **fields
    ) -> QueryResult:
        """Run ``run(ctx)`` on a fresh context and wrap its tuples.

        The one execute-and-wrap tail of selects and joins: wall time starts
        here, after the strategy is resolved; *sources* are the projections
        whose dictionaries decode the result columns; *fields* are extra
        :class:`QueryResult` fields.
        """
        ctx = self._context(trace=trace, cancel=cancel)
        self._note_queue_wait(ctx, queue_wait_ms)
        start = time.perf_counter()
        try:
            if cancel is not None:  # e.g. the deadline expired while queued
                cancel.check()
            tuples = run(ctx)
        except BaseException as exc:
            # Truncate the span tree — every span the exception cut short
            # closes with status="error" — and attach it for post-mortems.
            if ctx.tracer is not None:
                exc.spans = ctx.tracer.finish(error=exc)
            raise
        wall_ms = (time.perf_counter() - start) * 1000.0
        spans = None
        if ctx.tracer is not None:
            spans = ctx.tracer.finish()
            spans.detail["strategy"] = resolved.value
        decoders = {}
        for source in sources:
            decoders.update(self._decoders(source, tuples.columns))
        return QueryResult(
            tuples=tuples,
            strategy=resolved.value,
            stats=ctx.stats,
            wall_ms=wall_ms,
            simulated_ms=simulated_time_ms(ctx.stats, self.constants),
            decoders=decoders,
            spans=spans,
            degraded=bool(ctx.skipped_partitions),
            skipped_partitions=tuple(ctx.skipped_partitions),
            **fields,
        )

    def _write_target(self, table: str, predicates) -> tuple:
        """Resolve a delete/update target: schemas plus a covering projection.

        Returns ``(schemas, cover)`` where *schemas* is the union over every
        candidate projection and *cover* is a projection holding every table
        column — required because deletes capture full rows, so any
        projection (whatever its column subset) can subtract them later.
        """
        schemas = self.catalog.table_schemas(table)
        candidates = self.catalog.candidates(table)
        for pred in predicates:
            if pred.column not in schemas:
                raise CatalogError(
                    f"unknown column {pred.column!r} of table {table!r}"
                )
        cover = next(
            (
                proj
                for proj in candidates
                if set(schemas) <= set(proj.column_names)
            ),
            None,
        )
        if cover is None:
            raise CatalogError(
                f"no projection of {table!r} covers every column; deletes "
                "and updates need one full-width projection to resolve rows"
            )
        return schemas, cover

    def _match_rows(
        self, table: str, predicates, schemas, cover
    ) -> tuple[dict, dict]:
        """Stored and pending rows matching *predicates*, as column arrays.

        Stored matches come through the ordinary read path — a selection
        of every column over the covering projection, so zone maps prune,
        the sorted-column index applies and blocks come from the buffer
        pool — never a whole-table decode. Matches already queued for
        deletion are excluded (a row can only die once) by the plan's
        GHOST node over a snapshot holding only the pending deletes;
        predicates take stored-domain values, exactly like
        :class:`~repro.planner.logical.SelectQuery` predicates.
        """
        names = tuple(schemas)
        query = SelectQuery(cover.name, names, tuple(predicates))
        pending = self.delta.snapshot(table, schemas)
        ghosts = None
        if pending.n_deletes:
            empty = {col: values[:0] for col, values in pending.inserts.items()}
            ghosts = PendingWrites(empty, pending.deletes)
        ctx = self._context()
        ctx.on_error = "fail"  # a write must see every partition or fail
        # Early materialisation, pipelined: the write needs whole rows, the
        # plan applies the most selective predicate first, and unlike
        # LM-pipelined it supports every encoding.
        matched = execute_select(
            ctx, cover, query, Strategy.EM_PIPELINED, ghosts
        )
        stored = {col: matched.column(col) for col in names}
        return stored, delta_select(query, pending.inserts)

    def delete(self, table: str, predicates) -> int:
        """Delete every row of *table* matching all *predicates*.

        Stored matches become WAL-logged delete markers subtracted from
        every query until the tuple mover drops them for good; pending
        (not-yet-merged) matches are removed immediately. One WAL record
        makes the whole delete atomic. Returns the number of rows deleted.
        Predicate values are in the stored (encoded) domain, exactly as in
        :class:`~repro.planner.logical.SelectQuery`.
        """
        predicates = tuple(predicates)
        schemas, cover = self._write_target(table, predicates)
        stored, pending = self._match_rows(table, predicates, schemas, cover)
        return self.delta.delete(table, stored, pending)

    def update(self, table: str, predicates, assignments: dict) -> int:
        """Update matching rows of *table*: ``assignments`` is column ->
        new (logical-domain) value, encoded through the column schema like
        :meth:`insert` values.

        Implemented as delete+insert in one atomic WAL record: matched
        stored rows become delete markers, and every match re-enters the
        writable store with the assignments applied. Returns the number of
        rows updated.
        """
        predicates = tuple(predicates)
        schemas, cover = self._write_target(table, predicates)
        unknown = set(assignments) - set(schemas)
        if unknown:
            raise CatalogError(
                f"unknown column(s) {sorted(unknown)} of table {table!r}"
            )
        encoded = {  # type-checked like inserted values, before any log
            col: schemas[col].encode_column([value])[0].item()
            for col, value in assignments.items()
        }
        stored, pending = self._match_rows(table, predicates, schemas, cover)
        return self.delta.update(table, stored, pending, encoded)

    def insert(self, table: str, rows: list[dict]) -> int:
        """Buffer rows into the writable store for *table* (an anchor name).

        Rows become visible to selection and aggregation queries immediately
        (merge-on-read); call :meth:`merge` to fold them into the read store.
        """
        return self.delta.insert(table, rows, self.catalog.table_schemas(table))

    def pending(self, table: str) -> int:
        """Number of buffered (not yet merged) changes for *table*:
        pending inserted rows plus pending delete markers."""
        return self.delta.count(table) + self.delta.deleted_count(table)

    def merge(self, table: str) -> int:
        """The tuple mover: fold buffered changes into every projection of
        *table*.

        Rebuilds each projection (encode, checksum, index, histogram)
        from (stored − deleted) + pending rows — the surviving stored rows
        keep their order and only the pending rows are sorted into it
        (:func:`~repro.delta.merge_sorted`) — and publishes every rebuild
        in ONE atomic manifest commit — staged under ``tmp-*/``, fsynced,
        renamed, committed by ``os.replace`` of the manifest (see
        :meth:`repro.storage.catalog.Catalog.commit_merge`). The WAL is
        truncated strictly after the commit; a crash anywhere in between
        recovers via the manifest's ``wal_applied`` marker, so re-merging
        is idempotent. Returns the number of changes moved.
        """
        moved = self.delta.count(table) + self.delta.deleted_count(table)
        if moved == 0:
            return 0
        pending, deleted = self.delta.snapshot(
            table, self.catalog.table_schemas(table)
        )
        builds = []
        for proj in sorted(
            self.catalog.candidates(table), key=lambda p: p.name
        ):
            schemas = {c: proj.schema(c) for c in proj.column_names}
            stored = {
                col: proj.read_column_values(col)
                for col in proj.column_names
            }
            keep, _ = multiset_subtract(stored, deleted, proj.column_names)
            data = merge_sorted(
                {col: values[keep] for col, values in stored.items()},
                {col: pending[col] for col in proj.column_names},
                proj.sort_keys,
            )
            builds.append(
                dict(
                    name=proj.name,
                    data=data,
                    schemas=schemas,
                    sort_keys=list(proj.sort_keys),
                    presorted=True,
                    encodings={
                        col: proj.physical_column(col).encodings
                        for col in proj.column_names
                    },
                    anchor=proj.anchor,
                    partitions=max(len(proj.partitions), 1),
                )
            )
        self.catalog.commit_merge(
            table, builds, self.delta.wal_records(table)
        )
        self.delta.mark_applied(table)
        self.clear_cache()  # stale payloads for the replaced files
        return moved

    def _run_join(
        self,
        query: JoinQuery,
        strategy,
        trace: bool = False,
        cancel: CancelToken | None = None,
        queue_wait_ms: float | None = None,
    ) -> QueryResult:
        sides = self.sources(query)
        pending = self.pending_writes(sides, query)
        resolved = self._resolve_strategy(sides, query, strategy, pending)
        return self._execute(
            lambda ctx: execute_join(ctx, *sides, query, resolved, pending),
            resolved, sides, trace, cancel, queue_wait_ms,
        )

    def scrub(self, deep: bool = False):
        """Verify the files under this database's root; see :mod:`repro.scrub`.

        Decodes the metadata the next open would read, and checks every
        block straight off disk — independent of this handle's cached
        metadata, query traffic, the buffer pool, and any fault injector.
        Returns a :class:`~repro.scrub.ScrubReport` naming every defect;
        with ``deep=True`` payloads are also decoded and validated against
        their descriptors.
        """
        from .scrub import scrub_catalog

        return scrub_catalog(self.catalog.root, deep=deep)

    def sql(
        self,
        statement: str,
        strategy: Strategy | str | None = "auto",
        encodings: dict[str, str] | None = None,
        cold: bool = False,
        timeout_ms: float | None = None,
        cancel: CancelToken | None = None,
        queue_wait_ms: float | None = None,
    ) -> QueryResult:
        """Parse, bind, and execute a SQL statement.

        Args:
            statement: the SQL text (see :mod:`repro.sql` for the subset).
            strategy: materialization strategy, as for :meth:`query`.
            encodings: optional column -> stored-encoding override.
            cold: clear the buffer pool first.
            timeout_ms / cancel / queue_wait_ms: as for :meth:`query`.
        """
        from .sql import bind, parse

        query = bind(parse(statement), self.catalog, encodings=encodings)
        return self.query(
            query,
            strategy=strategy,
            cold=cold,
            timeout_ms=timeout_ms,
            cancel=cancel,
            queue_wait_ms=queue_wait_ms,
        )

    def describe(
        self,
        query: SelectQuery | JoinQuery,
        strategy: Strategy | RightTableStrategy | str = "auto",
    ) -> str:
        """Render the physical plan for *query* without executing it."""
        from .planner import describe_plan

        projection = self.sources(query)
        pending = self.pending_writes(projection, query)
        resolved = self._resolve_strategy(projection, query, strategy, pending)
        return describe_plan(projection, query, resolved, pending)

    def explain(
        self,
        query: SelectQuery | JoinQuery,
        resident: float = 0.0,
        analyze: bool = False,
        strategy: Strategy | str | None = "auto",
        timeout_ms: float | None = None,
        cancel: CancelToken | None = None,
        queue_wait_ms: float | None = None,
    ) -> dict:
        """Per-strategy model predictions for *query* (the optimizer's view).

        Selection queries compare the four materialization strategies; join
        queries compare the three inner-table strategies (via the join model
        extension).

        With ``analyze=True`` the query is *executed* (with tracing on, under
        the given *strategy*) and the result is an EXPLAIN ANALYZE report
        instead: :meth:`QueryResult.summary` plus ``"root"`` (the Span
        tree), ``"text"`` (rendered tree), ``"json"`` (export dict) and, when
        kernels fired, ``"compressed"``. ``queue_wait_ms`` is the
        admission-queue wait passed through to :meth:`query` (0.0 outside a
        serving context) and ``total_ms`` is wait + execute, so serving
        latency decomposes in the report itself.
        """
        if analyze:
            result = self.query(
                query,
                strategy=strategy,
                trace=True,
                timeout_ms=timeout_ms,
                cancel=cancel,
                queue_wait_ms=queue_wait_ms,
            )
            report = result.summary()
            report.update(
                root=result.spans,
                text=render_span_tree(result.spans, self.constants),
                json=result.spans.to_dict(self.constants),
            )
            if result.stats.compressed_scans or result.stats.morphs:
                report["compressed"] = {
                    "kernel_scans": result.stats.compressed_scans,
                    "morphs": result.stats.morphs,
                }
            return report
        projection = self.sources(query)
        best, predictions = choose_strategy(
            projection, query, constants=self.constants, resident=resident,
            pending=self.pending_writes(projection, query),
        )
        report = {
            "chosen": best.value,
            "predictions": {
                s.value: p.total_ms for s, p in predictions.items()
            },
            "details": predictions,
        }
        if isinstance(query, SelectQuery) and projection.is_partitioned:
            from .planner.partitioned import prune_partitions

            survivors, total = prune_partitions(projection, query)
            report["partitions"] = {
                "total": total,
                "scanned": len(survivors),
                "pruned": total - len(survivors),
                "survivors": [p.name for p in survivors],
            }
        return report

    def _decoders(self, projection: Projection, columns) -> dict:
        out = {}
        for col in columns:
            if col in projection.columns:
                schema = projection.schema(col)
                if schema.dictionary or schema.ctype.name == "date":
                    out[col] = schema.decode_value
        return out
