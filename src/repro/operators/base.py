"""Execution context and shared positional-gather helper."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from ..buffer import BufferPool, DecodedBlockCache
from ..metrics import QueryStats
from ..multicolumn import MiniColumn
from ..observe import Span, SpanTracer
from ..positions import PositionSet, RangePositions, RunPositions
from ..storage.block import BlockDescriptor
from ..storage.column_file import ColumnFile

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from ..model.constants import ModelConstants
    from .scheduler import ScanScheduler


@dataclass
class ExecutionContext:
    """Everything operators share during one query execution.

    Attributes:
        pool: buffer pool all block reads go through.
        stats: counters mirrored from the analytical model's cost terms.
        use_multicolumns: when True (the paper's optimised LM), scans pin the
            blocks they read into mini-columns so downstream positional access
            never re-touches the buffer pool.
    """

    pool: BufferPool
    stats: QueryStats = field(default_factory=QueryStats)
    use_multicolumns: bool = True
    use_indexes: bool = True
    #: MonetDB/X100-style execution (paper Section 5's contrast): scans
    #: decompress data into the cache immediately, so downstream operators
    #: never work on compressed representations. Costs are charged per value
    #: instead of per run. Used by the selection-vectors ablation.
    decompress_eagerly: bool = False
    #: Second cache level of the scan fast-path: decoded value arrays and RLE
    #: run tables, shared across queries. None disables the fast path (every
    #: block access re-runs the decode kernel, the pre-cache behaviour).
    decoded: DecodedBlockCache | None = None
    #: Compressed execution: DS1 scans dispatch to per-encoding kernels
    #: (``repro.compressed``) and the LM aggregation tail consumes run
    #: tables / code histograms directly. Off implies every block takes the
    #: decoded path (the pre-kernel behaviour); ``decompress_eagerly``
    #: contexts always run with this off (``__post_init__`` enforces it).
    compressed: bool = True
    #: Model constants the stay-vs-morph decisions are costed with; shared
    #: with everything else replaying the analytical model. ``None`` (a bare
    #: context) resolves to the paper constants at kernel-dispatch time.
    constants: "ModelConstants | None" = None
    #: When set, the parallel strategies hand their independent scan leaves
    #: to this scheduler instead of running them serially.
    scheduler: "ScanScheduler | None" = None
    #: When not None, operators record structured spans here — the
    #: observability hook behind ``Database.query(..., trace=True)``
    #: (EXPLAIN ANALYZE). None keeps the hot path untouched (``begin``
    #: returns None without allocating).
    tracer: SpanTracer | None = None
    #: Storage-failure policy: ``"fail"`` (default) aborts the query on the
    #: first unrecovered error, bit-for-bit the pre-fault-layer contract;
    #: ``"degrade"`` quarantines a failing partition and completes the query
    #: over the survivors, marking the result degraded.
    on_error: str = "fail"
    #: Session-scoped quarantine registry (shared with the Database); only
    #: consulted/updated when ``on_error == "degrade"``.
    quarantine: "object | None" = None
    #: Names of partitions this query skipped (already-quarantined ones plus
    #: any newly quarantined mid-query), in partition order. The engine
    #: surfaces a non-empty list as ``QueryResult.degraded``.
    skipped_partitions: list = field(default_factory=list)
    #: Cooperative cancellation/deadline token (:mod:`repro.cancel`),
    #: consulted on every block access. ``None`` (the default) keeps the
    #: hot path to a single identity check.
    cancel: "object | None" = None

    def __post_init__(self) -> None:
        # Eager decompression is the "never operate on compressed data"
        # ablation; compressed execution is meaningless (and wrong) there.
        if self.decompress_eagerly:
            self.compressed = False

    def begin(self, operator: str) -> Span | None:
        """Open a span for one operator application (None when not tracing).

        Operators guard the matching :meth:`end` with ``if span is not
        None`` so detail kwargs are never even evaluated untraced.
        """
        if self.tracer is None:
            return None
        return self.tracer.begin(operator)

    def end(self, span: Span | None, **detail) -> None:
        """Close a span opened by :meth:`begin`; no-op for None."""
        if span is not None:
            self.tracer.end(span, **detail)

    def abort(self, span: Span | None, error: BaseException, **detail) -> None:
        """Close *span* (and anything still open inside it) as errored.

        The degraded-execution path uses this when it swallows a partition's
        failure: the subtree the exception cut short is truncated in place
        while the rest of the query keeps tracing. No-op when untraced.
        """
        if span is not None:
            self.tracer.unwind(span, error, **detail)

    def read_block(self, column_file: ColumnFile, index: int) -> bytes:
        """Fetch one block payload through the buffer pool, counting a BIC step.

        The tracer rides along so a transient-fault retry inside the pool
        shows up as a ``RETRY`` span under the reading operator.

        This is also the cancellation point: a tripped or expired
        :class:`~repro.cancel.CancelToken` raises here, at a block boundary,
        so a cancelled query unwinds without ever producing a partial
        result.
        """
        if self.cancel is not None:
            self.cancel.check()
        self.stats.block_iterations += 1
        return self.pool.get(column_file, index, self.stats, tracer=self.tracer)

    # ---------------------------------------------------- scan fast-path

    def decode_payload(
        self, column_file: ColumnFile, desc: BlockDescriptor, payload: bytes
    ) -> np.ndarray:
        """Decoded values of one block, served from the decoded cache if on.

        The caller must have fetched *payload* through :meth:`read_block`
        (or a mini-column pin of it) first, so I/O accounting is identical
        whether or not the decode itself is skipped.
        """
        if self.decoded is None:
            return column_file.encoding.decode(payload, desc, column_file.dtype)
        return self.decoded.values(column_file, desc, payload, self.stats)

    def run_table(
        self, column_file: ColumnFile, desc: BlockDescriptor, payload: bytes
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One block's ``(values, starts, lengths)`` run view, cached when on."""
        if self.decoded is None:
            return column_file.encoding.runs(payload, desc, column_file.dtype)
        return self.decoded.runs(column_file, desc, payload, self.stats)

    def code_table(
        self, column_file: ColumnFile, desc: BlockDescriptor, payload: bytes
    ) -> tuple[np.ndarray, np.ndarray]:
        """One block's dictionary ``(distinct, codes)`` view, cached when on."""
        if self.decoded is None:
            return column_file.encoding.code_table(payload)
        return self.decoded.codes(column_file, desc, payload, self.stats)

    def for_span(
        self, column_file: ColumnFile, desc: BlockDescriptor, payload: bytes
    ):
        """One block's parsed FOR span, cached when on."""
        if self.decoded is None:
            return column_file.encoding.parse_span(payload)
        return self.decoded.for_span(column_file, desc, payload, self.stats)

    def gather_block(
        self,
        column_file: ColumnFile,
        desc: BlockDescriptor,
        payload: bytes,
        positions: "np.ndarray | range",
    ) -> np.ndarray:
        """Values at absolute *positions* (all within this block).

        Positions may come in any order, duplicates too, except for a
        run-length block served from the decoded cache: that one expands
        by structure and needs them sorted.

        With the decoded cache on, run-length blocks expand the cached run
        table by structure (:func:`repeat_by_run`) and every other encoding
        indexes the cached decoded array — for bit-vector data this turns the
        per-gather full decompression into a one-time cost. A contiguous
        ``range`` of positions is a slice of that array, not a fancy index.
        """
        encoding = column_file.encoding
        contiguous = isinstance(positions, range)
        if self.decoded is not None and not encoding.supports_runs:
            values = self.decode_payload(column_file, desc, payload)
            if contiguous:
                return values[
                    positions.start - desc.start_pos : positions.stop - desc.start_pos
                ]
            return values[positions - desc.start_pos]
        if contiguous:
            positions = np.arange(positions.start, positions.stop, dtype=np.int64)
        if self.decoded is None:
            return encoding.gather(payload, desc, column_file.dtype, positions)
        values, starts, _lengths = self.run_table(column_file, desc, payload)
        return repeat_by_run(starts, positions, values)

    # ------------------------------------------------- parallel scan leaves

    def leaf(self) -> "ExecutionContext":
        """A child context for one concurrent scan leaf.

        Shares the pool and decoded cache; gets private stats and span
        tracer (the scheduler merges stats and adopts spans in task order)
        and no scheduler of its own so leaves never nest.
        """
        stats = QueryStats()
        return ExecutionContext(
            pool=self.pool,
            stats=stats,
            use_multicolumns=self.use_multicolumns,
            use_indexes=self.use_indexes,
            decompress_eagerly=self.decompress_eagerly,
            decoded=self.decoded,
            compressed=self.compressed,
            constants=self.constants,
            scheduler=None,
            tracer=SpanTracer(stats) if self.tracer is not None else None,
            on_error=self.on_error,
            quarantine=self.quarantine,
            cancel=self.cancel,
        )

    def map_leaves(
        self, tasks: Sequence[Callable[["ExecutionContext"], object]]
    ) -> list:
        """Run independent scan leaves, concurrently when a scheduler is set.

        Serial fallback executes the tasks in order against this context
        itself, which is bit-identical to the pre-scheduler behaviour.
        """
        if self.scheduler is None or len(tasks) < 2:
            return [task(self) for task in tasks]
        return self.scheduler.run(self, tasks)


def position_groups(positions) -> int:
    """The model's ``||POSLIST|| / RLp``: iterator steps over a position list.

    A contiguous range is one group; a run list is one group per run (the
    structure is explicit, so jumping run to run is free to detect);
    listed/bitmap representations are charged one step per contained
    position (runs inside them are not free to detect).
    """
    if isinstance(positions, RangePositions):
        return 1 if positions.count() else 0
    if isinstance(positions, RunPositions):
        return positions.n_runs
    return positions.count()


def repeat_by_run(
    starts: np.ndarray, positions: np.ndarray, per_run: np.ndarray
) -> np.ndarray:
    """``per_run[i]`` for each of the sorted *positions*, ``i`` being its run.

    Gathers by structure: the shorter of the two sorted arrays is searched
    into the longer. A dense gather (runs ≪ positions, every warm scan)
    locates the few run starts among the positions and repeats each run's
    entry over the positions it holds — O(runs·log n + n), not a binary
    search per position; a sparse one (a selective read touching a block of
    many short runs) looks its few positions up in the run table. Duplicate
    positions land in the same run and repeat with it. No position may
    precede ``starts[0]``.
    """
    if len(positions) < len(starts):
        return per_run[np.searchsorted(starts, positions, side="right") - 1]
    cuts = np.empty(len(starts) + 1, dtype=np.intp)
    cuts[:-1] = np.searchsorted(positions, starts, side="left")
    cuts[-1] = len(positions)
    return np.repeat(per_run, cuts[1:] - cuts[:-1])


def gather_values(
    ctx: ExecutionContext,
    column_file: ColumnFile,
    positions: "np.ndarray | PositionSet",
    minicolumn: MiniColumn | None = None,
    on_the_fly: bool = False,
) -> np.ndarray:
    """DS3 inner loop: values of *column_file* at absolute *positions*.

    A :class:`~repro.positions.PositionSet` is sorted by construction, and a
    contiguous :class:`~repro.positions.RangePositions` is never expanded:
    each block serves its share as a slice.

    Handles unsorted position arrays (the join re-extraction case): they are
    sorted for block-cursor access and the result scattered back, and the
    sort is charged at ``n log n`` function calls — the paper's penalty for
    "out of order positions" after a join ("a merge-join on position cannot
    be used"). With ``on_the_fly=True`` the positions are extracted the
    moment they are produced (the multi-column join's per-match extraction),
    so no positional join happens and no sort penalty is charged — one direct
    jump per position instead: positions are bucketed by block (a stable
    radix sort of their narrow block ids, never a comparison sort of the
    positions), and only a run-length block served from the decoded cache,
    whose gather needs sorted positions, sorts its own share.

    When *minicolumn* pins the needed blocks, no buffer-pool access happens at
    all (the multi-column optimization); otherwise blocks covering positions
    are fetched through the pool (hits when the query is properly pipelined)
    and blocks covering no position are skipped.
    """
    stats = ctx.stats
    presorted = isinstance(positions, PositionSet)
    contiguous = isinstance(positions, RangePositions)
    if contiguous:
        positions = range(positions.start, positions.stop)
    elif presorted:
        positions = positions.to_array()
    n = len(positions)
    if n == 0:
        return np.empty(0, dtype=column_file.dtype)

    order = None
    sorted_positions = positions
    sort_shares = False
    if n > 1 and not presorted and not _is_sorted(positions):
        if on_the_fly:
            stats.function_calls += n  # one direct jump per match
            # Bucketed by block, the positions are partitioned at every block
            # end, which is all the cursor search below needs.
            ends = np.fromiter(
                (d.end_pos for d in column_file.descriptors), np.int64,
                len(column_file.descriptors),
            )
            block_of = np.searchsorted(ends, positions, side="right")
            # Narrowest dtype: a stable sort of <= 16-bit integers is a radix sort.
            order = np.argsort(
                block_of.astype(np.min_scalar_type(len(ends))), kind="stable"
            )
            sort_shares = (
                ctx.decoded is not None and column_file.encoding.supports_runs
            )
        else:
            # A full positional re-join: sort, jump per position, scatter.
            order = np.argsort(positions, kind="stable")
            stats.function_calls += int(n * max(np.log2(n), 1.0))
            stats.column_iterations += 2 * n
            stats.extra["out_of_order_gathers"] = (
                stats.extra.get("out_of_order_gathers", 0) + n
            )
        sorted_positions = positions[order]

    out = np.empty(n, dtype=column_file.dtype)
    cursor = 0
    for desc in column_file.descriptors:
        if cursor >= n:
            break
        if contiguous:
            hi = min(max(desc.end_pos - sorted_positions.start, 0), n)
        else:
            hi = int(np.searchsorted(sorted_positions, desc.end_pos, side="left"))
        if hi <= cursor:
            stats.blocks_skipped += 1
            continue
        chunk = sorted_positions[cursor:hi]
        if minicolumn is not None and minicolumn.has_block(desc.index):
            payload = minicolumn.payload(desc.index)
            stats.block_iterations += 1
        else:
            payload = ctx.read_block(column_file, desc.index)
        if sort_shares:
            local = np.argsort(chunk, kind="stable")
            out[cursor:hi][local] = ctx.gather_block(
                column_file, desc, payload, chunk[local]
            )
        else:
            out[cursor:hi] = ctx.gather_block(column_file, desc, payload, chunk)
        cursor = hi

    if order is not None:
        unsorted = np.empty(n, dtype=column_file.dtype)
        unsorted[order] = out
        out = unsorted
    return out


def _is_sorted(arr: np.ndarray) -> bool:
    return bool(np.all(arr[1:] >= arr[:-1]))
