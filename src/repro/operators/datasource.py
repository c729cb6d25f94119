"""Data-source operators: the paper's DS cases 1-4 plus SPC.

Each operator reads a column through the buffer pool block by block and
increments the stats counters matching its cost formula (Figures 1-3, 6 of
the paper):

* DS1 — scan + predicate -> positions (LM leaf).
* DS2 — scan + predicate -> (position, value) tuples (EM-pipelined leaf).
* DS3 — positions -> values (LM re-access; free of I/O under multi-columns).
* DS4 — (pos, values...) tuples + predicate -> wider tuples (EM-pipelined).
* SPC — scan all columns, predicate, construct (EM-parallel leaf).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import UnsupportedOperationError
from ..multicolumn import MiniColumn
from ..positions import (
    BitmapPositions,
    ListedPositions,
    PositionSet,
    RangePositions,
    RunPositions,
    from_mask,
    union_all,
)
from ..predicates import Predicate
from ..storage.column_file import ColumnFile
from .base import ExecutionContext, gather_values, position_groups
from .tuples import POSITION_COLUMN, TupleSet


def _concat_position_sets(parts: list[PositionSet], n_rows: int) -> PositionSet:
    """Combine per-block (disjoint, ascending) position sets into one global set."""
    parts = [p for p in parts if not p.is_empty()]
    if not parts:
        return RangePositions.empty()
    if len(parts) == 1:
        return parts[0]
    if any(isinstance(p, RunPositions) for p in parts) and all(
        isinstance(p, (RangePositions, RunPositions)) for p in parts
    ):
        # Compressed scans emit per-block run lists; glue them without ever
        # expanding to per-position arrays (blocks are disjoint and
        # ascending, so a plain concatenation preserves the invariant).
        starts = np.concatenate(
            [
                np.array([p.start], dtype=np.int64)
                if isinstance(p, RangePositions)
                else p.starts
                for p in parts
            ]
        )
        stops = np.concatenate(
            [
                np.array([p.stop], dtype=np.int64)
                if isinstance(p, RangePositions)
                else p.stops
                for p in parts
            ]
        )
        return RunPositions.from_runs(starts, stops)
    if all(isinstance(p, RangePositions) for p in parts):
        glued = []
        for p in parts:
            if glued and glued[-1].stop == p.start:
                glued[-1] = RangePositions(glued[-1].start, p.stop)
            else:
                glued.append(RangePositions(p.start, p.stop))
        if len(glued) == 1:
            return glued[0]
        parts = glued
    arrays = [p.to_array() for p in parts]
    merged = np.concatenate(arrays)
    lo, hi = int(merged[0]), int(merged[-1])
    span = hi - lo + 1
    if merged.size == span:
        return RangePositions(lo, hi + 1)
    if merged.size < span / 64:
        return ListedPositions(merged, assume_sorted=True)
    mask = np.zeros(span, dtype=bool)
    mask[merged - lo] = True
    return BitmapPositions.from_mask(lo, mask)


@dataclass
class ScanResult:
    """Output of a DS1/DS3 scan: surviving positions plus optional extras."""

    positions: PositionSet
    minicolumn: MiniColumn | None = None
    values: np.ndarray | None = None


class DS1Scan:
    """DS Case 1: scan a column, apply a predicate, output positions.

    With ``ctx.use_multicolumns`` the payloads touched are pinned into a
    mini-column so later value extraction never re-reads the column.

    When the column has a clustered index and the predicate resolves to a
    single position range, the scan is skipped entirely — "the original
    column values never have to be accessed" (paper Section 2.1.1).
    """

    def __init__(
        self,
        ctx: ExecutionContext,
        column_file: ColumnFile,
        predicate: Predicate,
        skip_blocks: bool = True,
        index=None,
    ):
        self.ctx = ctx
        self.column_file = column_file
        self.predicate = predicate
        self.skip_blocks = skip_blocks
        self.index = index

    def _index_positions(self) -> PositionSet | None:
        if self.index is None or not self.ctx.use_indexes:
            return None
        parts = getattr(self.predicate, "predicates", (self.predicate,))
        result: PositionSet | None = None
        for part in parts:
            in_values = getattr(part, "in_values", None)
            if in_values is not None:
                # IN over a clustered column: one range per listed value,
                # OR-ed together (the paper's bitmap-index OR, on ranges).
                hit = union_all(
                    [self.index.lookup_range(v, v) for v in in_values]
                )
            else:
                hit = self.index.lookup(part)
            if hit is None:
                return None
            result = hit if result is None else result.intersect(hit)
        return result

    def execute(self) -> ScanResult:
        ctx, cf, pred = self.ctx, self.column_file, self.predicate
        stats = ctx.stats
        span = ctx.begin("DS1")
        from_index = self._index_positions()
        if from_index is not None:
            stats.extra["index_lookups"] = (
                stats.extra.get("index_lookups", 0) + 1
            )
            if span is not None:
                ctx.end(
                    span,
                    column=cf.column,
                    predicate=str(pred),
                    via="index",
                    positions=from_index.count(),
                )
            return ScanResult(positions=from_index, minicolumn=None)
        # Imported lazily: the kernels pull in the model package, which
        # reaches back into the operators during its own initialisation.
        from ..compressed.kernels import has_kernel, scan_block_compressed

        mini = MiniColumn(cf) if ctx.use_multicolumns else None
        parts: list[PositionSet] = []
        for desc in cf.descriptors:
            if self.skip_blocks and not pred.overlaps_range(
                desc.min_value, desc.max_value
            ):
                stats.blocks_skipped += 1
                continue
            payload = ctx.read_block(cf, desc.index)
            if mini is not None:
                mini.pin(desc, payload)
            steps = (
                desc.n_values
                if ctx.decompress_eagerly
                else cf.encoding.stats_run_count(payload, desc)
            )
            stats.values_scanned += desc.n_values
            stats.column_iterations += steps
            stats.function_calls += steps  # predicate application per step
            block_positions = None
            if ctx.compressed and has_kernel(cf.encoding.name):
                # Compressed execution: evaluate the predicate in the block's
                # encoded domain (run table / code table / FOR offsets). The
                # kernel returns None when the stay-vs-morph model says the
                # decoded path below is cheaper — that fall-through *is* the
                # morph, served by the same decoded cache as the fast path.
                block_positions = scan_block_compressed(
                    ctx, cf, desc, payload, pred
                )
                if block_positions is not None:
                    stats.compressed_scans += 1
                else:
                    stats.morphs += 1
            if block_positions is None:
                if (
                    ctx.decoded is not None
                    and cf.encoding.decoded_scan_equivalent
                ):
                    # Scan fast-path (and the morph target of the kernel
                    # dispatch above): mask the cached decoded array.
                    # Produces the same positions in the same representation
                    # as the codec's own scan, but skips the per-block
                    # decode/expand kernel on every warm access.
                    values = ctx.decode_payload(cf, desc, payload)
                    block_positions = from_mask(
                        desc.start_pos, pred.mask(values)
                    )
                else:
                    block_positions = cf.encoding.scan_positions(
                        payload, desc, cf.dtype, pred
                    )
            stats.function_calls += block_positions.count()  # emit matches
            parts.append(block_positions)
        positions = _concat_position_sets(parts, cf.n_values)
        if span is not None:
            ctx.end(
                span,
                column=cf.column,
                predicate=str(pred),
                via="scan",
                positions=positions.count(),
            )
        return ScanResult(positions=positions, minicolumn=mini)


class DS2Scan:
    """DS Case 2: scan + predicate, output (position, value) pair tuples."""

    def __init__(
        self,
        ctx: ExecutionContext,
        column_file: ColumnFile,
        predicate: Predicate | None,
        skip_blocks: bool = True,
    ):
        self.ctx = ctx
        self.column_file = column_file
        self.predicate = predicate
        self.skip_blocks = skip_blocks

    def execute(self) -> TupleSet:
        ctx, cf, pred = self.ctx, self.column_file, self.predicate
        stats = ctx.stats
        span = ctx.begin("DS2")
        pos_parts: list[np.ndarray] = []
        val_parts: list[np.ndarray] = []
        for desc in cf.descriptors:
            if (
                self.skip_blocks
                and pred is not None
                and not pred.overlaps_range(desc.min_value, desc.max_value)
            ):
                stats.blocks_skipped += 1
                continue
            payload = ctx.read_block(cf, desc.index)
            steps = (
                desc.n_values
                if ctx.decompress_eagerly
                else cf.encoding.stats_run_count(payload, desc)
            )
            stats.values_scanned += desc.n_values
            stats.column_iterations += steps
            stats.function_calls += steps
            if ctx.decoded is not None and cf.encoding.decoded_pairs_equivalent:
                # Scan fast-path: pairs from the cached decoded array — one
                # decode per block ever, instead of one per scan.
                values = ctx.decode_payload(cf, desc, payload)
                if pred is None:
                    positions = np.arange(
                        desc.start_pos, desc.end_pos, dtype=np.int64
                    )
                else:
                    local = np.flatnonzero(pred.mask(values))
                    positions = local + desc.start_pos
                    values = values[local]
            else:
                block_positions, values = cf.encoding.scan_pairs(
                    payload, desc, cf.dtype, pred
                )
                positions = block_positions.to_array()
            matched = len(values)
            # Gluing positions and values together costs TICTUP + FC per
            # surviving tuple (Case 2, step 5).
            stats.tuple_iterations += matched
            stats.function_calls += matched
            pos_parts.append(positions)
            val_parts.append(values)
        pos = (
            np.concatenate(pos_parts) if pos_parts else np.empty(0, dtype=np.int64)
        )
        vals = (
            np.concatenate(val_parts)
            if val_parts
            else np.empty(0, dtype=cf.dtype)
        )
        result = TupleSet.stitch(
            {POSITION_COLUMN: pos, cf.column: vals}, stats=stats
        )
        if span is not None:
            ctx.end(
                span,
                column=cf.column,
                predicate=str(pred) if pred is not None else None,
                tuples=len(pos),
            )
        return result


class DS3Gather:
    """DS Case 3: extract a column's values at a list of positions.

    Optionally applies a predicate to the extracted values (the LM-pipelined
    inner step), returning the narrowed positions alongside the values.
    """

    def __init__(
        self,
        ctx: ExecutionContext,
        column_file: ColumnFile,
        positions: PositionSet,
        minicolumn: MiniColumn | None = None,
        predicate: Predicate | None = None,
    ):
        if predicate is not None and not column_file.encoding.supports_position_filtering:
            raise UnsupportedOperationError(
                f"DS3 cannot position-filter a {column_file.encoding.name} column"
            )
        self.ctx = ctx
        self.column_file = column_file
        self.positions = positions
        self.minicolumn = minicolumn
        self.predicate = predicate

    def execute(self) -> ScanResult:
        ctx, cf = self.ctx, self.column_file
        stats = ctx.stats
        span = ctx.begin("DS3" if self.predicate is None else "DS3+filter")
        groups = position_groups(self.positions)
        if cf.encoding.supports_runs and not ctx.decompress_eagerly:
            # Extraction from run-length data jumps run to run, not value to
            # value (searchsorted over run starts): the per-step count is
            # bounded by the runs touched — operating directly on compressed
            # data, the heart of the Figure 11(b) result.
            run_bound = (
                int(self.positions.count() / max(cf.avg_run_length, 1.0))
                + cf.n_blocks
            )
            groups = min(groups, run_bound)
        # Case 3 steps 3+4: iterate the position list, jump and extract.
        stats.column_iterations += 2 * groups
        stats.function_calls += groups
        positions = self.positions
        if not isinstance(positions, RangePositions):
            # Expand once; the gather and the filter below share the array.
            positions = ListedPositions(positions.to_array(), assume_sorted=True)
        values = gather_values(ctx, cf, positions, minicolumn=self.minicolumn)
        if self.predicate is None:
            if span is not None:
                ctx.end(
                    span,
                    column=cf.column,
                    positions=len(values),
                    pinned=self.minicolumn is not None,
                )
            return ScanResult(
                positions=self.positions, minicolumn=self.minicolumn, values=values
            )
        keep = np.flatnonzero(self.predicate.mask(values))
        stats.function_calls += len(values)
        stats.values_scanned += len(values)
        kept = positions.to_array()[keep]
        if span is not None:
            ctx.end(
                span,
                column=cf.column,
                predicate=str(self.predicate),
                positions_in=len(values),
                positions_out=len(keep),
            )
        return ScanResult(
            positions=ListedPositions(kept, assume_sorted=True)
            if kept.size
            else RangePositions.empty(),
            minicolumn=self.minicolumn,
            values=values[keep],
        )


class DS4Scan:
    """DS Case 4: extend EM tuples with one more column, filtering as we go."""

    def __init__(
        self,
        ctx: ExecutionContext,
        column_file: ColumnFile,
        predicate: Predicate | None,
        tuples: TupleSet,
    ):
        self.ctx = ctx
        self.column_file = column_file
        self.predicate = predicate
        self.tuples = tuples

    def execute(self) -> TupleSet:
        ctx, cf = self.ctx, self.column_file
        stats = ctx.stats
        span = ctx.begin("DS4")
        tuples = self.tuples
        n_em = tuples.n_tuples
        positions = tuples.positions
        # Case 4 steps 3-4: iterate EM tuples, jump into the column.
        stats.tuple_iterations += 2 * n_em
        stats.function_calls += 2 * n_em
        values = gather_values(ctx, cf, positions)
        if self.predicate is not None:
            mask = self.predicate.mask(values)
            stats.values_scanned += n_em
            result = tuples.filter_extend(mask, cf.column, values, stats=stats)
        else:
            result = tuples.extend(cf.column, values, stats=stats)
        matched = result.n_tuples
        stats.tuple_iterations += matched  # step 5: output <e, t>
        if span is not None:
            ctx.end(
                span,
                column=cf.column,
                predicate=str(self.predicate) if self.predicate is not None else None,
                tuples_in=n_em,
                tuples_out=matched,
            )
        return result


class SPCScan:
    """Scan/Predicate/Construct: the EM-parallel leaf (paper Figure 6).

    Reads and processes *every* block of *every* input column, applies the
    predicates column-at-a-time with short-circuiting, then constructs tuples
    for the rows passing all predicates.
    """

    def __init__(
        self,
        ctx: ExecutionContext,
        column_files: dict[str, ColumnFile],
        predicates: list[Predicate],
        with_positions: bool = False,
    ):
        self.ctx = ctx
        self.column_files = column_files
        self.predicates = predicates
        self.with_positions = with_positions

    @staticmethod
    def _decode_full(ctx: ExecutionContext, cf: ColumnFile) -> np.ndarray:
        stats = ctx.stats
        parts = []
        for desc in cf.descriptors:
            payload = ctx.read_block(cf, desc.index)
            stats.column_iterations += (
                desc.n_values
                if ctx.decompress_eagerly
                else cf.encoding.stats_run_count(payload, desc)
            )
            parts.append(ctx.decode_payload(cf, desc, payload))
        if not parts:
            return np.empty(0, dtype=cf.dtype)
        return np.concatenate(parts)

    def execute(self) -> TupleSet:
        stats = self.ctx.stats
        span = self.ctx.begin("SPC")
        # The per-column full scans are SPC's independent leaves: no data
        # dependencies, so the scheduler (when configured) overlaps them.
        names = list(self.column_files)
        arrays = self.ctx.map_leaves(
            [
                (lambda leaf_ctx, cf=cf: self._decode_full(leaf_ctx, cf))
                for cf in self.column_files.values()
            ]
        )
        decoded = dict(zip(names, arrays))
        preds_by_column: dict[str, list[Predicate]] = {}
        for pred in self.predicates:
            preds_by_column.setdefault(pred.column, []).append(pred)

        n_rows = min((len(v) for v in decoded.values()), default=0)
        mask = np.ones(n_rows, dtype=bool)
        # Step 4: check predicates, each column only over rows still alive.
        for name, preds in preds_by_column.items():
            values = decoded[name]
            alive = int(mask.sum())
            stats.function_calls += alive
            stats.values_scanned += alive
            for pred in preds:
                mask &= pred.mask(values)

        keep = np.flatnonzero(mask)
        stitched = {name: decoded[name][keep] for name in self.column_files}
        if self.with_positions:
            stitched = {POSITION_COLUMN: keep} | stitched
        result = TupleSet.stitch(stitched, stats=stats)
        # Step 5: constructing each surviving tuple is a tuple-iterator step.
        stats.tuple_iterations += result.n_tuples
        if span is not None:
            self.ctx.end(
                span,
                columns=list(self.column_files),
                predicates=[str(p) for p in self.predicates],
                tuples=result.n_tuples,
            )
        return result
