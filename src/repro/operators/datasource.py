"""Data-source operators: the paper's DS cases 1-4 plus SPC.

Each is a function that reads a column through the buffer pool block by
block and increments the stats counters matching its cost formula
(Figures 1-3, 6 of the paper):

* :func:`ds1_scan` — scan + predicate -> positions (LM leaf).
* :func:`ds2_scan` — scan + predicate -> (position, value) tuples
  (EM-pipelined leaf).
* :func:`ds3_gather` — positions -> values (LM re-access; free of I/O under
  multi-columns); :func:`ds3_filter` — positions + predicate -> the
  positions whose values pass (LM-pipelined).
* :func:`ds4_extend` — (pos, values...) tuples + predicate -> wider tuples
  (EM-pipelined).
* :func:`spc_scan` — scan all columns, predicate, construct (EM-parallel
  leaf).
"""

from __future__ import annotations

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


def _index_positions(ctx: ExecutionContext, index, predicate) -> PositionSet | None:
    """The positions a clustered *index* resolves *predicate* to, or None
    when there is no usable index or a part of the predicate needs a scan."""
    if index is None or not ctx.use_indexes:
        return None
    result: PositionSet | None = None
    for part in getattr(predicate, "predicates", (predicate,)):
        in_values = getattr(part, "in_values", None)
        if in_values is not None:
            # IN over a clustered column: one range per listed value,
            # OR-ed together (the paper's bitmap-index OR, on ranges).
            hit = union_all([index.lookup_range(v, v) for v in in_values])
        else:
            hit = index.lookup(part)
        if hit is None:
            return None
        result = hit if result is None else result.intersect(hit)
    return result


def ds1_scan(
    ctx: ExecutionContext, cf: ColumnFile, pred: Predicate, index=None
) -> tuple[PositionSet, MiniColumn | None]:
    """DS Case 1: scan a column, apply a predicate, output positions, with
    the mini-column of the payloads touched when ``ctx.use_multicolumns``
    (so later value extraction never re-reads the column).

    Blocks whose min/max cannot match are skipped. When the column has a
    clustered *index* and the predicate resolves to position ranges, the
    scan is skipped entirely — "the original column values never have to
    be accessed" (paper Section 2.1.1).
    """
    stats = ctx.stats
    span = ctx.begin("DS1")
    from_index = _index_positions(ctx, index, pred)
    if from_index is not None:
        stats.extra["index_lookups"] = stats.extra.get("index_lookups", 0) + 1
        if span is not None:
            ctx.end(
                span,
                column=cf.column,
                predicate=str(pred),
                via="index",
                positions=from_index.count(),
            )
        return from_index, None
    # Imported lazily: the kernels pull in the model package, which
    # reaches back into the operators during its own initialisation.
    from ..compressed.kernels import has_kernel, scan_block_compressed

    mini = MiniColumn(cf) if ctx.use_multicolumns else None
    parts: list[PositionSet] = []
    for desc in cf.descriptors:
        if not pred.overlaps_range(desc.min_value, desc.max_value):
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
            block_positions = scan_block_compressed(ctx, cf, desc, payload, pred)
            if block_positions is not None:
                stats.compressed_scans += 1
            else:
                stats.morphs += 1
        if block_positions is None:
            if ctx.decoded is not None and cf.encoding.decoded_scan_equivalent:
                # Scan fast-path (and the morph target of the kernel
                # dispatch above): mask the cached decoded array. Produces
                # the same positions in the same representation as the
                # codec's own scan, but skips the per-block decode/expand
                # kernel on every warm access.
                values = ctx.decode_payload(cf, desc, payload)
                block_positions = from_mask(desc.start_pos, pred.mask(values))
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
    return positions, mini


def ds2_scan(
    ctx: ExecutionContext, cf: ColumnFile, pred: Predicate | None
) -> TupleSet:
    """DS Case 2: scan + predicate, output (position, value) pair tuples;
    blocks whose min/max cannot match are skipped."""
    stats = ctx.stats
    span = ctx.begin("DS2")
    pos_parts: list[np.ndarray] = []
    val_parts: list[np.ndarray] = []
    for desc in cf.descriptors:
        if pred is not None and not pred.overlaps_range(
            desc.min_value, desc.max_value
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
                positions = np.arange(desc.start_pos, desc.end_pos, dtype=np.int64)
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
    pos = np.concatenate(pos_parts) if pos_parts else np.empty(0, dtype=np.int64)
    vals = np.concatenate(val_parts) if val_parts else np.empty(0, dtype=cf.dtype)
    result = TupleSet.stitch({POSITION_COLUMN: pos, cf.column: vals}, stats=stats)
    if span is not None:
        ctx.end(
            span,
            column=cf.column,
            predicate=str(pred) if pred is not None else None,
            tuples=len(pos),
        )
    return result


def _extract(
    ctx: ExecutionContext,
    cf: ColumnFile,
    positions: PositionSet,
    minicolumn: MiniColumn | None,
) -> tuple[PositionSet, np.ndarray]:
    """DS Case 3 steps 3+4: iterate the position list, jump and extract.
    Returns the positions (a range, or listed: expanded once, so a filter
    shares the gather's array) and the values at them."""
    stats = ctx.stats
    groups = position_groups(positions)
    if cf.encoding.supports_runs and not ctx.decompress_eagerly:
        # Extraction from run-length data jumps run to run, not value to
        # value (searchsorted over run starts): the per-step count is
        # bounded by the runs touched — operating directly on compressed
        # data, the heart of the Figure 11(b) result.
        run_bound = (
            int(positions.count() / max(cf.avg_run_length, 1.0)) + cf.n_blocks
        )
        groups = min(groups, run_bound)
    stats.column_iterations += 2 * groups
    stats.function_calls += groups
    if not isinstance(positions, RangePositions):
        positions = ListedPositions(positions.to_array(), assume_sorted=True)
    return positions, gather_values(ctx, cf, positions, minicolumn=minicolumn)


def ds3_gather(
    ctx: ExecutionContext,
    cf: ColumnFile,
    positions: PositionSet,
    minicolumn: MiniColumn | None = None,
) -> np.ndarray:
    """DS Case 3: a column's values at *positions* (from the pinned
    *minicolumn* where it holds the block)."""
    span = ctx.begin("DS3")
    _positions, values = _extract(ctx, cf, positions, minicolumn)
    if span is not None:
        ctx.end(
            span,
            column=cf.column,
            positions=len(values),
            pinned=minicolumn is not None,
        )
    return values


def ds3_filter(
    ctx: ExecutionContext, cf: ColumnFile, positions: PositionSet, pred: Predicate
) -> PositionSet:
    """DS Case 3 with a predicate (the LM-pipelined inner step): the
    *positions* whose values pass *pred*."""
    if not cf.encoding.supports_position_filtering:
        raise UnsupportedOperationError(
            f"DS3 cannot position-filter a {cf.encoding.name} column"
        )
    stats = ctx.stats
    span = ctx.begin("DS3+filter")
    positions, values = _extract(ctx, cf, positions, None)
    keep = np.flatnonzero(pred.mask(values))
    stats.function_calls += len(values)
    stats.values_scanned += len(values)
    kept = positions.to_array()[keep]
    if span is not None:
        ctx.end(
            span,
            column=cf.column,
            predicate=str(pred),
            positions_in=len(values),
            positions_out=len(keep),
        )
    if not kept.size:
        return RangePositions.empty()
    return ListedPositions(kept, assume_sorted=True)


def ds4_extend(
    ctx: ExecutionContext,
    cf: ColumnFile,
    pred: Predicate | None,
    tuples: TupleSet,
) -> TupleSet:
    """DS Case 4: extend EM tuples with one more column, filtering as we go."""
    stats = ctx.stats
    span = ctx.begin("DS4")
    n_em = tuples.n_tuples
    # Case 4 steps 3-4: iterate EM tuples, jump into the column.
    stats.tuple_iterations += 2 * n_em
    stats.function_calls += 2 * n_em
    values = gather_values(ctx, cf, tuples.positions)
    if pred is not None:
        mask = pred.mask(values)
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
            predicate=str(pred) if pred is not None else None,
            tuples_in=n_em,
            tuples_out=matched,
        )
    return result


def _decode_full(ctx: ExecutionContext, cf: ColumnFile) -> np.ndarray:
    """Every value of *cf*, block by block (one of SPC's leaves)."""
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


def spc_scan(
    ctx: ExecutionContext,
    files: dict[str, ColumnFile],
    predicates: list[Predicate],
) -> TupleSet:
    """Scan/Predicate/Construct: the EM-parallel leaf (paper Figure 6).

    Reads and processes *every* block of *every* input column, applies the
    predicates column-at-a-time with short-circuiting, then constructs
    tuples for the rows passing all predicates.
    """
    stats = ctx.stats
    span = ctx.begin("SPC")
    # The per-column full scans are SPC's independent leaves: no data
    # dependencies, so the scheduler (when configured) overlaps them.
    arrays = ctx.map_leaves(
        [(lambda leaf_ctx, cf=cf: _decode_full(leaf_ctx, cf)) for cf in files.values()]
    )
    decoded = dict(zip(files, arrays))
    preds_by_column: dict[str, list[Predicate]] = {}
    for pred in predicates:
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
    result = TupleSet.stitch(
        {name: decoded[name][keep] for name in files}, stats=stats
    )
    # Step 5: constructing each surviving tuple is a tuple-iterator step.
    stats.tuple_iterations += result.n_tuples
    if span is not None:
        ctx.end(
            span,
            columns=list(files),
            predicates=[str(p) for p in predicates],
            tuples=result.n_tuples,
        )
    return result
