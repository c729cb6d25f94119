"""Per-encoding predicate kernels operating on compressed block data.

:func:`scan_block_compressed` is the DS1 dispatch point: given one block's
raw payload it evaluates the predicate in the block's *encoded* domain —

* **RLE** — compare once per run against the run-table values and emit the
  surviving ``(start, stop)`` pairs as a :class:`~repro.positions.RunPositions`
  set, never expanding a run;
* **dictionary** — translate the predicate into the code domain once (one
  compare per distinct value), then index the qualifying mask by the narrow
  code array;
* **FOR** — rebase the predicate constant by the block reference and compare
  the packed offsets directly, without widening to int64.

Each kernel first consults :mod:`repro.model.morph`: when the modelled cost
of staying compressed exceeds the decoded path (an RLE block with run-length
~1, a FOR predicate whose constant cannot rebase exactly), the kernel
returns ``None`` and the caller *morphs* — falls through to the decoded scan
path and counts a ``morphs`` stat. A successful kernel counts
``compressed_scans``.

The dispatch is a pure function of the block payload, the predicate, and the
model constants — never of cache state or scheduler parallelism — so the
choice is bit-identical across serial/parallel and cold/warm executions.

Row-identity contract: every kernel must select exactly the positions the
decoded reference path (`from_mask(start, predicate.mask(decode(...)))`)
selects; the differential harness gates this across all four strategies with
compressed execution on and off.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

import numpy as np

from ..model.constants import PAPER_CONSTANTS
from ..model.morph import (
    dictionary_scan_decision,
    for_scan_decision,
    rle_scan_decision,
)
from ..positions import PositionSet, RangePositions, RunPositions, from_mask

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from ..operators.base import ExecutionContext
    from ..storage.block import BlockDescriptor
    from ..storage.column_file import ColumnFile

#: Encodings with an operator kernel; DS1 counts a morph only for these
#: (an uncompressed or bit-vector block has nothing to stay compressed in).
KERNEL_ENCODINGS = frozenset({"rle", "dictionary", "for"})


def has_kernel(encoding_name: str) -> bool:
    """True when compressed execution has a predicate kernel for *encoding_name*."""
    return encoding_name in KERNEL_ENCODINGS


def scan_block_compressed(
    ctx: "ExecutionContext",
    column_file: "ColumnFile",
    desc: "BlockDescriptor",
    payload: bytes,
    predicate,
) -> PositionSet | None:
    """Evaluate *predicate* over one block in its encoded domain.

    Returns the matching positions, or ``None`` when the block should morph
    to the decoded path (no kernel, or the model says decoding is cheaper).
    """
    name = column_file.encoding.name
    if name == "rle":
        return _scan_rle(ctx, column_file, desc, payload, predicate)
    if name == "dictionary":
        return _scan_dictionary(ctx, column_file, desc, payload, predicate)
    if name == "for":
        return _scan_for(ctx, column_file, desc, payload, predicate)
    return None


def _constants(ctx):
    return ctx.constants if ctx.constants is not None else PAPER_CONSTANTS


def _scan_rle(ctx, column_file, desc, payload, predicate) -> PositionSet | None:
    values, starts, lengths = ctx.run_table(column_file, desc, payload)
    if not rle_scan_decision(desc.n_values, len(values), _constants(ctx)).stay:
        return None
    keep = predicate.mask(values)
    return RunPositions.from_runs(starts[keep], starts[keep] + lengths[keep])


def _scan_dictionary(
    ctx, column_file, desc, payload, predicate
) -> PositionSet | None:
    distinct, codes = ctx.code_table(column_file, desc, payload)
    decision = dictionary_scan_decision(
        desc.n_values, len(distinct), codes.itemsize, _constants(ctx)
    )
    if not decision.stay:  # pragma: no cover - codes are always narrower
        return None
    qualifying = predicate.mask(distinct.astype(column_file.dtype))
    nz = np.flatnonzero(qualifying)
    if nz.size == 0:
        return RangePositions.empty()
    if nz.size == len(distinct):
        return RangePositions(desc.start_pos, desc.end_pos)
    if int(nz[-1]) - int(nz[0]) + 1 == nz.size:
        # The distinct array is sorted, so any range-style predicate
        # qualifies one contiguous code interval: compare the narrow code
        # array against the interval bounds directly — 1-4 bytes of memory
        # traffic per value and no gather.
        lo, hi = int(nz[0]), int(nz[-1])
        if lo == 0:
            mask = codes <= hi
        elif hi == len(distinct) - 1:
            mask = codes >= lo
        else:
            mask = (codes >= lo) & (codes <= hi)
        return from_mask(desc.start_pos, mask)
    return from_mask(desc.start_pos, qualifying[codes])


def _scan_for(ctx, column_file, desc, payload, predicate) -> PositionSet | None:
    span = ctx.for_span(column_file, desc, payload)
    kernel = _offset_space_predicate(predicate, span.reference)
    decision = for_scan_decision(
        desc.n_values, span.width, kernel is not None, _constants(ctx)
    )
    if not decision.stay:
        return None
    return from_mask(desc.start_pos, kernel(span.offsets))


def _exact_int(value) -> int | None:
    """*value* as an exact int, or None when rebasing it would round."""
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return None


def _offset_space_predicate(
    predicate, reference: int
) -> Callable[[np.ndarray], np.ndarray] | None:
    """Translate *predicate* into the FOR block's offset space.

    Returns a mask function over the packed (unsigned, narrow) offsets, or
    None when the constant is not an exact integer — rebasing a fractional
    constant by the reference could round differently from the decoded
    compare, so those blocks morph instead.
    """
    from ..predicates import _OPS, ColumnConjunction, InPredicate, Predicate

    if isinstance(predicate, ColumnConjunction):
        parts = [
            _offset_space_predicate(p, reference) for p in predicate.predicates
        ]
        if any(p is None for p in parts):
            return None

        def conjunction(offsets: np.ndarray) -> np.ndarray:
            mask = parts[0](offsets)
            for part in parts[1:]:
                mask &= part(offsets)
            return mask

        return conjunction
    if isinstance(predicate, InPredicate):
        rebased = [_exact_int(v) for v in predicate.in_values]
        if any(v is None for v in rebased):
            return None
        targets = np.array([v - reference for v in rebased], dtype=np.int64)
        return lambda offsets: np.isin(offsets, targets)
    if isinstance(predicate, Predicate):
        value = _exact_int(predicate.value)
        if value is None:
            return None
        op = _OPS[predicate.op]
        shifted = value - reference
        return lambda offsets: op(offsets, shifted)
    return None


def group_ids(
    ctx: "ExecutionContext",
    column_file: "ColumnFile",
    positions: np.ndarray,
    minicolumn,
) -> tuple[np.ndarray, np.ndarray]:
    """Map each position to its RLE run or dictionary code of the group
    column: ``(unit values, unit id per row)``.

    The aggregation side of operating on compressed data: the aggregator
    reduces rows per run / per code (a dense bincount over the ids) and only
    the run values or per-block dictionaries — a handful per block — are
    ever widened. Per-block units are concatenated with globally offset
    ids, the ``(run_values, run_ids)`` contract of
    ``AggregateLM.execute_runs``.
    """
    from ..operators.base import repeat_by_run

    stats = ctx.stats
    runs = column_file.encoding.supports_runs
    value_parts: list[np.ndarray] = []
    id_parts: list[np.ndarray] = []
    cursor = 0
    base = 0  # units appended so far across loaded blocks
    n = len(positions)
    for desc in column_file.descriptors:
        if cursor >= n:
            break
        hi = int(np.searchsorted(positions, desc.end_pos, side="left"))
        if hi <= cursor:
            stats.blocks_skipped += 1
            continue
        if minicolumn is not None and minicolumn.has_block(desc.index):
            payload = minicolumn.payload(desc.index)
            stats.block_iterations += 1
        else:
            payload = ctx.read_block(column_file, desc.index)
        chunk = positions[cursor:hi]
        if runs:
            values, starts, _lengths = ctx.run_table(column_file, desc, payload)
            unit_ids = np.arange(base, base + len(values), dtype=np.int64)
            id_parts.append(repeat_by_run(starts, chunk, unit_ids))
        else:
            distinct, codes = ctx.code_table(column_file, desc, payload)
            values = distinct.astype(column_file.dtype)
            id_parts.append(codes[chunk - desc.start_pos].astype(np.int64) + base)
        value_parts.append(values)
        base += len(values)
        cursor = hi
    if not value_parts:
        return (
            np.empty(0, dtype=column_file.dtype),
            np.empty(0, dtype=np.int64),
        )
    return np.concatenate(value_parts), np.concatenate(id_parts)
