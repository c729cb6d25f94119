"""Join operators and the three inner-table materialization strategies.

The paper (Section 4.3) evaluates a foreign-key/primary-key join with three
representations of the right (inner) table input:

* **materialized** — the right side arrives as constructed tuples; the join
  outputs right-tuple values directly plus an *ordered* list of left
  positions (the hybrid approach of the paper).
* **multi-column** — the right side arrives as an unmaterialized multi-column;
  values of non-key columns are extracted on the fly for matching rows only.
* **single column** — "pure" late materialization: only the right join-key
  column enters the join; the output is a pair of position lists, and the
  right positions come out *unordered*, making later value extraction on the
  right side an expensive out-of-order positional join.

All three share a probe kernel over the unique right key (PK) column.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ExecutionError
from ..multicolumn import MultiColumn
from ..storage.column_file import ColumnFile
from .base import ExecutionContext, _is_sorted, gather_values
from .tuples import TupleSet


@dataclass
class JoinPositions:
    """Positional join output: pairs (left_positions[i], right_positions[i]).

    ``left_positions`` is sorted (the outer side is iterated in order);
    ``right_positions`` is in probe order, i.e. generally *unsorted*.
    """

    left_positions: np.ndarray
    right_positions: np.ndarray

    @property
    def n_matches(self) -> int:
        return len(self.left_positions)


def _probe(
    ctx: ExecutionContext,
    left_keys: np.ndarray,
    right_keys: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Probe unique *right_keys* with *left_keys*.

    Returns ``(left_mask, right_index)``: a mask over left rows that found a
    match, and for each matching left row the right row index holding its key.
    On duplicate right keys the first occurrence wins.

    Right keys that are exactly ``lo..lo+m-1`` in order (a sorted dense
    primary key, as an unfiltered ``customer.custkey`` is) are probed by
    direct address: the row of key ``k`` is ``k - lo``, so the probe is one
    subtraction and one range mask. Any other keys take a stable sort and a
    binary search.
    """
    stats = ctx.stats
    m = len(right_keys)
    stats.column_iterations += m  # build pass over the inner keys
    stats.function_calls += m
    stats.column_iterations += len(left_keys)  # probe pass
    stats.function_calls += len(left_keys)
    if m == 0:
        return np.zeros(len(left_keys), dtype=bool), np.empty(0, dtype=np.int64)
    if (
        all(np.can_cast(t, np.int64) for t in (right_keys.dtype, left_keys.dtype))
        and int(right_keys[-1]) - int(right_keys[0]) == m - 1
        and bool(np.all(right_keys[1:] > right_keys[:-1]))
    ):
        slot = np.subtract(left_keys, int(right_keys[0]), dtype=np.int64)
        left_mask = slot.view(np.uint64) < m
        return left_mask, slot[left_mask]
    order = np.argsort(right_keys, kind="stable")
    sorted_keys = right_keys[order]
    slot = np.minimum(np.searchsorted(sorted_keys, left_keys), m - 1)
    left_mask = sorted_keys[slot] == left_keys
    return left_mask, order[slot[left_mask]]


def join_single_column(
    ctx: ExecutionContext,
    left_keys: np.ndarray,
    left_positions: np.ndarray,
    right_keys: np.ndarray,
) -> JoinPositions:
    """Pure-LM join: only join-key columns in, position pairs out."""
    span = ctx.begin("JOIN")
    left_mask, right_index = _probe(ctx, left_keys, right_keys)
    matches = len(right_index)
    ctx.stats.extra["join_matches"] = (
        ctx.stats.extra.get("join_matches", 0) + matches
    )
    if span is not None:
        ctx.end(
            span,
            inner="single-column",
            left_in=len(left_keys),
            right_in=len(right_keys),
            matches=matches,
        )
    return JoinPositions(
        left_positions=left_positions[left_mask],
        right_positions=right_index.astype(np.int64),
    )


def join_materialized(
    ctx: ExecutionContext,
    left_keys: np.ndarray,
    left_positions: np.ndarray,
    right_tuples: TupleSet,
    right_key: str,
) -> tuple[np.ndarray, TupleSet]:
    """Hybrid join: right side pre-materialized, left side positional.

    Returns the ordered surviving left positions and, parallel to them, the
    matching right tuples (a row gather from the materialized inner table).
    """
    stats = ctx.stats
    span = ctx.begin("JOIN")
    right_keys = right_tuples.column(right_key)
    left_mask, right_index = _probe(ctx, left_keys, right_keys)
    n = int(left_mask.sum())
    # Emitting a row-store tuple per match.
    stats.tuple_iterations += n
    stats.tuples_constructed += n
    matched = TupleSet(
        columns=right_tuples.columns, data=right_tuples.data[right_index]
    )
    if span is not None:
        ctx.end(
            span,
            inner="materialized",
            left_in=len(left_keys),
            right_in=len(right_keys),
            matches=n,
        )
    return left_positions[left_mask], matched


def join_multicolumn(
    ctx: ExecutionContext,
    left_keys: np.ndarray,
    left_positions: np.ndarray,
    right_mc: MultiColumn,
    right_files: dict[str, ColumnFile],
    right_key: str,
    extract_columns: list[str],
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Hybrid join with a multi-column inner table.

    The key column is extracted from the pinned mini-columns for probing; for
    each match the other relevant columns are extracted on the fly at the
    matching position — constructing values only for tuples that join.
    """
    stats = ctx.stats
    span = ctx.begin("JOIN")
    valid = right_mc.descriptor.to_array()
    key_file = right_files[right_key]
    key_values = gather_values(
        ctx, key_file, valid, minicolumn=right_mc.minicolumns.get(right_key)
    )
    stats.column_iterations += len(valid)
    left_mask, right_index = _probe(ctx, left_keys, key_values)
    matched_positions = valid[right_index]
    out: dict[str, np.ndarray] = {right_key: key_values[right_index]}
    for name in extract_columns:
        mini = right_mc.minicolumns.get(name)
        # Extraction happens the moment each match is found — a direct jump
        # into the pinned mini-column, not a deferred positional join.
        out[name] = gather_values(
            ctx,
            right_files[name],
            matched_positions,
            minicolumn=mini,
            on_the_fly=True,
        )
    if span is not None:
        ctx.end(
            span,
            inner="multi-column",
            left_in=len(left_keys),
            right_in=len(valid),
            matches=len(matched_positions),
        )
    return left_positions[left_mask], out


def fetch_right_columns(
    ctx: ExecutionContext,
    join: JoinPositions,
    right_files: dict[str, ColumnFile],
    columns: list[str],
) -> dict[str, np.ndarray]:
    """Complete a pure-LM join: extract right columns at *unordered* positions.

    This is the expensive step Figure 13 isolates — the positions cannot be
    merge-joined against the column, so the gather must sort and scatter.
    """
    out = {}
    for name in columns:
        out[name] = gather_values(ctx, right_files[name], join.right_positions)
    return out


def hash_join_tuples(
    ctx: ExecutionContext,
    left: TupleSet,
    right: TupleSet,
    left_key: str,
    right_key: str,
) -> TupleSet:
    """Fully early-materialized join: tuples in, tuples out (row-store style)."""
    stats = ctx.stats
    span = ctx.begin("JOIN")
    left_keys = left.column(left_key)
    left_mask, right_index = _probe(ctx, left_keys, right.column(right_key))
    stats.tuple_iterations += left.n_tuples + right.n_tuples
    left_rows = left.data[left_mask]
    right_rows = right.data[right_index]
    right_cols = [c for c in right.columns if c != right_key]
    right_keep = [right.column_index(c) for c in right_cols]
    data = np.hstack([left_rows, right_rows[:, right_keep]])
    out = TupleSet(columns=left.columns + tuple(right_cols), data=data)
    stats.tuples_constructed += out.n_tuples
    stats.tuple_iterations += out.n_tuples
    if span is not None:
        ctx.end(
            span,
            inner="tuples",
            left_in=left.n_tuples,
            right_in=right.n_tuples,
            matches=out.n_tuples,
        )
    return out


def merge_fetch_left(
    ctx: ExecutionContext,
    left_positions: np.ndarray,
    left_files: dict[str, ColumnFile],
    columns: list[str],
) -> dict[str, np.ndarray]:
    """Fetch left-side columns at the join's ordered left positions.

    Because the left positions stay sorted, this is a standard merge join on
    position — the cheap side of the asymmetry Section 4.3 describes.
    """
    if not _is_sorted(left_positions):
        raise ExecutionError("left join positions must be sorted")
    return {
        name: gather_values(ctx, left_files[name], left_positions)
        for name in columns
    }
