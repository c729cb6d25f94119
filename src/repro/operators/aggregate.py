"""Aggregation operators.

Two flavours, matching the two materialization strategies:

* :class:`AggregateEM` consumes constructed row-style tuples through a tuple
  iterator (TICTUP per input row).
* :class:`AggregateLM` consumes parallel column vectors straight from DS3
  extraction — no tuples exist yet, input iteration is vector-style (TICCOL),
  and the only tuples ever constructed are the group summary rows. This is
  why the LM curves drop so far below EM in Figure 12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import PlanError
from .base import ExecutionContext
from .tuples import TupleSet

_SUPPORTED = ("sum", "count", "min", "max", "avg", "count_distinct")


@dataclass(frozen=True)
class AggSpec:
    """One aggregate, e.g. ``sum(linenum)``."""

    func: str
    column: str

    def __post_init__(self):
        if self.func not in _SUPPORTED:
            raise PlanError(f"unsupported aggregate {self.func!r}")

    @property
    def output_name(self) -> str:
        if self.func == "count_distinct":
            return f"count(distinct {self.column})"
        return f"{self.func}({self.column})"


def fuse_keys(
    *sides: list[np.ndarray], limit: int = np.iinfo(np.int64).max
) -> tuple[list[np.ndarray], list[int], list[int]] | None:
    """One int64 key per row of each side, equal exactly where rows are equal.

    Every side holds the same non-empty columns. Integer columns are fused
    into one mixed-radix key whose digits are each column's offset from the
    lowest value on any side, so key order is the rows' lexicographic
    order. Returns ``(keys per side, lows, spans)``, or None when a column
    is not an integer column or the radix product exceeds *limit* (int64's
    maximum by default; the product is computed in Python integers, so
    overflow is detected, never wrapped).
    """
    lows, spans = [], []
    for cols in zip(*sides):
        for c in cols:
            if c.dtype.kind not in "iub" or c.dtype.kind == "u" and c.itemsize == 8:
                return None
        low = min([int(c.min()) for c in cols])
        lows.append(low)
        spans.append(max([int(c.max()) for c in cols]) - low + 1)
    if math.prod(spans) > limit:
        return None
    keys = []
    for cols in sides:
        key = cols[0].astype(np.int64)
        key -= lows[0]
        for c, low, span in zip(cols[1:], lows[1:], spans[1:]):
            key *= span
            key += c
            key -= low
        keys.append(key)
    return keys, lows, spans


def factorize_groups(
    group_arrays: list[np.ndarray],
) -> tuple[list[np.ndarray], np.ndarray]:
    """Distinct group keys (one array per group column) + per-row group ids.

    Keys come out in lexicographic order, as ``np.unique(axis=0)`` gives
    them. Integer columns are fused into one key (:func:`fuse_keys`); a
    fused domain of at most ``2·n − 512`` values is numbered by occupancy
    (``bincount`` → ``cumsum``) without sorting, a wider one by a 1-D
    ``np.unique``. Outside that bound ``np.unique`` is as fast or faster
    (measured; DESIGN.md §5c), so a single column outside it is not fused
    at all, and columns that cannot be fused sort rows.
    """
    n = len(group_arrays[0])
    if n == 0:
        return [np.empty(0, np.int64) for _ in group_arrays], np.empty(0, np.intp)
    limit = 2 * n - 512
    if len(group_arrays) == 1:
        fused = fuse_keys(group_arrays, limit=limit) if limit > 0 else None
    else:
        fused = fuse_keys(group_arrays)
    if fused is None:
        if len(group_arrays) == 1:
            uniques, inverse = np.unique(group_arrays[0], return_inverse=True)
            return [uniques.astype(np.int64)], inverse
        stacked = np.stack([a.astype(np.int64) for a in group_arrays], axis=1)
        uniques, inverse = np.unique(stacked, axis=0, return_inverse=True)
        return [uniques[:, i] for i in range(uniques.shape[1])], inverse
    (key,), lows, spans = fused
    if math.prod(spans) <= limit:
        present = np.bincount(key) > 0
        inverse = (np.cumsum(present) - 1)[key]
        uniques = np.flatnonzero(present)
    else:
        uniques, inverse = np.unique(key, return_inverse=True)
    columns = []
    for low, span in zip(lows[::-1], spans[::-1]):
        uniques, digit = np.divmod(uniques, span)
        columns.append(digit + low)
    return columns[::-1], inverse


def _grouped_reduce(
    group_arrays: list[np.ndarray],
    group_names: list[str],
    columns: dict[str, np.ndarray],
    specs: list[AggSpec],
) -> dict[str, np.ndarray]:
    """Group-by reduce over parallel vectors; returns output column -> values."""
    keys, inverse = factorize_groups(group_arrays)
    k = len(keys[0]) if keys else 0
    out: dict[str, np.ndarray] = dict(zip(group_names, keys))
    counts = None
    for spec in specs:
        if spec.func == "count":
            counts = np.bincount(inverse, minlength=k) if counts is None else counts
            out[spec.output_name] = counts.astype(np.int64)
            continue
        values = columns[spec.column]
        if spec.func == "count_distinct":
            # Distinct (group, value) pairs, then pairs per group.
            pairs, _ = factorize_groups([inverse, values])
            out[spec.output_name] = np.bincount(
                pairs[0], minlength=k
            ).astype(np.int64)
        elif spec.func == "sum":
            out[spec.output_name] = np.bincount(
                inverse, weights=values, minlength=k
            ).astype(np.int64)
        elif spec.func == "avg":
            counts = np.bincount(inverse, minlength=k) if counts is None else counts
            sums = np.bincount(inverse, weights=values, minlength=k)
            out[spec.output_name] = (sums // np.maximum(counts, 1)).astype(np.int64)
        else:
            fill = np.iinfo(np.int64).max if spec.func == "min" else np.iinfo(
                np.int64
            ).min
            acc = np.full(k, fill, dtype=np.int64)
            ufunc = np.minimum if spec.func == "min" else np.maximum
            ufunc.at(acc, inverse, values.astype(np.int64))
            out[spec.output_name] = acc
    return out


def _normalize_groups(group_columns) -> list[str]:
    if isinstance(group_columns, str):
        return [group_columns]
    return list(group_columns)


class AggregateEM:
    """Group-by aggregation over an early-materialized tuple stream."""

    def __init__(
        self,
        ctx: ExecutionContext,
        group_columns,
        specs: list[AggSpec],
    ):
        self.ctx = ctx
        self.group_columns = _normalize_groups(group_columns)
        self.specs = specs

    def execute(self, tuples: TupleSet) -> TupleSet:
        stats = self.ctx.stats
        span = self.ctx.begin("AGG")
        n = tuples.n_tuples
        # The aggregator pulls every input row through a tuple iterator.
        stats.tuple_iterations += n
        stats.function_calls += n * (1 + len(self.specs))
        groups = [tuples.column(c) for c in self.group_columns]
        columns = {
            spec.column: tuples.column(spec.column)
            for spec in self.specs
            if spec.func != "count"
        }
        reduced = _grouped_reduce(groups, self.group_columns, columns, self.specs)
        result = TupleSet.stitch(reduced, stats=stats)
        stats.tuple_iterations += result.n_tuples
        if span is not None:
            self.ctx.end(
                span, style="tuple", tuples_in=n, groups=result.n_tuples
            )
        return result


class AggregateLM:
    """Group-by aggregation over parallel column vectors (no input tuples).

    When the group column arrived run-length encoded, pass ``group_runs`` —
    the run index of each input row — instead of decoding group values per
    row: the reduction then happens per run (operating directly on compressed
    data) and group values are only expanded once per distinct run.
    """

    def __init__(
        self,
        ctx: ExecutionContext,
        group_columns,
        specs: list[AggSpec],
    ):
        self.ctx = ctx
        self.group_columns = _normalize_groups(group_columns)
        self.specs = specs

    def execute(
        self,
        groups: dict[str, np.ndarray] | np.ndarray,
        columns: dict[str, np.ndarray],
    ) -> TupleSet:
        stats = self.ctx.stats
        span = self.ctx.begin("AGG")
        if isinstance(groups, np.ndarray):
            groups = {self.group_columns[0]: groups}
        group_arrays = [groups[c] for c in self.group_columns]
        n = len(group_arrays[0]) if group_arrays else 0
        # Vector-style input iteration: TICCOL per row, not TICTUP.
        stats.column_iterations += n
        stats.function_calls += n
        reduced = _grouped_reduce(
            group_arrays, self.group_columns, columns, self.specs
        )
        result = TupleSet.stitch(reduced, stats=stats)
        stats.tuple_iterations += result.n_tuples
        if span is not None:
            self.ctx.end(
                span, style="vector", rows_in=n, groups=result.n_tuples
            )
        return result

    def execute_runs(
        self,
        run_values: np.ndarray,
        run_ids: np.ndarray,
        columns: dict[str, np.ndarray],
    ) -> TupleSet:
        """Aggregate with the group column kept as (run value, run id) pairs.

        Args:
            run_values: group value of each distinct run, indexed by run id.
            run_ids: run id per input row (monotonic for sorted columns).
            columns: aggregate input vectors, parallel to ``run_ids``.
        """
        stats = self.ctx.stats
        if any(spec.func == "count_distinct" for spec in self.specs):
            raise PlanError(
                "count(distinct) has no per-run reduction; use the row path"
            )
        span = self.ctx.begin("AGG")
        n_runs = len(run_values)
        stats.column_iterations += n_runs  # one step per run, not per row
        stats.function_calls += n_runs
        # Reduce rows to runs first (cheap bincount over dense run ids), then
        # runs to groups (tiny).
        per_run: dict[str, np.ndarray] = {}
        for spec in self.specs:
            if spec.func == "count":
                continue
            values = columns[spec.column]
            if spec.func in ("sum", "avg"):
                per_run[spec.output_name] = np.bincount(
                    run_ids, weights=values, minlength=n_runs
                )
            else:
                fill = np.iinfo(np.int64).max if spec.func == "min" else np.iinfo(
                    np.int64
                ).min
                acc = np.full(n_runs, fill, dtype=np.int64)
                ufunc = np.minimum if spec.func == "min" else np.maximum
                ufunc.at(acc, run_ids, values.astype(np.int64))
                per_run[spec.output_name] = acc
        run_counts = np.bincount(run_ids, minlength=n_runs)
        # The run table covers whole blocks; runs no surviving row fell into
        # must not surface as output groups.
        occupied = run_counts > 0
        run_values = np.asarray(run_values)[occupied]
        run_counts = run_counts[occupied]
        per_run = {col: acc[occupied] for col, acc in per_run.items()}

        (uniques,), inverse = factorize_groups([run_values])
        k = len(uniques)
        out: dict[str, np.ndarray] = {self.group_columns[0]: uniques}
        group_counts = np.bincount(inverse, weights=run_counts, minlength=k)
        for spec in self.specs:
            if spec.func == "count":
                out[spec.output_name] = group_counts.astype(np.int64)
            elif spec.func == "sum":
                out[spec.output_name] = np.bincount(
                    inverse, weights=per_run[spec.output_name], minlength=k
                ).astype(np.int64)
            elif spec.func == "avg":
                sums = np.bincount(
                    inverse, weights=per_run[spec.output_name], minlength=k
                )
                out[spec.output_name] = (
                    sums // np.maximum(group_counts, 1)
                ).astype(np.int64)
            else:
                fill = np.iinfo(np.int64).max if spec.func == "min" else np.iinfo(
                    np.int64
                ).min
                acc = np.full(k, fill, dtype=np.int64)
                ufunc = np.minimum if spec.func == "min" else np.maximum
                ufunc.at(acc, inverse, per_run[spec.output_name].astype(np.int64))
                out[spec.output_name] = acc
        result = TupleSet.stitch(out, stats=stats)
        stats.tuple_iterations += result.n_tuples
        if span is not None:
            self.ctx.end(
                span, style="runs", runs_in=n_runs, groups=result.n_tuples
            )
        return result
