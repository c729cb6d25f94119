"""The aggregation algebra and the AGG operator.

Every aggregating path — EM and LM AGG, AGG over RLE runs or dictionary
codes, DELTA's pending partial and COMBINE's fold across partitions — is
built from three parts:

* **the reduce** (:func:`reduce_groups`): each aggregate over rows with
  dense group ids, one per-function switch, SUM and AVG added up exactly
  in int64;
* **the partial specs** (:func:`partial_specs`): AVG becomes SUM + COUNT,
  so partials of one query can be folded;
* **the fold** (:func:`fold_partials`): partial rows regrouped, COUNT and
  SUM partials added up, MIN and MAX taking theirs, and each AVG rebuilt
  as SUM // COUNT.

AGG itself takes its input in one of three forms:

* :func:`aggregate_tuples` — constructed row-style tuples, pulled through a
  tuple iterator (TICTUP per input row): early materialization;
* :func:`aggregate_vectors` — parallel column vectors straight from DS3
  extraction: no tuples exist yet, input iteration is vector-style
  (TICCOL), and the only tuples ever constructed are the group summary
  rows. This is why the LM curves drop so far below EM in Figure 12;
* :func:`aggregate_units` — the group column as RLE runs or dictionary
  codes: the reduce over unit ids, then the fold over unit values.
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


def _avg(sums: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """AVG from its SUM and COUNT: int64 floor division (0 for no rows)."""
    return sums // np.maximum(counts, 1)


def reduce_groups(
    inverse: np.ndarray, k: int, aggregates: list[tuple[str, np.ndarray | None]]
) -> list[np.ndarray]:
    """The reduce: each ``(function, values)`` of *aggregates* over rows
    whose dense group ids (``0 .. k-1``) are *inverse*; one int64 array of
    *k* per aggregate.

    SUM and AVG add into int64, so a total past 2**53 stays exact; AVG is
    that sum floor-divided by the count. COUNT reads no values.
    """
    counts = None
    out = []
    for func, values in aggregates:
        if func in ("count", "avg") and counts is None:
            counts = np.bincount(inverse, minlength=k)
        if func == "count":
            out.append(counts.astype(np.int64))
        elif func == "count_distinct":
            # Distinct (group, value) pairs, then pairs per group.
            pairs, _ = factorize_groups([inverse, values])
            out.append(np.bincount(pairs[0], minlength=k).astype(np.int64))
        elif func in ("sum", "avg"):
            acc = np.zeros(k, dtype=np.int64)
            np.add.at(acc, inverse, values.astype(np.int64, copy=False))
            out.append(acc if func == "sum" else _avg(acc, counts))
        else:
            ufunc, fill = (
                (np.minimum, np.iinfo(np.int64).max) if func == "min"
                else (np.maximum, np.iinfo(np.int64).min)
            )
            acc = np.full(k, fill, dtype=np.int64)
            ufunc.at(acc, inverse, values.astype(np.int64, copy=False))
            out.append(acc)
    return out


def group_reduce(
    groups: dict[str, np.ndarray], columns, specs
) -> dict[str, np.ndarray]:
    """Group rows by the *groups* columns and reduce each of *specs* over
    its input in *columns*: the group keys, then one column per spec under
    its output name."""
    keys, inverse = factorize_groups(list(groups.values()))
    reduced = reduce_groups(
        inverse, len(keys[0]), [(s.func, columns.get(s.column)) for s in specs]
    )
    out = dict(zip(groups, keys))
    out.update(zip((s.output_name for s in specs), reduced))
    return out


def partial_specs(specs) -> tuple[list[AggSpec], dict]:
    """The partial specs: AVG rewritten into mergeable SUM + COUNT.

    Returns the partial spec list (deduplicated) and a mapping from each
    original output name to how the fold rebuilds it: ``("direct", name)``
    or ``("avg", sum name, count name)``. count(distinct) has no partials.
    """
    internal: list[AggSpec] = []
    plan: dict[str, tuple] = {}

    def ensure(spec: AggSpec) -> str:
        if spec.func == "count_distinct":
            raise PlanError(
                "count(distinct) has no partials to fold; use the row path"
            )
        if spec not in internal:
            internal.append(spec)
        return spec.output_name

    for spec in specs:
        if spec.func == "avg":
            s = ensure(AggSpec("sum", spec.column))
            c = ensure(AggSpec("count", spec.column))
            plan[spec.output_name] = ("avg", s, c)
        else:
            plan[spec.output_name] = ("direct", ensure(spec))
    return internal, plan


#: How each partial folds: counts and sums add up, MIN and MAX take theirs.
_FOLD = {"count": "sum", "sum": "sum", "min": "min", "max": "max"}


def fold_partials(group_columns, rows, specs) -> dict[str, np.ndarray]:
    """The fold: partial rows of *specs* (columns named as
    :func:`partial_specs` names them, in *rows*) regrouped by
    *group_columns*, each AVG rebuilt as SUM // COUNT. The group keys come
    first, then one column per spec of *specs*."""
    partials, plan = partial_specs(specs)
    keys, inverse = factorize_groups([rows[c] for c in group_columns])
    folded = dict(zip(
        (p.output_name for p in partials),
        reduce_groups(
            inverse, len(keys[0]),
            [(_FOLD[p.func], rows[p.output_name]) for p in partials],
        ),
    ))
    out = dict(zip(group_columns, keys))
    for output, how in plan.items():
        out[output] = (
            _avg(folded[how[1]], folded[how[2]]) if how[0] == "avg"
            else folded[how[1]]
        )
    return out


def aggregate_tuples(
    ctx: ExecutionContext, tuples: TupleSet, group_columns, specs
) -> TupleSet:
    """AGG over an early-materialized tuple stream."""
    stats = ctx.stats
    span = ctx.begin("AGG")
    n = tuples.n_tuples
    # The aggregator pulls every input row through a tuple iterator.
    stats.tuple_iterations += n
    stats.function_calls += n * (1 + len(specs))
    reduced = group_reduce(
        {c: tuples.column(c) for c in group_columns},
        {s.column: tuples.column(s.column) for s in specs if s.func != "count"},
        specs,
    )
    result = TupleSet.stitch(reduced, stats=stats)
    stats.tuple_iterations += result.n_tuples
    if span is not None:
        ctx.end(span, style="tuple", tuples_in=n, groups=result.n_tuples)
    return result


def aggregate_vectors(
    ctx: ExecutionContext,
    groups: dict[str, np.ndarray],
    columns: dict[str, np.ndarray],
    specs,
) -> TupleSet:
    """AGG over parallel column vectors (no input tuples): *groups* holds
    the group columns in output order, *columns* the aggregate inputs."""
    stats = ctx.stats
    span = ctx.begin("AGG")
    n = len(next(iter(groups.values())))
    # Vector-style input iteration: TICCOL per row, not TICTUP.
    stats.column_iterations += n
    stats.function_calls += n
    reduced = group_reduce(groups, columns, specs)
    result = TupleSet.stitch(reduced, stats=stats)
    stats.tuple_iterations += result.n_tuples
    if span is not None:
        ctx.end(span, style="vector", rows_in=n, groups=result.n_tuples)
    return result


def aggregate_units(
    ctx: ExecutionContext,
    group_column: str,
    unit_values: np.ndarray,
    unit_ids: np.ndarray,
    columns: dict[str, np.ndarray],
    specs,
) -> TupleSet:
    """AGG with the group column kept as RLE runs or dictionary codes
    (:func:`repro.compressed.kernels.group_ids`): the reduce over unit ids
    into partials, then the fold over unit values, so group values are
    widened once per unit, never per row.

    Args:
        unit_values: group value of each unit, indexed by unit id.
        unit_ids: unit id per input row.
        columns: aggregate input vectors, parallel to ``unit_ids``.
    """
    partials = partial_specs(specs)[0]
    stats = ctx.stats
    span = ctx.begin("AGG")
    n_units = len(unit_values)
    stats.column_iterations += n_units  # one step per unit, not per row
    stats.function_calls += n_units
    # The unit ids are dense ids over the unit table, so they group rows
    # as they are.
    counts, *reduced = reduce_groups(
        unit_ids, n_units,
        [("count", None), *((p.func, columns.get(p.column)) for p in partials)],
    )
    # A unit table covers whole blocks: a unit no surviving row fell into
    # is no partial, and must not surface as a group.
    held = counts > 0
    rows = {p.output_name: r[held] for p, r in zip(partials, reduced)}
    rows[group_column] = np.asarray(unit_values)[held]
    result = TupleSet.stitch(
        fold_partials([group_column], rows, specs), stats=stats
    )
    stats.tuple_iterations += result.n_tuples
    if span is not None:
        ctx.end(span, style="runs", runs_in=n_units, groups=result.n_tuples)
    return result
