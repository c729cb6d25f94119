"""Position-list AND (paper Section 3.3).

Takes k filtered position sets and produces their intersection. Ranges are
intersected first (constant cost), then bitmaps word-wise, then anything
else — the three cases of the paper's model.
"""

from __future__ import annotations

from ..errors import ExecutionError
from ..positions import (
    BitmapPositions,
    ListedPositions,
    PositionSet,
    RunPositions,
    intersect_all,
)
from .base import ExecutionContext, position_groups


def and_groups(positions: PositionSet) -> int:
    """Iterator steps AND spends per input list.

    Ranges are one step; run lists cost one step per run (the compressed
    intersection never expands them); bit-strings are intersected a word at
    a time (the paper's Case 2: ``||inpos|| / 32`` with the processor word
    size); listed positions cost one step each.
    """
    if isinstance(positions, BitmapPositions):
        return (positions.nbits + positions.WORD_BITS - 1) // positions.WORD_BITS
    if isinstance(positions, RunPositions):
        return positions.n_runs
    return position_groups(positions)


def and_positions(ctx: ExecutionContext, inputs: list[PositionSet]) -> PositionSet:
    """AND: the intersection of *inputs*."""
    if not inputs:
        raise ExecutionError("AND of zero position lists")
    stats = ctx.stats
    span = ctx.begin("AND")
    groups = [and_groups(p) for p in inputs]
    m = max(groups)
    # Step 1: iterate each input list; steps 2-3: produce the output.
    stats.column_iterations += sum(groups) + m
    stats.function_calls += m * (len(inputs) - 1) + m
    stats.positions_intersected += sum(p.count() for p in inputs)
    if any(isinstance(p, RunPositions) for p in inputs) and any(
        isinstance(p, (BitmapPositions, ListedPositions)) for p in inputs
    ):
        # A run list meeting a materialized (bitmap/listed) set cannot stay
        # in run form through the intersection: the run side is expanded
        # against the other representation — a morph.
        stats.morphs += 1
    result = intersect_all(inputs)
    if span is not None:
        ctx.end(
            span,
            inputs=[p.count() for p in inputs],
            positions=result.count(),
        )
    return result
