"""The n-ary MERGE operator (paper Figure 5).

Combines k parallel value vectors — all extracted at the same final position
list — into k-ary output tuples. This is the single tuple-construction point
of a late-materialization plan.
"""

from __future__ import annotations

import numpy as np

from ..errors import ExecutionError
from .base import ExecutionContext
from .tuples import TupleSet


def merge_columns(ctx: ExecutionContext, columns: dict[str, np.ndarray]) -> TupleSet:
    """MERGE: stitch k aligned value vectors into output tuples."""
    if not columns:
        raise ExecutionError("MERGE of zero columns")
    stats = ctx.stats
    span = ctx.begin("MERGE")
    k = len(columns)
    lengths = {len(v) for v in columns.values()}
    if len(lengths) > 1:
        raise ExecutionError(f"MERGE inputs differ in length: {lengths}")
    n = lengths.pop()
    # Figure 5: access values as vectors (n*k FC) and produce tuples as an
    # array (n*k FC) — no per-tuple iterator on either side.
    stats.function_calls += 2 * n * k
    result = TupleSet.stitch(columns, stats=stats)
    if span is not None:
        ctx.end(span, columns=list(columns), tuples=n)
    return result
