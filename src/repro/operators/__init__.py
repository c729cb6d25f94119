"""Block-oriented query operators (C-Store executor, paper Section 3).

Each operator is a function of its inputs that the plan walker
(:mod:`repro.planner.plans`) calls once per plan node. The set matches the
paper's:

* :func:`ds1_scan` … :func:`ds4_extend` — the four data-source cases (scan
  to positions, scan to position/value tuples, positional gather or
  filter, positional tuple extension).
* :func:`spc_scan` — Scan/Predicate/Construct, the EM-parallel leaf.
* :func:`and_positions` — position-list intersection.
* :func:`merge_columns` — n-ary stitch of value streams into output tuples.
* :func:`aggregate_tuples` / :func:`aggregate_vectors` /
  :func:`aggregate_units` — aggregation over constructed tuples, directly
  over columns, and over RLE runs or dictionary codes, all through the one
  reduce-and-fold algebra of :mod:`.aggregate`.
* join operators in :mod:`.joins` — the three inner-table materialization
  strategies of Section 4.3.

Operators execute column-at-a-time over physical 64 KB blocks fetched through
the buffer pool, incrementing the :class:`~repro.metrics.QueryStats` counters
that correspond to the analytical model's cost terms.
"""

from .base import ExecutionContext, gather_values
from .tuples import TupleSet
from .datasource import (
    ds1_scan,
    ds2_scan,
    ds3_filter,
    ds3_gather,
    ds4_extend,
    spc_scan,
)
from .and_op import and_positions
from .merge import merge_columns
from .aggregate import aggregate_tuples, aggregate_units, aggregate_vectors
from .joins import (
    JoinPositions,
    hash_join_tuples,
    join_single_column,
    join_multicolumn,
    join_materialized,
)
from .output import drain

__all__ = [
    "ExecutionContext",
    "gather_values",
    "TupleSet",
    "ds1_scan",
    "ds2_scan",
    "ds3_filter",
    "ds3_gather",
    "ds4_extend",
    "spc_scan",
    "and_positions",
    "merge_columns",
    "aggregate_tuples",
    "aggregate_units",
    "aggregate_vectors",
    "JoinPositions",
    "hash_join_tuples",
    "join_single_column",
    "join_multicolumn",
    "join_materialized",
    "drain",
]
