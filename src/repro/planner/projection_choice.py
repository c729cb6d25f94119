"""Projection selection for anchor tables.

C-Store stores one logical table as several projections, each sorted
differently; the optimizer routes a query to the projection whose physical
design fits it best. Candidates must cover every column the query touches;
among those, the winner is the one whose cheapest materialization strategy
the analytical model predicts to be fastest — predicates matching a
projection's sort prefix benefit from run-length compression, clustered
indexes, and block skipping, all of which the model sees through the
candidate's column metadata.
"""

from __future__ import annotations

from ..errors import CatalogError, UnsupportedOperationError
from ..storage.catalog import Catalog
from ..storage.projection import Projection


def covering_candidates(catalog: Catalog, query) -> list[Projection]:
    """Candidate projections of the query's table that cover its columns."""
    candidates = catalog.candidates(query.projection)
    if not candidates:
        raise CatalogError(f"unknown projection or table {query.projection!r}")
    needed = set(query.all_columns)
    covering = [
        p for p in candidates if needed <= set(p.column_names)
    ]
    if not covering:
        raise CatalogError(
            f"no projection of {query.projection!r} covers columns "
            f"{sorted(needed)}"
        )
    return covering


def cheapest_plan(candidates, query, constants=None, resident: float = 0.0):
    """``(ms, projection, strategy)`` of the cheapest applicable plan over
    *candidates* × strategies, or None when no candidate costs cleanly
    (encoding overrides may name encodings a candidate lacks). Ties keep
    the earlier candidate and strategy."""
    from ..model.constants import PAPER_CONSTANTS
    from ..model.predictor import predict_strategies
    from .strategies import Strategy

    best = None
    for projection in candidates:
        try:
            predictions = predict_strategies(
                projection, query, Strategy, constants or PAPER_CONSTANTS, resident
            )
        except (CatalogError, UnsupportedOperationError):
            continue
        for strategy, prediction in predictions.items():
            if best is None or prediction.total_ms < best[0]:
                best = (prediction.total_ms, projection, strategy)
    return best


def resolve_projection(
    catalog: Catalog, query, constants=None, resident: float = 0.0
) -> Projection:
    """Pick the best covering projection for *query*.

    A direct projection name resolves to itself; an anchor-table name with
    several covering projections is decided by the model's cheapest
    applicable strategy per candidate (the first covering candidate when
    none costs cleanly).
    """
    covering = covering_candidates(catalog, query)
    if len(covering) == 1:
        return covering[0]
    best = cheapest_plan(covering, query, constants, resident)
    return covering[0] if best is None else best[1]


def resolve_join_side(
    catalog: Catalog, name: str, needed_columns: list[str]
) -> Projection:
    """Pick a projection of *name* covering the join's needed columns.

    Partitioned projections cannot serve as a join side (the join operators
    address one contiguous position space); they are skipped, and if only
    partitioned candidates cover the columns the query is rejected rather
    than silently mis-executed.
    """
    candidates = catalog.candidates(name)
    if not candidates:
        raise CatalogError(f"unknown projection or table {name!r}")
    needed = set(needed_columns)
    partitioned_only = None
    for projection in candidates:
        if needed <= set(projection.column_names):
            if projection.is_partitioned:
                partitioned_only = projection
                continue
            return projection
    if partitioned_only is not None:
        raise UnsupportedOperationError(
            f"projection {partitioned_only.name!r} is range-partitioned and "
            "cannot be a join side; store an unpartitioned covering "
            "projection for joins"
        )
    raise CatalogError(
        f"no projection of {name!r} covers columns {sorted(needed)}"
    )
