"""Model-driven strategy selection.

The paper's conclusion proposes using the analytical model inside a query
optimizer to pick a materialization strategy. This module does exactly that:
predict every applicable strategy's cost and take the argmin. Strategies a
plan cannot legally use (LM-pipelined over bit-vector predicate columns) are
excluded the same way the experiments exclude them.
"""

from __future__ import annotations

from ..storage.projection import Projection


def _applicable_strategies(projection: Projection, query) -> list:
    from .strategies import Strategy

    strategies = list(Strategy)
    pred_cols = query.predicate_columns
    if len(pred_cols) > 1:
        enc = query.encoding_map
        for col in pred_cols:
            # physical_column: a partitioned parent has schema-only columns;
            # any partition answers encoding questions for all of them.
            cf = projection.physical_column(col).file(enc.get(col))
            if not cf.encoding.supports_position_filtering:
                strategies.remove(Strategy.LM_PIPELINED)
                break
    return strategies


def choose_strategy(
    projection: Projection,
    query,
    constants=None,
    resident: float = 0.0,
):
    """Pick the strategy the model predicts cheapest for *query*.

    Returns:
        (strategy, predictions): the winner and the per-strategy
        :class:`~repro.model.predictor.PlanPrediction` map used to choose.
    """
    from ..model.constants import PAPER_CONSTANTS
    from ..model.predictor import predict_strategies

    predictions = predict_strategies(
        projection,
        query,
        _applicable_strategies(projection, query),
        constants=constants or PAPER_CONSTANTS,
        resident=resident,
    )
    best = min(predictions, key=lambda s: predictions[s].total_ms)
    return best, predictions
