"""Model-driven strategy selection.

The paper's conclusion proposes using the analytical model inside a query
optimizer to pick a materialization strategy. This module does exactly that:
predict every applicable strategy's cost and take the argmin. A strategy is
applicable when :func:`~repro.planner.nodes.plan_nodes` can build its plan
(LM-pipelined cannot position-filter a bit-vector column after its first
scan), the same rule the executor and EXPLAIN apply. A join chooses its
inner-table strategy the same way.
"""

from __future__ import annotations

from .logical import JoinQuery
from .nodes import executed_strategy
from .strategies import RightTableStrategy, Strategy


def choose_strategy(
    projection,
    query,
    constants=None,
    resident: float = 0.0,
    pending=None,
):
    """Pick the strategy the model predicts cheapest for *query* (over the
    *pending* writes snapshot, if any): one of the four over a selection's
    projection, or a join's inner-table strategy over its ``(left,
    right)`` pair.

    Returns:
        (strategy, predictions): the winner and the per-strategy
        :class:`~repro.model.predictor.PlanPrediction` map used to choose.
    """
    from ..model.constants import PAPER_CONSTANTS
    from ..model.predictor import predict_strategies

    predictions = predict_strategies(
        projection,
        query,
        RightTableStrategy if isinstance(query, JoinQuery) else Strategy,
        constants=constants or PAPER_CONSTANTS,
        resident=resident,
        pending=pending,
    )
    best = min(predictions, key=lambda s: predictions[s].total_ms)
    return executed_strategy(query, best), predictions
