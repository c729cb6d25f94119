"""Query planning: logical queries, materialization strategies, plan builders.

The planner turns a :class:`~repro.planner.logical.SelectQuery` or
:class:`~repro.planner.logical.JoinQuery` into one of the paper's four
physical plan shapes (EM/LM x pipelined/parallel), or a join's, and executes
it. A plan's shape is built once, by :func:`~repro.planner.nodes.plan_nodes`;
the executor runs those nodes, the cost model prices them, EXPLAIN renders
them, and the model-driven :mod:`~repro.planner.optimizer` picks the
strategy (for a join, the inner-table strategy) predicted to be fastest.
"""

from .logical import JoinQuery, SelectQuery
from .strategies import LeftTableStrategy, RightTableStrategy, Strategy
from .nodes import PlanNode, plan_nodes
from .plans import execute_join, execute_select
from .estimate import estimate_selectivity
from .optimizer import choose_strategy
from .projection_choice import resolve_projection
from .describe import describe_plan

__all__ = [
    "SelectQuery",
    "JoinQuery",
    "Strategy",
    "LeftTableStrategy",
    "RightTableStrategy",
    "PlanNode",
    "plan_nodes",
    "execute_select",
    "execute_join",
    "estimate_selectivity",
    "choose_strategy",
    "resolve_projection",
    "describe_plan",
]
