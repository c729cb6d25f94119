"""The paper's analytical cost model (Section 3).

Its modules:

* :mod:`~repro.model.constants` — Table 2's calibrated CPU/disk constants.
* :mod:`~repro.model.cost` — per-operator formulas (Figures 1-6) counting
  Table 1 events, and :func:`~repro.model.cost.price`, which prices them for
  predictions and for the counter replay ("simulated time").
* :mod:`~repro.model.predictor` — a-priori end-to-end plan cost prediction
  from column metadata and estimated selectivities, used both for the
  Figure 10 validation and by the strategy-choosing optimizer.
* :mod:`~repro.model.morph` — per-block stay-compressed vs. morph decisions
  for the compressed-execution kernels, in the same microsecond currency.
* :mod:`~repro.model.recalibrate` — least-squares fit of Table 2's CPU
  constants to a query log's wall time over its logged counters
  (``repro calibrate``).
"""

from .constants import ModelConstants, PAPER_CONSTANTS
from .cost import (
    AndCost,
    ColumnMeta,
    OperatorCost,
    and_cost,
    ds_case1_cost,
    ds_case2_cost,
    ds_case3_cost,
    ds_case4_cost,
    merge_cost,
    simulated_time_ms,
    spc_cost,
)
from .predictor import predict_join, predict_select, predict_strategies
from .recalibrate import CalibrationReport, recalibrate_from_log
from .morph import (
    MorphDecision,
    dictionary_scan_decision,
    for_scan_decision,
    morph_scan_us,
    rle_scan_decision,
)

__all__ = [
    "ModelConstants",
    "PAPER_CONSTANTS",
    "ColumnMeta",
    "OperatorCost",
    "AndCost",
    "ds_case1_cost",
    "ds_case2_cost",
    "ds_case3_cost",
    "ds_case4_cost",
    "and_cost",
    "merge_cost",
    "spc_cost",
    "simulated_time_ms",
    "predict_select",
    "predict_strategies",
    "predict_join",
    "CalibrationReport",
    "recalibrate_from_log",
    "MorphDecision",
    "rle_scan_decision",
    "dictionary_scan_decision",
    "for_scan_decision",
    "morph_scan_us",
]
