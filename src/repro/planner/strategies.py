"""The materialization strategies under study."""

from __future__ import annotations

from enum import Enum


class Strategy(Enum):
    """Tuple-construction strategies for selection/aggregation plans.

    * EM_PIPELINED — DS2 on the most selective column, then DS4 per further
      column: tuples grow one attribute at a time, later columns only touched
      at surviving positions.
    * EM_PARALLEL — a single SPC leaf scans every input column in full and
      constructs tuples immediately.
    * LM_PIPELINED — DS1 on the most selective column, positional filtering
      (DS3 + predicate) per further column, values extracted and merged only
      at the top.
    * LM_PARALLEL — independent DS1 scans per predicate, position AND, then
      DS3 extraction and a final merge.
    """

    EM_PIPELINED = "em-pipelined"
    EM_PARALLEL = "em-parallel"
    LM_PIPELINED = "lm-pipelined"
    LM_PARALLEL = "lm-parallel"

    @classmethod
    def from_name(cls, name: str) -> "Strategy":
        name = name.strip().lower().replace("_", "-")
        for s in cls:
            if s.value == name:
                return s
        raise ValueError(f"unknown strategy {name!r}")


class LeftTableStrategy(Enum):
    """Outer-table input representations for joins.

    The paper (end of Section 4.3) does not plot these but states the rule:
    highly selective joins or aggregated results favour a LATE outer input
    (send positions + the key column, fetch payload columns afterwards by the
    ordered left positions); otherwise EARLY (EM-parallel: send constructed
    tuples) should be used.
    """

    EARLY = "early"
    LATE = "late"

    @classmethod
    def from_name(cls, name: str) -> "LeftTableStrategy":
        name = name.strip().lower()
        for s in cls:
            if s.value == name:
                return s
        raise ValueError(f"unknown left-table strategy {name!r}")


class RightTableStrategy(Enum):
    """Inner-table representations for the join experiment (Section 4.3)."""

    MATERIALIZED = "materialized"
    MULTI_COLUMN = "multi-column"
    SINGLE_COLUMN = "single-column"

    @classmethod
    def from_name(cls, name: str) -> "RightTableStrategy":
        name = name.strip().lower().replace("_", "-")
        for s in cls:
            if s.value == name:
                return s
        raise ValueError(f"unknown right-table strategy {name!r}")
