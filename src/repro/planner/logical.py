"""Logical query descriptions.

A logical query names *what* to compute — projection, output columns,
conjunctive predicates, optional group-by aggregation, optional join — and,
because the paper's experiments vary physical representation, *which stored
encoding* to scan for each column. The strategy (how to materialize) is kept
separate and supplied at execution time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import PlanError
from ..operators.aggregate import AggSpec
from ..predicates import Predicate


@dataclass(frozen=True)
class SelectQuery:
    """A selection (optionally aggregating) query over one projection.

    Attributes:
        projection: name of the projection to scan.
        select: output columns. For aggregate queries these are the group-by
            column plus aggregate output names.
        predicates: conjunctive single-column predicates.
        group_by: group-by column name(s) — a single name or a tuple — or
            None for plain selection.
        aggregates: aggregate specs (requires ``group_by``).
        encodings: optional per-column physical encoding override.
        order_by: output ordering as (column, descending) pairs; columns must
            appear in ``select``.
        limit: keep only the first N output tuples (after ordering).
    """

    projection: str
    select: tuple[str, ...]
    predicates: tuple[Predicate, ...] = ()
    group_by: str | tuple[str, ...] | None = None
    aggregates: tuple[AggSpec, ...] = ()
    encodings: tuple[tuple[str, str], ...] = ()
    order_by: tuple[tuple[str, bool], ...] = ()
    limit: int | None = None
    #: Disjunctive-normal-form WHERE: OR of conjunction groups. Mutually
    #: exclusive with ``predicates``; queries with disjuncts execute through
    #: the position-set union path (OR on position lists, paper §2.1.1).
    disjuncts: tuple[tuple[Predicate, ...], ...] = ()
    #: Post-aggregation filters; each predicate's column names an output of
    #: the select list (a group column or an aggregate output name).
    having: tuple[Predicate, ...] = ()

    def __post_init__(self):
        if self.aggregates and not self.group_by:
            raise PlanError("aggregates require a group_by column")
        if self.group_by and not self.aggregates:
            raise PlanError("group_by requires at least one aggregate")
        if self.disjuncts:
            if self.predicates:
                raise PlanError(
                    "use either predicates (conjunction) or disjuncts (DNF)"
                )
            if len(self.disjuncts) < 2 or any(
                not group for group in self.disjuncts
            ):
                raise PlanError(
                    "disjuncts must hold at least two non-empty groups"
                )
        if isinstance(self.group_by, str):
            object.__setattr__(self, "group_by", (self.group_by,))
        for col, _desc in self.order_by:
            if col not in self.select:
                raise PlanError(
                    f"ORDER BY column {col!r} must appear in the select list"
                )
        if self.having:
            if not self.aggregates:
                raise PlanError("HAVING requires aggregation")
            for pred in self.having:
                if pred.column not in self.select:
                    raise PlanError(
                        f"HAVING column {pred.column!r} must appear in the "
                        "select list"
                    )
        if self.limit is not None and self.limit < 0:
            raise PlanError("limit must be non-negative")

    @property
    def group_columns(self) -> tuple[str, ...]:
        """Group-by columns as a (possibly empty) tuple."""
        return self.group_by or ()

    @property
    def encoding_map(self) -> dict[str, str]:
        return dict(self.encodings)

    @property
    def all_predicates(self) -> tuple[Predicate, ...]:
        """Every predicate anywhere in the WHERE clause (flattened)."""
        if self.disjuncts:
            return tuple(p for group in self.disjuncts for p in group)
        return self.predicates

    @property
    def predicate_columns(self) -> list[str]:
        seen: list[str] = []
        for p in self.all_predicates:
            if p.column not in seen:
                seen.append(p.column)
        return seen

    @property
    def value_columns(self) -> list[str]:
        """Columns whose values the query ultimately needs.

        For plain selection: the select list. For aggregation: the group-by
        column and the aggregate input columns.
        """
        if not self.aggregates:
            return list(self.select)
        cols = list(self.group_columns)
        for spec in self.aggregates:
            if spec.func != "count" and spec.column not in cols:
                cols.append(spec.column)
        return cols

    @property
    def all_columns(self) -> list[str]:
        """Every column the plan touches, predicates first."""
        cols = self.predicate_columns
        for c in self.value_columns:
            if c not in cols:
                cols.append(c)
        return cols


@dataclass(frozen=True)
class JoinQuery:
    """An FK-PK join between two projections (paper Section 4.3).

    Attributes:
        left: outer projection name (holds the foreign key).
        right: inner projection name (holds the primary key).
        left_key / right_key: join key columns.
        left_select / right_select: non-key output columns per side.
        left_predicates: conjunctive predicates on the outer side.
        left_strategy: "late" (positions + key column in, payload fetched by
            ordered positions after the join) or "early" (constructed tuples
            in, row-store style). The inner-table strategy is chosen at
            execution time.
    """

    left: str
    right: str
    left_key: str
    right_key: str
    left_select: tuple[str, ...]
    right_select: tuple[str, ...]
    left_predicates: tuple[Predicate, ...] = ()
    encodings: tuple[tuple[str, str], ...] = field(default=())
    left_strategy: str = "late"
    #: Optional aggregation over the join result: group-by columns (from
    #: either side, must appear in the corresponding select list) and
    #: aggregate specs over selected columns. The paper's rule: aggregated
    #: join results favour late materialization, because only summary tuples
    #: are ever constructed.
    group_by: str | tuple[str, ...] | None = None
    aggregates: tuple[AggSpec, ...] = ()

    def __post_init__(self):
        if self.aggregates and not self.group_by:
            raise PlanError("aggregates require a group_by column")
        if self.group_by and not self.aggregates:
            raise PlanError("group_by requires at least one aggregate")
        if isinstance(self.group_by, str):
            object.__setattr__(self, "group_by", (self.group_by,))
        selected = set(self.left_select) | set(self.right_select)
        for col in self.group_by or ():
            if col not in selected:
                raise PlanError(
                    f"join GROUP BY column {col!r} must be selected"
                )
        for spec in self.aggregates:
            if spec.column not in selected:
                raise PlanError(
                    f"join aggregate input {spec.column!r} must be selected"
                )

    @property
    def group_columns(self) -> tuple[str, ...]:
        """Group-by columns as a (possibly empty) tuple."""
        return self.group_by or ()

    @property
    def output_columns(self) -> tuple[str, ...]:
        """The join's output column names, in order."""
        if self.aggregates:
            return self.group_columns + tuple(
                s.output_name for s in self.aggregates
            )
        return self.left_select + self.right_select

    @property
    def encoding_map(self) -> dict[str, str]:
        return dict(self.encodings)
