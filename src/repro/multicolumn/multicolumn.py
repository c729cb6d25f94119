"""The multi-column block: position descriptor + mini-columns."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ExecutionError
from ..positions import PositionSet
from .minicolumn import MiniColumn


@dataclass
class MultiColumn:
    """A horizontal partition of some attributes plus their valid positions.

    Mirrors the paper's definition: a covering position range, an array of
    mini-columns (one per included attribute, kept compressed), and a position
    descriptor (range, bitmap, or listed) marking which positions in the range
    remain valid after predicates.
    """

    start: int
    stop: int
    descriptor: PositionSet
    minicolumns: dict[str, MiniColumn] = field(default_factory=dict)

    @property
    def degree(self) -> int:
        """Number of included attributes (size of the mini-column array)."""
        return len(self.minicolumns)

    def attach(self, minicolumn: MiniColumn) -> None:
        """Add an attribute's mini-column to this multi-column."""
        self.minicolumns[minicolumn.column] = minicolumn

    def minicolumn(self, column: str) -> MiniColumn:
        try:
            return self.minicolumns[column]
        except KeyError:
            raise ExecutionError(
                f"multi-column has no mini-column for {column!r} "
                f"(has {sorted(self.minicolumns)})"
            ) from None

    def intersect(self, other: "MultiColumn") -> "MultiColumn":
        """AND two multi-columns (paper Section 3.6).

        The result's covering range and descriptor are the intersections of
        the inputs'; its mini-column set is the union of the inputs' — copying
        mini-column pointers is the paper's "zero-cost operation".
        """
        merged = dict(self.minicolumns)
        merged.update(other.minicolumns)
        return MultiColumn(
            start=max(self.start, other.start),
            stop=min(self.stop, other.stop),
            descriptor=self.descriptor.intersect(other.descriptor),
            minicolumns=merged,
        )

    def valid_count(self) -> int:
        return self.descriptor.count()
