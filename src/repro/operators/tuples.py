"""Row-store-style tuples for early materialization.

A :class:`TupleSet` stores n-attribute tuples in a single row-major 2D int64
array — genuinely interleaved like a row store page, so that per-column access
is strided and stitching requires a real copy. Early materialization pays
these costs; late materialization avoids them until the final merge.

The rule this module enforces: one block write per ``tuples_constructed``
charge. Every constructor (:meth:`TupleSet.stitch`, :meth:`TupleSet.extend`,
:meth:`TupleSet.filter_extend`) allocates its block once and fills it once;
projection to the same columns is free (:meth:`TupleSet.select` returns
``self``) and any other projection is a single pass into a C-contiguous block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ExecutionError

POSITION_COLUMN = "_pos"


@dataclass
class TupleSet:
    """A batch of row-major tuples.

    Attributes:
        columns: attribute name per tuple slot, in slot order. The reserved
            name ``_pos`` carries the tuple's original position for plans
            (EM-pipelined) that still need to jump into other columns.
        data: int64 array of shape (n_tuples, len(columns)), row-major.
    """

    columns: tuple[str, ...]
    data: np.ndarray

    def __post_init__(self):
        if self.data.ndim != 2 or self.data.shape[1] != len(self.columns):
            raise ExecutionError(
                f"tuple data shape {self.data.shape} does not match "
                f"{len(self.columns)} columns"
            )

    @classmethod
    def stitch(cls, columns: dict[str, np.ndarray], stats=None) -> "TupleSet":
        """Construct tuples from parallel value vectors (the expensive copy).

        Interleaves the vectors into one row-major block and counts each
        produced tuple as constructed.
        """
        names = tuple(columns)
        lengths = {len(columns[name]) for name in names}
        if len(lengths) > 1:
            raise ExecutionError(f"stitch inputs differ in length: {lengths}")
        n = lengths.pop() if lengths else 0
        data = np.empty((n, len(names)), dtype=np.int64)
        for i, name in enumerate(names):
            data[:, i] = columns[name]  # narrow dtypes widen on assignment
        if stats is not None:
            stats.tuples_constructed += n
        return cls(columns=names, data=data)

    @classmethod
    def empty(cls, columns: tuple[str, ...]) -> "TupleSet":
        return cls(columns=columns, data=np.empty((0, len(columns)), dtype=np.int64))

    @property
    def n_tuples(self) -> int:
        return self.data.shape[0]

    def column_index(self, name: str) -> int:
        try:
            return self.columns.index(name)
        except ValueError:
            raise ExecutionError(
                f"tuple set has no column {name!r} (has {self.columns})"
            ) from None

    def column(self, name: str) -> np.ndarray:
        """Strided view of one attribute across all tuples."""
        return self.data[:, self.column_index(name)]

    @property
    def positions(self) -> np.ndarray:
        return self.column(POSITION_COLUMN)

    def filter(self, mask: np.ndarray) -> "TupleSet":
        """Keep tuples where *mask* is True (row-major copy)."""
        return TupleSet(columns=self.columns, data=self.data[mask])

    def extend(self, name: str, values: np.ndarray, stats=None) -> "TupleSet":
        """Widen every tuple by one attribute (re-materializes each row)."""
        n = self.n_tuples
        data = np.empty((n, len(self.columns) + 1), dtype=np.int64)
        data[:, : len(self.columns)] = self.data
        data[:, -1] = values
        if stats is not None:
            stats.tuples_constructed += n
        return TupleSet(columns=self.columns + (name,), data=data)

    def filter_extend(
        self, mask: np.ndarray, name: str, values: np.ndarray, stats=None
    ) -> "TupleSet":
        """``filter(mask).extend(name, values[mask])`` in one block write.

        Rows move as opaque ``8 * width``-byte records straight into their
        slot of the widened block, which costs the same per byte for 2-column
        and 16-column tuples (a column-at-a-time fill does not).
        """
        keep = np.flatnonzero(mask)
        row = np.dtype(f"V{8 * len(self.columns)}")
        block = np.empty(len(keep), dtype=[("row", row), ("new", np.int64)])
        rows = np.ascontiguousarray(self.data, dtype=np.int64).view(row).ravel()
        # mode="clip" lets take() write through ``out`` unbuffered.
        np.take(rows, keep, out=block["row"], mode="clip")
        block["new"] = np.asarray(values)[keep]
        if stats is not None:
            stats.tuples_constructed += len(keep)
        return TupleSet(
            columns=self.columns + (name,),
            data=block.view(np.int64).reshape(len(keep), len(self.columns) + 1),
        )

    def without(self, name: str) -> "TupleSet":
        """Project away one attribute (used to drop ``_pos`` before output)."""
        self.column_index(name)  # an unknown column is an error, not a no-op
        return self.select([c for c in self.columns if c != name])

    def select(self, names: list[str]) -> "TupleSet":
        """Project to the given attributes, in order.

        Free when they already are this set's columns (returns ``self``);
        otherwise one pass into a fresh C-contiguous block.
        """
        names = tuple(names)
        if names == self.columns:
            return self
        idx = [self.column_index(n) for n in names]
        data = np.empty((self.n_tuples, len(idx)), dtype=self.data.dtype)
        np.take(self.data, idx, axis=1, out=data, mode="clip")
        return TupleSet(columns=names, data=data)

    def rows(self) -> list[tuple[int, ...]]:
        """Materialise as Python tuples (tests and small outputs only)."""
        return [tuple(int(v) for v in row) for row in self.data]

    @classmethod
    def concat(cls, parts: list["TupleSet"]) -> "TupleSet":
        if not parts:
            raise ExecutionError("concat of zero tuple sets")
        cols = parts[0].columns
        for p in parts[1:]:
            if p.columns != cols:
                raise ExecutionError("concat of mismatched tuple sets")
        return cls(columns=cols, data=np.vstack([p.data for p in parts]))
