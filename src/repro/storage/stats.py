"""Per-column statistics: end-biased histograms.

Block min/max interpolation (the fallback estimator) assumes uniform values —
badly wrong for skewed columns. The histogram built at write time combines
the two classic fixes:

* **exact heavy hitters** — the most frequent values get exact counts
  (end-biased), so point and boundary queries around hot values are precise;
* **equi-depth bins** for the remaining mass — bin edges at quantiles, so
  skewed regions get narrow bins and every bin carries comparable mass.

Stored in the column file header; ``estimate(predicate)`` returns a
selectivity in ``[0, 1]``.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass

import numpy as np

DEFAULT_BINS = 64
DEFAULT_HEAVY_HITTERS = 16


def _value_counts(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct values and their counts, as ``np.unique`` gives them.

    An integer column whose value range is at most four times its length is
    counted with one ``bincount`` over offsets from its minimum; anything
    else (wide ranges, floats, uint64) takes ``np.unique``'s sort.
    """
    kind = values.dtype.kind
    if kind == "i" or kind == "u" and values.itemsize < 8:
        lo = values.min()
        if int(values.max()) - int(lo) < 4 * len(values):
            counts = np.bincount(np.subtract(values, lo, dtype=np.intp))
            present = np.flatnonzero(counts)
            return present + int(lo), counts[present]
    return np.unique(values, return_counts=True)


def _linear_quantiles(
    res_values: np.ndarray, below: np.ndarray, q: np.ndarray
) -> np.ndarray:
    """``np.quantile(sorted_values, q)`` (method ``linear``) where the sorted
    values are ``res_values[j]`` repeated ``below[j+1] - below[j]`` times.

    Follows numpy's arithmetic step for step so the floats are identical:
    virtual index ``(m-1)·q``, its floor and floor+1 as neighbours (both the
    last value at or past ``m-1``), and ``_lerp``'s two-sided formula.
    """
    m = int(below[-1])
    virtual = (m - 1) * q
    previous = np.floor(virtual)
    following = previous + 1
    past_end = virtual >= m - 1
    previous[past_end] = -1
    following[past_end] = -1
    previous = previous.astype(np.intp)
    following = following.astype(np.intp)
    # Sorted position i holds the value whose run covers i (-1 = the last).
    runs = below[1:]
    a = res_values[np.searchsorted(runs, previous % m, side="right")]
    b = res_values[np.searchsorted(runs, following % m, side="right")]
    gamma = virtual - previous
    diff = b - a
    out = a + diff * gamma
    np.subtract(b, diff * (1 - gamma), out=out, where=gamma >= 0.5)
    return out


@dataclass(frozen=True)
class ColumnHistogram:
    """Heavy hitters + equi-depth histogram over the residual mass.

    Attributes:
        common: ``(value, count)`` pairs for the most frequent values, exact.
        edges: non-decreasing bin edges over the residual values
            (``len(edges) == len(counts) + 1``; empty when no residual).
        counts: residual values per bin.
        n_values: total number of values (heavy + residual).
        n_distinct: exact distinct count at build time.
    """

    common: tuple[tuple[float, int], ...]
    edges: tuple[float, ...]
    counts: tuple[int, ...]
    n_values: int
    n_distinct: int

    @classmethod
    def build(
        cls,
        values: np.ndarray,
        bins: int = DEFAULT_BINS,
        heavy_hitters: int = DEFAULT_HEAVY_HITTERS,
    ) -> "ColumnHistogram":
        """Histogram of *values*, built from their distinct values and counts.

        The equi-depth edges are ``np.quantile`` (method ``linear``) of the
        residual values and the bin counts ``np.histogram``'s over them,
        float for float, but both come from the residual values' cumulative
        counts: no per-value copy of the residual is made.
        """
        values = np.asarray(values)
        n = int(len(values))
        if n == 0:
            return cls((), (), (), 0, 0)
        uniques, unique_counts = _value_counts(values)
        distinct = int(len(uniques))

        # Exact counts for values holding disproportionate mass.
        k = min(heavy_hitters, distinct)
        threshold = n / max(bins, 1)
        order = np.argsort(unique_counts)[::-1][:k]
        hot = np.sort(order[unique_counts[order] >= threshold])
        common = tuple(
            (float(uniques[i]), int(unique_counts[i])) for i in hot
        )
        residual = np.ones(distinct, dtype=bool)
        residual[hot] = False
        if not residual.any():
            return cls(common=common, edges=(), counts=(), n_values=n,
                       n_distinct=distinct)

        # Sorted, the residual values are each res_values[j] repeated as
        # often as it occurs; below[j] of them lie before res_values[j].
        res_values = uniques[residual].astype(np.float64)
        below = np.concatenate(([0], np.cumsum(unique_counts[residual])))
        n_bins = max(1, min(bins, len(res_values)))
        edges = np.unique(
            _linear_quantiles(
                res_values, below, np.linspace(0.0, 1.0, n_bins + 1)
            )
        )
        if len(edges) < 2:
            # From 2**53 on, edges[0] + 1.0 rounds back to edges[0]; files
            # written before this fallback hold such equal edges.
            upper = max(edges[0] + 1.0, np.nextafter(edges[0], np.inf))
            edges = np.array([edges[0], upper])
        # np.histogram: bins are half-open except the last, which is closed.
        cumulative = np.concatenate((
            below[np.searchsorted(res_values, edges[:-1], side="left")],
            below[np.searchsorted(res_values, edges[-1:], side="right")],
        ))
        return cls(
            common=common,
            edges=tuple(float(e) for e in edges),
            counts=tuple(int(c) for c in np.diff(cumulative)),
            n_values=n,
            n_distinct=distinct,
        )

    # ------------------------------------------------------------------ math

    @property
    def residual_total(self) -> int:
        return sum(self.counts)

    @property
    def residual_distinct(self) -> int:
        return max(self.n_distinct - len(self.common), 1)

    def _residual_mass_below(self, boundary: float) -> float:
        """Residual values strictly below *boundary* (interpolated)."""
        if not self.counts:
            return 0.0
        edges = self.edges
        if boundary <= edges[0]:
            return 0.0
        if boundary > edges[-1]:
            return float(self.residual_total)
        mass = 0.0
        for i, count in enumerate(self.counts):
            lo, hi = edges[i], edges[i + 1]
            if boundary >= hi:
                mass += count
            elif boundary > lo:
                mass += count * (boundary - lo) / (hi - lo)
                break
            else:
                break
        return mass

    def _residual_point_mass(self, value: float) -> float:
        if not self.counts or not self.edges[0] <= value <= self.edges[-1]:
            return 0.0
        index = int(np.searchsorted(self.edges, value, side="right")) - 1
        index = min(max(index, 0), len(self.counts) - 1)
        distinct_per_bin = max(self.residual_distinct / len(self.counts), 1.0)
        return self.counts[index] / distinct_per_bin

    def _point_mass(self, value: float) -> float:
        for v, count in self.common:
            if v == value:
                return float(count)
        return self._residual_point_mass(value)

    def _mass_below(self, boundary: float) -> float:
        exact = sum(count for v, count in self.common if v < boundary)
        return exact + self._residual_mass_below(boundary)

    def estimate(self, pred) -> float:
        """Estimated selectivity of a predicate against this column."""
        if self.n_values == 0:
            return 0.0
        in_values = getattr(pred, "in_values", None)
        if in_values is not None:
            mass = sum(self._point_mass(v) for v in in_values)
        else:
            op, value = pred.op, pred.value
            if op == "<":
                mass = self._mass_below(value)
            elif op == "<=":
                mass = self._mass_below(value) + self._point_mass(value)
            elif op == ">":
                mass = (
                    self.n_values
                    - self._mass_below(value)
                    - self._point_mass(value)
                )
            elif op == ">=":
                mass = self.n_values - self._mass_below(value)
            elif op == "=":
                mass = self._point_mass(value)
            else:  # "!="
                mass = self.n_values - self._point_mass(value)
        return min(max(mass / self.n_values, 0.0), 1.0)

    # ----------------------------------------------------------- persistence

    def to_json(self) -> dict:
        return {
            "common": [[v, c] for v, c in self.common],
            "edges": list(self.edges),
            "counts": list(self.counts),
            "n_values": self.n_values,
            "n_distinct": self.n_distinct,
        }

    @classmethod
    def from_json(cls, data: dict) -> "ColumnHistogram":
        """Decode :meth:`to_json`'s form.

        Raises:
            ValueError: an element is of the wrong kind: ``common`` holds
                (number, count) pairs, ``edges`` non-decreasing numbers,
                one more than ``counts`` unless both are empty.
        """
        common, edges, counts = data["common"], data["edges"], data["counts"]
        valid = {
            "common": all(type(pair) is list and len(pair) == 2
                          and _is_number(pair[0]) and _is_count(pair[1])
                          for pair in common),
            "edges": all(map(_is_number, edges))
            and all(a <= b for a, b in zip(edges, edges[1:])),
            "counts": all(map(_is_count, counts))
            and len(edges) == (len(counts) + 1 if counts else 0),
            "n_values": _is_count(data["n_values"]),
            "n_distinct": _is_count(data["n_distinct"]),
        }
        for key, ok in valid.items():
            if not ok:
                raise ValueError(f"{key} is {reprlib.repr(data[key])}")
        return cls(
            common=tuple((float(v), c) for v, c in common),
            edges=tuple(edges),
            counts=tuple(counts),
            n_values=data["n_values"],
            n_distinct=data["n_distinct"],
        )


def _is_number(value) -> bool:
    return type(value) in (int, float)


def _is_count(value) -> bool:
    return type(value) is int and value >= 0
