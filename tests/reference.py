"""A naive row-store reference executor for integration checks.

Computes expected query answers with plain numpy over fully decoded columns,
independent of strategies, operators, position sets, or the buffer pool.
"""

from __future__ import annotations

import numpy as np

from repro.predicates import Predicate
from repro.storage.projection import Projection


def full_column(projection: Projection, name: str, encoding: str | None = None):
    """Decode an entire stored column to a value array (bypasses the pool)."""
    cf = projection.column(name).file(encoding)
    parts = [
        cf.encoding.decode(cf.read_payload(d.index), d, cf.dtype)
        for d in cf.descriptors
    ]
    if not parts:
        return np.empty(0, dtype=cf.dtype)
    return np.concatenate(parts)


def selection_mask(
    projection: Projection, predicates: list[Predicate]
) -> np.ndarray:
    mask = np.ones(projection.n_rows, dtype=bool)
    for pred in predicates:
        mask &= pred.mask(full_column(projection, pred.column))
    return mask


def reference_select(
    projection: Projection,
    select: list[str],
    predicates: list[Predicate],
) -> np.ndarray:
    """Expected (n, k) int64 result of a plain selection."""
    mask = selection_mask(projection, predicates)
    cols = [full_column(projection, c)[mask].astype(np.int64) for c in select]
    if not cols:
        return np.empty((0, 0), dtype=np.int64)
    return np.stack(cols, axis=1)


def reference_group_sum(
    projection: Projection,
    group: str,
    value: str,
    predicates: list[Predicate],
) -> np.ndarray:
    """Expected (groups, 2) result of SELECT group, SUM(value) ... GROUP BY."""
    mask = selection_mask(projection, predicates)
    g = full_column(projection, group)[mask]
    v = full_column(projection, value)[mask]
    uniques, inverse = np.unique(g, return_inverse=True)
    sums = np.bincount(inverse, weights=v).astype(np.int64)
    return np.stack([uniques.astype(np.int64), sums], axis=1)


def reference_fkpk_join(
    left: Projection,
    right: Projection,
    left_key: str,
    right_key: str,
    left_select: list[str],
    right_select: list[str],
    left_predicates: list[Predicate],
) -> np.ndarray:
    """Expected join result, rows in left-table order."""
    mask = selection_mask(left, left_predicates)
    keys = full_column(left, left_key)[mask]
    right_keys = full_column(right, right_key)
    order = np.argsort(right_keys, kind="stable")
    slots = order[np.searchsorted(right_keys[order], keys)]
    cols = [full_column(left, c)[mask].astype(np.int64) for c in left_select]
    cols += [
        full_column(right, c)[slots].astype(np.int64) for c in right_select
    ]
    return np.stack(cols, axis=1)


def canonical(rows: np.ndarray) -> np.ndarray:
    """Sort rows lexicographically for order-insensitive comparison."""
    rows = np.asarray(rows, dtype=np.int64)
    if rows.size == 0:
        return rows
    return rows[np.lexsort(tuple(rows[:, i] for i in range(rows.shape[1] - 1, -1, -1)))]


def reference_histogram_json(values, bins: int = 64, heavy_hitters: int = 16):
    """``ColumnHistogram.build(values).to_json()`` by the original algorithm:
    ``np.unique`` counts, then ``np.quantile`` edges and ``np.histogram``
    counts over an ``np.repeat``-ed copy of the residual values."""
    n = int(len(values))
    if n == 0:
        return {"common": [], "edges": [], "counts": [], "n_values": 0,
                "n_distinct": 0}
    uniques, unique_counts = np.unique(values, return_counts=True)
    distinct = int(len(uniques))
    k = min(heavy_hitters, distinct)
    threshold = n / max(bins, 1)
    order = np.argsort(unique_counts)[::-1][:k]
    hot = [i for i in order if unique_counts[i] >= threshold]
    common = [[float(uniques[i]), int(unique_counts[i])] for i in sorted(hot)]
    hot_set = set(hot)
    residual_idx = [i for i in range(distinct) if i not in hot_set]
    edges, counts = [], []
    if residual_idx:
        residual_values = np.repeat(
            uniques[residual_idx].astype(np.float64),
            unique_counts[residual_idx],
        )
        n_bins = max(1, min(bins, len(residual_idx)))
        quantiles = np.quantile(
            residual_values, np.linspace(0.0, 1.0, n_bins + 1)
        )
        edge_array = np.unique(quantiles)
        if len(edge_array) < 2:
            edge_array = np.array([edge_array[0], edge_array[0] + 1.0])
        count_array, _ = np.histogram(residual_values, bins=edge_array)
        edges = [float(e) for e in edge_array]
        counts = [int(c) for c in count_array]
    return {"common": common, "edges": edges, "counts": counts,
            "n_values": n, "n_distinct": distinct}
