"""Property-based tests: EM and LM aggregation agree with a naive reference."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.buffer import BufferPool
from repro.metrics import QueryStats
from repro.operators import ExecutionContext, TupleSet
from repro.operators.aggregate import (
    AggSpec,
    aggregate_tuples,
    aggregate_units,
    aggregate_vectors,
    factorize_groups,
    fold_partials,
    group_reduce,
    partial_specs,
)

FUNCS = ["sum", "count", "min", "max", "avg"]


def naive_reference(groups, values, func):
    """Dict of group key -> aggregate, computed row-at-a-time in Python."""
    buckets: dict = {}
    for g, v in zip(groups, values):
        buckets.setdefault(int(g), []).append(int(v))
    out = {}
    for g, vs in buckets.items():
        if func == "sum":
            out[g] = sum(vs)
        elif func == "count":
            out[g] = len(vs)
        elif func == "min":
            out[g] = min(vs)
        elif func == "max":
            out[g] = max(vs)
        else:
            out[g] = sum(vs) // len(vs)
    return out


rows = st.lists(
    st.tuples(st.integers(-5, 5), st.integers(-100, 100)),
    min_size=1,
    max_size=300,
)


@given(rows, st.sampled_from(FUNCS))
@settings(max_examples=150, deadline=None)
def test_em_aggregation_matches_naive(data, func):
    ctx = ExecutionContext(pool=BufferPool(), stats=QueryStats())
    groups = np.array([g for g, _v in data], dtype=np.int64)
    values = np.array([v for _g, v in data], dtype=np.int64)
    tuples = TupleSet.stitch({"g": groups, "v": values})
    out = aggregate_tuples(ctx, tuples, ("g",), [AggSpec(func, "v")])
    expected = naive_reference(groups, values, func)
    got = {
        int(row[0]): int(row[1])
        for row in out.select(["g", f"{func}(v)"]).rows()
    }
    assert got == expected


@given(rows, st.sampled_from(FUNCS))
@settings(max_examples=150, deadline=None)
def test_lm_aggregation_matches_em(data, func):
    ctx = ExecutionContext(pool=BufferPool(), stats=QueryStats())
    groups = np.array([g for g, _v in data], dtype=np.int64)
    values = np.array([v for _g, v in data], dtype=np.int64)
    spec = AggSpec(func, "v")
    em = aggregate_tuples(
        ctx, TupleSet.stitch({"g": groups, "v": values}), ("g",), [spec]
    )
    lm = aggregate_vectors(ctx, {"g": groups}, {"v": values}, [spec])
    assert em.select(["g", spec.output_name]).rows() == lm.select(
        ["g", spec.output_name]
    ).rows()


@given(rows, st.sampled_from(FUNCS))
@settings(max_examples=100, deadline=None)
def test_run_based_aggregation_matches_row_based(data, func):
    """AGG over a run-encoded group column equals AGG over its rows."""
    ctx = ExecutionContext(pool=BufferPool(), stats=QueryStats())
    # Sort by group so the group column has run structure, then run-encode it.
    data = sorted(data)
    groups = np.array([g for g, _v in data], dtype=np.int64)
    values = np.array([v for _g, v in data], dtype=np.int64)
    change = np.nonzero(np.diff(groups))[0]
    run_starts = np.concatenate(([0], change + 1))
    run_values = groups[run_starts]
    run_ids = np.searchsorted(run_starts, np.arange(len(groups)), side="right") - 1
    spec = AggSpec(func, "v")
    by_rows = aggregate_vectors(ctx, {"g": groups}, {"v": values}, [spec])
    by_runs = aggregate_units(ctx, "g", run_values, run_ids, {"v": values}, [spec])
    assert by_rows.select(["g", spec.output_name]).rows() == by_runs.select(
        ["g", spec.output_name]
    ).rows()


def _fold(groups, values, cuts, specs):
    """Rows cut into partials at *cuts*, each reduced to the partials of
    *specs*, then folded as COMBINE folds them: ``{output: values}``."""
    partial = partial_specs(specs)[0]
    bounds = [0, *cuts, len(values)]
    parts = [
        TupleSet.stitch(group_reduce(
            {"g": groups[lo:hi]}, {"v": values[lo:hi]}, partial
        ))
        for lo, hi in zip(bounds, bounds[1:])
    ]
    rows = TupleSet.concat(parts)
    return fold_partials(
        ["g"], {c: rows.column(c) for c in rows.columns}, specs
    )


@given(rows, st.data())
@settings(max_examples=150, deadline=None)
def test_folded_partials_equal_one_reduce(data, draw):
    """Rows split anywhere into k partials (empty ones too), each reduced
    to partials and folded, equal the rows aggregated at once."""
    groups = np.array([g for g, _v in data], dtype=np.int64)
    values = np.array([v for _g, v in data], dtype=np.int64)
    cuts = sorted(draw.draw(
        st.lists(st.integers(0, len(values)), max_size=5), label="cuts"
    ))
    specs = [AggSpec(func, "v") for func in FUNCS]
    once = group_reduce({"g": groups}, {"v": values}, specs)
    folded = _fold(groups, values, cuts, specs)
    assert list(folded) == list(once)
    for name, column in once.items():
        assert folded[name].tolist() == column.tolist(), name


def test_exact_sum_past_2_53_on_every_path():
    """Group totals past 2**53 are exact on every aggregating path: rows,
    tuples, RLE runs, and partials of four partitions folded by COMBINE
    (float64 weights round them, each path differently)."""
    ctx = ExecutionContext(pool=BufferPool(), stats=QueryStats())
    row = np.arange(1, 1000)
    values = (2**50 + row).astype(np.int64)
    run_ids = row // 7  # runs of 7 rows
    run_values = np.arange(run_ids[-1] + 1) % 3
    groups = run_values[run_ids]
    want = {
        g: (sum(int(v) for v in values[groups == g]),
            sum(int(v) for v in values[groups == g]) // int((groups == g).sum()))
        for g in range(3)
    }
    assert max(s for s, _avg in want.values()) > 2**53
    specs = [AggSpec("sum", "v"), AggSpec("avg", "v")]
    names = ["g", "sum(v)", "avg(v)"]
    outs = {
        "rows": aggregate_vectors(ctx, {"g": groups}, {"v": values}, specs),
        "tuples": aggregate_tuples(
            ctx, TupleSet.stitch({"g": groups, "v": values}), ("g",), specs
        ),
        "runs": aggregate_units(
            ctx, "g", run_values, run_ids, {"v": values}, specs
        ),
        "combine": TupleSet.stitch(_fold(groups, values, [250, 500, 750], specs)),
    }
    for path, out in outs.items():
        got = {g: (s, avg) for g, s, avg in out.select(names).rows()}
        assert got == want, path


@given(
    st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(-50, 50)),
        min_size=1,
        max_size=200,
    )
)
@settings(max_examples=100, deadline=None)
def test_compound_group_keys_match_pairwise_naive(data):
    ctx = ExecutionContext(pool=BufferPool(), stats=QueryStats())
    a = np.array([x for x, _y, _v in data], dtype=np.int64)
    b = np.array([y for _x, y, _v in data], dtype=np.int64)
    v = np.array([z for _x, _y, z in data], dtype=np.int64)
    out = aggregate_tuples(
        ctx, TupleSet.stitch({"a": a, "b": b, "v": v}), ("a", "b"),
        [AggSpec("sum", "v")],
    )
    expected: dict = {}
    for x, y, z in data:
        expected[(x, y)] = expected.get((x, y), 0) + z
    got = {
        (int(r[0]), int(r[1])): int(r[2])
        for r in out.select(["a", "b", "sum(v)"]).rows()
    }
    assert got == expected


@given(
    st.lists(st.integers(-3, 3), min_size=1, max_size=100),
    st.lists(st.integers(-3, 3), min_size=1, max_size=100),
)
@settings(max_examples=100, deadline=None)
def test_factorize_groups_properties(xs, ys):
    n = min(len(xs), len(ys))
    a = np.array(xs[:n], dtype=np.int64)
    b = np.array(ys[:n], dtype=np.int64)
    keys, inverse = factorize_groups([a, b])
    # Reconstruction: keys[inverse] reproduces the input pairs.
    assert np.array_equal(keys[0][inverse], a)
    assert np.array_equal(keys[1][inverse], b)
    # Distinctness: the key table has no duplicate pairs.
    pairs = set(zip(keys[0].tolist(), keys[1].tolist()))
    assert len(pairs) == len(keys[0])


def _unique_rows_reference(cols):
    stacked = np.stack([c.astype(np.int64) for c in cols], axis=1)
    uniques, inverse = np.unique(stacked, axis=0, return_inverse=True)
    return uniques, inverse.ravel()


def _assert_factorize_matches_reference(cols):
    keys, inverse = factorize_groups(cols)
    uniques, want_inverse = _unique_rows_reference(cols)
    assert len(keys) == len(cols)
    for i, key in enumerate(keys):
        assert key.dtype == np.int64
        assert np.array_equal(key, uniques[:, i])
    assert np.array_equal(inverse, want_inverse)
    # count(distinct v) per group over the same rows, v being the last column.
    ctx = ExecutionContext(pool=BufferPool(), stats=QueryStats())
    names = [f"g{i}" for i in range(len(cols) - 1)] or ["g0"]
    groups = dict(zip(names, cols[:-1] or cols))
    out = aggregate_vectors(
        ctx, groups, {"v": cols[-1]}, [AggSpec("count_distinct", "v")]
    )
    group_keys, group_of = _unique_rows_reference(list(groups.values()))
    pairs, _ = _unique_rows_reference([group_of, cols[-1]])
    want = np.bincount(pairs[:, 0], minlength=len(group_keys))
    assert np.array_equal(out.column("count(distinct v)"), want)


#: Per column: dtype and a multiplier on small integers. Wide multipliers
#: push the fused domain past 2n - 512 (1-D unique, or the raw column's
#: unique for one column) and, with two int64 columns, past int64 (row-wise
#: unique).
group_columns = st.lists(
    st.sampled_from([
        (np.bool_, 1), (np.uint8, 1), (np.int32, 1), (np.int32, 10**4),
        (np.int64, 1), (np.int64, 10**9), (np.int64, 2**52),
    ]),
    min_size=1,
    max_size=3,
)


@given(group_columns, st.data())
@settings(max_examples=200, deadline=None)
def test_factorize_and_count_distinct_equal_unique_rows(columns, data):
    n = data.draw(st.integers(0, 150))
    # Tiled eight times, most small domains fall within 2n - 512: the
    # occupancy branch.
    tiles = data.draw(st.sampled_from([1, 8]))
    cols = []
    for dtype, scale in columns:
        raw = data.draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))
        values = np.array(raw, dtype=np.int64)
        if dtype is np.bool_:
            cols.append(values > 0)
        elif dtype is np.uint8:
            cols.append((values + 4).astype(np.uint8))
        else:
            cols.append((values * scale).astype(dtype))
    _assert_factorize_matches_reference([np.tile(c, tiles) for c in cols])


@pytest.mark.parametrize(
    "cols",
    [
        [np.tile(np.array([3, 1, 3, 2], np.int32), 100),
         np.tile(np.array([0, 1, 0, 1], bool), 100)],
        [np.tile(np.array([7, -2, 7, 5], np.int64), 100)],
        [np.array([3, 1, 3, 2], dtype=np.int32), np.array([0, 1, 0, 1], bool)],
        [np.array([10**9, -(10**9), 10**9]), np.array([2, 5, 2], np.uint8)],
        [np.tile(np.array([10**6, 1, 10**6], np.int32), 100)],
        [np.array([2**62, -(2**62), 2**62]), np.array([2**62, 0, 2**62])],
        [np.empty(0, np.int64), np.empty(0, np.int32)],
    ],
    ids=[
        "dense", "dense-one-column", "small-n", "1-d-unique",
        "wide-one-column", "int64-overflow", "empty",
    ],
)
def test_factorize_branches_equal_unique_rows(cols):
    _assert_factorize_matches_reference(cols)
