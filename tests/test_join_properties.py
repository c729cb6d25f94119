"""Property-based tests: every join strategy combination equals a naive join,
and the shared probe kernel equals a sort-based reference on every branch."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    Database,
    JoinQuery,
    Predicate,
    RightTableStrategy,
)
from repro.buffer import BufferPool
from repro.dtypes import INT32, INT64, ColumnSchema
from repro.metrics import QueryStats
from repro.operators import ExecutionContext
from repro.operators.joins import _probe


@pytest.fixture(scope="module")
def join_db(tmp_path_factory):
    """A small FK-PK pair with deterministic contents."""
    rng = np.random.default_rng(123)
    n_right = 400
    n_left = 5_000
    db = Database(tmp_path_factory.mktemp("join_prop"))
    db.catalog.create_projection(
        "fact",
        {
            "ts": np.sort(rng.integers(0, 1000, size=n_left)).astype(np.int64),
            "key": rng.integers(1, n_right + 1, size=n_left),
            "measure": rng.integers(0, 100, size=n_left).astype(np.int32),
        },
        schemas={
            "ts": ColumnSchema("ts", INT64),
            "key": ColumnSchema("key", INT64),
            "measure": ColumnSchema("measure", INT32),
        },
        sort_keys=["ts"],
        encodings={
            "ts": ["rle"],
            "key": ["uncompressed"],
            "measure": ["uncompressed"],
        },
        presorted=True,
    )
    db.catalog.create_projection(
        "dim",
        {
            "key": np.arange(1, n_right + 1, dtype=np.int64),
            "attr": rng.integers(0, 25, size=n_right).astype(np.int32),
        },
        schemas={
            "key": ColumnSchema("key", INT64),
            "attr": ColumnSchema("attr", INT32),
        },
        sort_keys=["key"],
        encodings={"key": ["uncompressed"], "attr": ["uncompressed"]},
        presorted=True,
    )
    from .reference import full_column

    fact = {
        c: full_column(db.projection("fact"), c)
        for c in ("ts", "key", "measure")
    }
    dim_attr = full_column(db.projection("dim"), "attr")
    return db, fact, dim_attr


def naive_join(fact, dim_attr, predicates):
    mask = np.ones(len(fact["key"]), dtype=bool)
    for col, op, value in predicates:
        import operator

        ops = {"<": operator.lt, ">": operator.gt, "=": operator.eq}
        mask &= ops[op](fact[col], value)
    keys = fact["key"][mask]
    return np.stack(
        [
            fact["ts"][mask].astype(np.int64),
            fact["measure"][mask].astype(np.int64),
            dim_attr[keys - 1].astype(np.int64),
        ],
        axis=1,
    )


join_predicates = st.lists(
    st.tuples(
        st.sampled_from(["ts", "key", "measure"]),
        st.sampled_from(["<", ">", "="]),
        st.integers(0, 1000),
    ),
    min_size=0,
    max_size=2,
).filter(lambda preds: len({c for c, _o, _v in preds}) == len(preds))


@given(
    join_predicates,
    st.sampled_from(list(RightTableStrategy)),
    st.sampled_from(["early", "late"]),
)
@settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_join_matches_naive(join_db, predicates, right_strategy, left_strategy):
    db, fact, dim_attr = join_db
    query = JoinQuery(
        left="fact",
        right="dim",
        left_key="key",
        right_key="key",
        left_select=("ts", "measure"),
        right_select=("attr",),
        left_predicates=tuple(
            Predicate(col, op, value) for col, op, value in predicates
        ),
        left_strategy=left_strategy,
    )
    result = db.query(query, strategy=right_strategy, cold=True)
    expected = naive_join(fact, dim_attr, predicates)
    assert np.array_equal(result.tuples.data, expected)


@given(st.integers(0, 1001))
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_join_strategies_agree_pairwise(join_db, boundary):
    db, _fact, _dim = join_db
    query = JoinQuery(
        left="fact",
        right="dim",
        left_key="key",
        right_key="key",
        left_select=("ts",),
        right_select=("attr",),
        left_predicates=(Predicate("ts", "<", boundary),),
    )
    results = [
        db.query(query, strategy=s, cold=True).tuples.data
        for s in RightTableStrategy
    ]
    assert np.array_equal(results[0], results[1])
    assert np.array_equal(results[0], results[2])


def _reference_probe(left_keys, right_keys):
    """The stable-argsort + ``searchsorted`` probe (first occurrence wins)."""
    if len(right_keys) == 0:
        return np.zeros(len(left_keys), dtype=bool), np.empty(0, dtype=np.int64)
    order = np.argsort(right_keys, kind="stable")
    sorted_keys = right_keys[order]
    slot = np.minimum(np.searchsorted(sorted_keys, left_keys), len(right_keys) - 1)
    mask = sorted_keys[slot] == left_keys
    return mask, order[slot[mask]]


def _assert_probe_matches_reference(left_keys, right_keys):
    ctx = ExecutionContext(pool=BufferPool(), stats=QueryStats())
    mask, index = _probe(ctx, left_keys, right_keys)
    want_mask, want_index = _reference_probe(left_keys, right_keys)
    assert mask.dtype == bool
    assert np.array_equal(mask, want_mask)
    assert np.array_equal(index, want_index)
    assert ctx.stats.function_calls == len(left_keys) + len(right_keys)
    assert ctx.stats.column_iterations == len(left_keys) + len(right_keys)


@given(
    st.lists(st.integers(-60, 60), max_size=80),
    st.lists(st.integers(-150, 150), max_size=120),
    st.sampled_from([1, 3, 40, 10**6]),
    st.sampled_from([np.int32, np.int64]),
    st.sampled_from([np.int32, np.int64]),
)
@settings(max_examples=300, deadline=None)
def test_probe_equals_sort_reference(right, left, stride, right_dtype, left_dtype):
    """Dense (stride 1), dense-with-gaps and sparse right keys, duplicates
    among them, and left keys below, inside and beyond the right key domain,
    over mixed int32/int64 sides."""
    right_keys = (np.array(right, dtype=np.int64) * stride).astype(right_dtype)
    left_keys = (np.array(left, dtype=np.int64) * stride).astype(left_dtype)
    _assert_probe_matches_reference(left_keys, right_keys)


@pytest.mark.parametrize(
    "right_keys",
    [
        np.arange(7, 507, dtype=np.int64),  # sorted dense PK: direct address
        np.arange(2**63 - 500, 2**63 - 1, dtype=np.int64),  # ... at int64 max
        np.arange(506, 6, -1, dtype=np.int64),  # dense, out of order: sort
        np.array([5, 6, 6, 8], dtype=np.int64),  # sorted, last - first = m-1
        np.array([5, 9, 5, 7, 9, 6], dtype=np.int64),  # duplicates: first wins
        np.arange(0, 50_000, 1000, dtype=np.int64),  # sparse: sort
        np.empty(0, dtype=np.int64),
    ],
    ids=[
        "dense-pk", "dense-pk-at-max", "unsorted", "sorted-duplicate",
        "duplicates", "sparse", "empty",
    ],
)
@pytest.mark.parametrize("left_dtype", [np.int32, np.int64])
def test_probe_equals_sort_reference_by_branch(right_keys, left_dtype):
    left_keys = np.concatenate([
        np.arange(-20, 600), np.arange(0, 50_000, 999),
    ]).astype(left_dtype)
    info = np.iinfo(left_dtype)
    left_keys = np.concatenate([left_keys, [info.min, info.max]]).astype(left_dtype)
    _assert_probe_matches_reference(left_keys, right_keys)
    _assert_probe_matches_reference(left_keys[:0], right_keys)
