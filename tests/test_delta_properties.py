"""Property-based tests of the writable store.

* merge-on-read equals a from-scratch rebuild: for any sequence of inserts
  and any query, the answer with pending rows must equal the answer after
  the tuple mover runs — and both must equal a database loaded with the
  combined data in one shot;
* :func:`repro.delta.multiset_subtract` equals a ``collections.Counter``
  row loop — the implementation it replaced — on both of its key paths;
* :func:`repro.delta.merge_sorted` equals a stable ``np.lexsort`` of
  ``stored ++ pending`` — what the tuple mover did before it — on its
  fused-key path and on both fallbacks.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import AggSpec, Database, Predicate, SelectQuery
from repro.delta import merge_sorted, multiset_subtract
from repro.dtypes import INT32, ColumnSchema

from .reference import canonical

BASE_ROWS = 4_000


def build_db(root, extra_rows):
    rng = np.random.default_rng(7)
    g = rng.integers(0, 6, size=BASE_ROWS).astype(np.int32)
    v = rng.integers(0, 50, size=BASE_ROWS).astype(np.int32)
    if extra_rows:
        g = np.concatenate([g, np.array([r[0] for r in extra_rows], np.int32)])
        v = np.concatenate([v, np.array([r[1] for r in extra_rows], np.int32)])
    db = Database(root)
    db.catalog.create_projection(
        "t",
        {"g": g, "v": v},
        schemas={"g": ColumnSchema("g", INT32), "v": ColumnSchema("v", INT32)},
        sort_keys=["g"],
        encodings={"g": ["rle"], "v": ["uncompressed"]},
        anchor="t",
    )
    return db


inserted_rows = st.lists(
    st.tuples(st.integers(0, 8), st.integers(0, 50)),
    min_size=1,
    max_size=25,
)

queries = st.sampled_from(
    [
        SelectQuery(projection="t", select=("g", "v")),
        SelectQuery(
            projection="t",
            select=("g", "v"),
            predicates=(Predicate("v", "<", 25),),
        ),
        SelectQuery(
            projection="t",
            select=("g", "sum(v)"),
            group_by="g",
            aggregates=(AggSpec("sum", "v"),),
        ),
        SelectQuery(
            projection="t",
            select=("g", "avg(v)", "count(v)"),
            predicates=(Predicate("g", ">", 1),),
            group_by="g",
            aggregates=(AggSpec("avg", "v"), AggSpec("count", "v")),
        ),
        SelectQuery(
            projection="t",
            select=("g", "min(v)", "max(v)"),
            group_by="g",
            aggregates=(AggSpec("min", "v"), AggSpec("max", "v")),
        ),
    ]
)


@given(inserted_rows, queries)
@settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_merge_on_read_equals_rebuild(tmp_path_factory, rows, query):
    live = build_db(tmp_path_factory.mktemp("live"), [])
    live.insert("t", [{"g": g, "v": v} for g, v in rows])
    with_pending = live.query(query, cold=True)

    rebuilt = build_db(tmp_path_factory.mktemp("rebuilt"), rows)
    expected = rebuilt.query(query, cold=True)
    assert np.array_equal(
        canonical(with_pending.tuples.data), canonical(expected.tuples.data)
    )

    # And the tuple mover converges to the same answer.
    live.merge("t")
    after_merge = live.query(query, cold=True)
    assert np.array_equal(
        canonical(after_merge.tuples.data), canonical(expected.tuples.data)
    )


# ------------------------------------------------------- multiset_subtract


def counter_subtract(rows, ghosts):
    """Reference: cancel ghosts against rows one-for-one, first rows first."""
    remaining = Counter(ghosts)
    keep = []
    for row in rows:
        if remaining[row]:
            remaining[row] -= 1
            keep.append(False)
        else:
            keep.append(True)
    return keep, sum(remaining.values())


def as_columns(rows, names, dtypes):
    return {
        name: np.array([row[i] for row in rows], dtype=dtype)
        for i, (name, dtype) in enumerate(zip(names, dtypes))
    }


def check_against_counter(rows, ghosts, names, dtypes, compare=None):
    """Run the kernel on *compare* (default: every column) and check it
    against the Counter loop over the same column subset."""
    compare = list(names if compare is None else compare)
    idx = [names.index(c) for c in compare]
    keep, unmatched = multiset_subtract(
        as_columns(rows, names, dtypes),
        as_columns(ghosts, names, dtypes),
        compare,
    )
    expected_keep, expected_unmatched = counter_subtract(
        [tuple(row[i] for i in idx) for row in rows],
        [tuple(row[i] for i in idx) for row in ghosts],
    )
    assert keep.dtype == bool and keep.tolist() == expected_keep
    assert unmatched == expected_unmatched


NAMES = ["a", "b", "c"]
#: Small domains, so duplicates on both sides and ghosts that hit are the
#: norm; the int8/int32 extremes ride along without leaving the fused path.
narrow_rows = st.lists(
    st.tuples(
        st.sampled_from([-128, -1, 0, 1, 127]),
        st.integers(0, 3),
        st.sampled_from([-(2**31), 0, 5, 2**31 - 1]),
    ),
    max_size=40,
)
#: Two int64 columns spanning the whole type: the mixed-radix product
#: overflows a fused int64 key, which forces the lexsort fallback.
INT64_EDGES = [-(2**63), -(2**63) + 1, -1, 0, 1, 2**63 - 2, 2**63 - 1]
wide_rows = st.lists(
    st.tuples(
        st.sampled_from(INT64_EDGES),
        st.integers(0, 2),
        st.sampled_from(INT64_EDGES),
    ),
    max_size=40,
)


@given(narrow_rows, narrow_rows)
@settings(max_examples=200, deadline=None)
def test_subtract_matches_counter_on_fused_keys(rows, ghosts):
    check_against_counter(rows, ghosts, NAMES, [np.int8, np.uint8, np.int32])


@given(wide_rows, wide_rows)
@settings(max_examples=200, deadline=None)
def test_subtract_matches_counter_when_key_would_overflow(rows, ghosts):
    check_against_counter(rows, ghosts, NAMES, [np.int64, np.int8, np.int64])


@given(wide_rows, wide_rows, st.sampled_from([["b"], ["c", "a"], ["a"]]))
@settings(max_examples=100, deadline=None)
def test_subtract_on_a_column_subset_of_a_wider_row(rows, ghosts, compare):
    # A projection (or a query result) carries fewer columns than the
    # full rows the delete multiset holds.
    check_against_counter(
        rows, ghosts, NAMES, [np.int64, np.int8, np.int64], compare=compare
    )


def test_subtract_paths_agree_and_drop_the_first_equal_rows():
    rows = [(7, 1), (3, 2), (7, 1), (7, 1), (3, 2)]
    ghosts = [(7, 1), (9, 9), (7, 1)]
    for dtypes in ([np.int32, np.int32], [np.float64, np.int32]):
        keep, unmatched = multiset_subtract(
            as_columns(rows, ["x", "y"], dtypes),
            as_columns(ghosts, ["x", "y"], dtypes),
            ["x", "y"],
        )
        # The first two (7, 1) rows die, the third survives; (9, 9) found
        # nothing to cancel. float64 cannot fuse, so it takes the fallback.
        assert keep.tolist() == [False, True, False, True, True]
        assert unmatched == 1


def test_subtract_with_an_empty_side():
    cols = as_columns([(1, 2), (1, 2)], ["x", "y"], [np.int32, np.int32])
    none = as_columns([], ["x", "y"], [np.int32, np.int32])
    keep, unmatched = multiset_subtract(cols, none, ["x", "y"])
    assert keep.tolist() == [True, True] and unmatched == 0
    keep, unmatched = multiset_subtract(none, cols, ["x", "y"])
    assert keep.tolist() == [] and unmatched == 2


def test_subtract_never_wraps_a_wide_key():
    # Distinct rows whose naive int64 mixed-radix keys collide after
    # wrap-around (2**63 * 2 == 0 mod 2**64): they must stay distinct.
    lo, hi = -(2**63), 2**63 - 1
    cols = {"a": np.array([lo, hi], np.int64), "b": np.array([lo, lo], np.int64)}
    ghost = {"a": np.array([hi], np.int64), "b": np.array([lo], np.int64)}
    keep, unmatched = multiset_subtract(cols, ghost, ["a", "b"])
    assert keep.tolist() == [True, False] and unmatched == 0


# ------------------------------------------------------------ merge_sorted


def lexsort_concat(stored, pending, sort_keys):
    """Reference: concatenate, then one stable lexsort on *sort_keys*."""
    data = {c: np.concatenate((stored[c], pending[c])) for c in stored}
    if not sort_keys:
        return data
    order = np.lexsort([data[k] for k in reversed(sort_keys)])
    return {c: values[order] for c, values in data.items()}


def check_merge(stored_rows, pending_rows, sort_keys, dtypes, presort=True):
    """Rows get a distinct ``id`` column, so the order of tied rows shows;
    *stored* is put in key order first unless *presort* is False."""
    names = NAMES + ["id"]
    dtypes = list(dtypes) + [np.int32]
    n = len(stored_rows)
    stored = as_columns(
        [row + (i,) for i, row in enumerate(stored_rows)], names, dtypes
    )
    pending = as_columns(
        [row + (n + i,) for i, row in enumerate(pending_rows)], names, dtypes
    )
    if presort:
        empty = {c: values[:0] for c, values in stored.items()}
        stored = lexsort_concat(stored, empty, sort_keys)
    got = merge_sorted(stored, pending, sort_keys)
    want = lexsort_concat(stored, pending, sort_keys)
    assert list(got) == names
    for c in names:
        assert got[c].dtype == want[c].dtype
        assert got[c].tolist() == want[c].tolist(), c


SORT_KEYS = st.sampled_from([["a"], ["b"], ["a", "b"], ["b", "c", "a"], []])


@given(narrow_rows, narrow_rows, SORT_KEYS)
@settings(max_examples=200, deadline=None)
def test_merge_matches_lexsort_on_fused_keys(stored, pending, sort_keys):
    # Small domains: ties within and across the two sides are the norm.
    check_merge(stored, pending, sort_keys, [np.int8, np.uint8, np.int32])


@given(wide_rows, wide_rows, SORT_KEYS)
@settings(max_examples=100, deadline=None)
def test_merge_matches_lexsort_when_key_does_not_fuse(
    stored, pending, sort_keys
):
    check_merge(stored, pending, sort_keys, [np.int64, np.int8, np.int64])


@given(narrow_rows, narrow_rows, SORT_KEYS)
@settings(max_examples=100, deadline=None)
def test_merge_matches_lexsort_when_stored_is_not_sorted(
    stored, pending, sort_keys
):
    # A projection created with a false presorted=True: the stored side's
    # fused key is not non-decreasing, so the merge re-sorts everything.
    check_merge(stored, pending, sort_keys, [np.int8, np.uint8, np.int32],
                presort=False)


def test_merge_places_pending_after_equal_stored_rows():
    stored = {"k": np.array([1, 2, 2, 5], np.int32),
              "id": np.array([0, 1, 2, 3], np.int32)}
    pending = {"k": np.array([2, 0, 5, 2], np.int32),
               "id": np.array([4, 5, 6, 7], np.int32)}
    got = merge_sorted(stored, pending, ["k"])
    assert got["k"].tolist() == [0, 1, 2, 2, 2, 2, 5, 5]
    assert got["id"].tolist() == [5, 0, 1, 2, 4, 7, 3, 6]
    none = {c: values[:0] for c, values in pending.items()}
    for a, b in ((stored, none), (none, pending), (none, none)):
        assert {c: v.tolist() for c, v in merge_sorted(a, b, ["k"]).items()} \
            == {c: v.tolist() for c, v in lexsort_concat(a, b, ["k"]).items()}
