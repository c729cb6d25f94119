"""Unit tests for the row-major TupleSet."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ExecutionError
from repro.metrics import QueryStats
from repro.operators.tuples import POSITION_COLUMN, TupleSet


def make_tuples():
    return TupleSet.stitch(
        {
            POSITION_COLUMN: np.array([0, 1, 2, 3]),
            "a": np.array([10, 20, 30, 40]),
            "b": np.array([1, 2, 3, 4]),
        }
    )


class TestStitch:
    def test_shape_and_row_major(self):
        ts = make_tuples()
        assert ts.n_tuples == 4
        assert ts.data.shape == (4, 3)
        assert ts.data.flags["C_CONTIGUOUS"]

    def test_counts_constructions(self):
        stats = QueryStats()
        TupleSet.stitch({"a": np.arange(7)}, stats=stats)
        assert stats.tuples_constructed == 7

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ExecutionError):
            TupleSet.stitch({"a": np.arange(3), "b": np.arange(4)})

    def test_shape_validation(self):
        with pytest.raises(ExecutionError):
            TupleSet(columns=("a", "b"), data=np.zeros((3, 3), dtype=np.int64))


class TestAccess:
    def test_column_view(self):
        ts = make_tuples()
        assert ts.column("a").tolist() == [10, 20, 30, 40]
        assert ts.positions.tolist() == [0, 1, 2, 3]

    def test_unknown_column(self):
        with pytest.raises(ExecutionError):
            make_tuples().column("zzz")

    def test_rows(self):
        assert make_tuples().rows()[0] == (0, 10, 1)

    def test_rows_are_tuples_of_python_int(self):
        rows = make_tuples().rows()
        assert rows == [(0, 10, 1), (1, 20, 2), (2, 30, 3), (3, 40, 4)]
        for row in rows:
            assert type(row) is tuple
            assert all(type(v) is int for v in row)

    def test_rows_round_trip_int64_extremes(self):
        lo, hi = np.iinfo(np.int64).min, np.iinfo(np.int64).max
        ts = TupleSet(("x", "y"), np.array([[lo, hi], [hi, lo]], dtype=np.int64))
        assert ts.rows() == [(int(lo), int(hi)), (int(hi), int(lo))]
        assert np.array_equal(np.array(ts.rows(), dtype=np.int64), ts.data)

    def test_rows_of_empty_block(self):
        assert TupleSet.empty(("a", "b", "c")).rows() == []

    @settings(max_examples=30, deadline=None)
    @given(st.lists(
        st.tuples(st.integers(-(2**63), 2**63 - 1),
                  st.integers(-(2**63), 2**63 - 1)),
        max_size=20,
    ))
    def test_rows_equal_the_per_cell_loop(self, values):
        ts = TupleSet(("a", "b"), np.array(values, dtype=np.int64).reshape(-1, 2))
        assert ts.rows() == [tuple(int(v) for v in row) for row in ts.data]


class TestTransforms:
    def test_filter(self):
        ts = make_tuples().filter(np.array([True, False, True, False]))
        assert ts.n_tuples == 2
        assert ts.column("a").tolist() == [10, 30]

    def test_extend(self):
        stats = QueryStats()
        ts = make_tuples().extend("c", np.array([7, 8, 9, 10]), stats=stats)
        assert ts.columns[-1] == "c"
        assert ts.column("c").tolist() == [7, 8, 9, 10]
        assert stats.tuples_constructed == 4

    def test_without(self):
        ts = make_tuples().without(POSITION_COLUMN)
        assert POSITION_COLUMN not in ts.columns
        assert ts.data.shape == (4, 2)

    def test_select_reorders(self):
        ts = make_tuples().select(["b", "a"])
        assert ts.columns == ("b", "a")
        assert ts.rows()[0] == (1, 10)

    def test_concat(self):
        a = make_tuples()
        b = make_tuples()
        out = TupleSet.concat([a, b])
        assert out.n_tuples == 8

    def test_concat_mismatch_rejected(self):
        with pytest.raises(ExecutionError):
            TupleSet.concat([make_tuples(), make_tuples().without("a")])

    def test_empty(self):
        ts = TupleSet.empty(("a", "b"))
        assert ts.n_tuples == 0
        assert ts.columns == ("a", "b")


# ---- one block write per construction; projection to the same columns is free


def _reference_project(ts: TupleSet, names) -> np.ndarray:
    """The projection ``select``/``without`` replaced: fancy index + copy."""
    idx = [ts.column_index(n) for n in names]
    return np.ascontiguousarray(ts.data[:, idx])


@st.composite
def tuple_sets(draw, min_columns=1):
    width = draw(st.integers(min_columns, 16))
    n = draw(st.integers(0, 40))
    data = draw(
        st.lists(
            st.lists(
                st.integers(-(2**62), 2**62), min_size=width, max_size=width
            ),
            min_size=n,
            max_size=n,
        )
    )
    block = np.array(data, dtype=np.int64).reshape(n, width)
    return TupleSet(columns=tuple(f"c{i}" for i in range(width)), data=block)


class TestProjection:
    def test_select_same_columns_is_free(self):
        ts = make_tuples()
        assert ts.select(list(ts.columns)) is ts
        assert ts.select(ts.columns) is ts

    @given(ts=tuple_sets(), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_select_matches_reference(self, ts, data):
        names = data.draw(
            st.lists(st.sampled_from(ts.columns), min_size=1, max_size=20)
        )
        out = ts.select(names)
        assert out.columns == tuple(names)
        assert out.data.flags["C_CONTIGUOUS"]
        assert out.data.dtype == np.int64
        assert np.array_equal(out.data, _reference_project(ts, names))
        if tuple(names) != ts.columns:
            assert not np.shares_memory(out.data, ts.data)

    @given(ts=tuple_sets(min_columns=2), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_without_matches_reference(self, ts, data):
        drop = data.draw(st.sampled_from(ts.columns))
        keep = [c for c in ts.columns if c != drop]
        out = ts.without(drop)
        assert out.columns == tuple(keep)
        assert out.data.flags["C_CONTIGUOUS"]
        assert np.array_equal(out.data, _reference_project(ts, keep))

    def test_without_unknown_column(self):
        with pytest.raises(ExecutionError):
            make_tuples().without("nope")

    def test_projection_of_a_strided_block(self):
        ts = make_tuples()
        strided = TupleSet(columns=ts.columns, data=ts.data[::2])
        out = strided.select(["b", POSITION_COLUMN])
        assert out.rows() == [(1, 0), (3, 2)]


class TestFilterExtend:
    @given(
        ts=tuple_sets(),
        data=st.data(),
        dtype=st.sampled_from([np.int8, np.int32, np.int64]),
        mask_kind=st.sampled_from(["random", "all", "none"]),
    )
    @settings(max_examples=150, deadline=None)
    def test_equals_filter_then_extend(self, ts, data, dtype, mask_kind):
        n = ts.n_tuples
        if mask_kind == "random":
            mask = np.array(
                data.draw(st.lists(st.booleans(), min_size=n, max_size=n)),
                dtype=bool,
            )
        else:
            mask = np.full(n, mask_kind == "all")
        info = np.iinfo(dtype)
        values = np.array(
            data.draw(
                st.lists(
                    st.integers(int(info.min), int(info.max)),
                    min_size=n,
                    max_size=n,
                )
            ),
            dtype=dtype,
        )
        want_stats, got_stats = QueryStats(), QueryStats()
        want = ts.filter(mask).extend("new", values[mask], stats=want_stats)
        got = ts.filter_extend(mask, "new", values, stats=got_stats)
        assert got.columns == want.columns
        assert got.data.dtype == np.int64
        assert got.data.flags["C_CONTIGUOUS"]
        assert np.array_equal(got.data, want.data)
        assert got_stats.as_dict() == want_stats.as_dict()
        assert got_stats.tuples_constructed == int(mask.sum())

    def test_does_not_touch_its_input(self):
        ts = make_tuples()
        before = ts.data.copy()
        out = ts.filter_extend(
            np.array([True, True, False, True]), "c", np.arange(4)
        )
        out.data[:] = -1
        assert np.array_equal(ts.data, before)

    def test_strided_input(self):
        ts = make_tuples()
        strided = TupleSet(columns=ts.columns, data=ts.data[::2])
        out = strided.filter_extend(np.array([False, True]), "c", [5, 6])
        assert out.rows() == [(2, 30, 3, 6)]


class TestStitchDtypes:
    @given(
        dtype=st.sampled_from(
            [np.int8, np.uint8, np.int16, np.int32, np.uint32, np.int64, bool]
        ),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_narrow_dtypes_equal_the_int64_path(self, dtype, data):
        n = data.draw(st.integers(0, 30))
        if dtype is bool:
            elements = st.booleans()
        else:
            info = np.iinfo(dtype)
            elements = st.integers(int(info.min), int(info.max))
        cols = {
            name: np.array(
                data.draw(st.lists(elements, min_size=n, max_size=n)),
                dtype=dtype,
            )
            for name in ("a", "b", "c")
        }
        got = TupleSet.stitch(cols)
        want = np.stack(
            [np.asarray(cols[c], dtype=np.int64) for c in cols], axis=1
        ).reshape(n, 3)
        assert got.data.dtype == np.int64
        assert got.data.flags["C_CONTIGUOUS"]
        assert np.array_equal(got.data, want)

    def test_python_lists_still_stitch(self):
        ts = TupleSet.stitch({"a": [1, 2, 3], "b": np.array([4, 5, 6])})
        assert ts.rows() == [(1, 4), (2, 5), (3, 6)]
