"""Unit tests for the delta module's merge machinery."""

import numpy as np
import pytest

from repro import AggSpec, Predicate, SelectQuery
from repro.delta import (
    DeltaStore,
    PendingWrites,
    delta_aggregate,
    delta_select,
    expand_avg,
    merge_aggregates,
)
from repro.dtypes import INT8, INT32, ColumnSchema
from repro.errors import EncodingError
from repro.operators.tuples import TupleSet
from repro.planner.nodes import stored_query


class TestExpandAvg:
    def test_plain_specs_pass_through(self):
        specs = (AggSpec("sum", "v"), AggSpec("count", "v"))
        internal, plan = expand_avg(specs)
        assert internal == list(specs)
        assert plan == {
            "sum(v)": ("direct", "sum(v)"),
            "count(v)": ("direct", "count(v)"),
        }

    def test_avg_expands_to_sum_and_count(self):
        internal, plan = expand_avg((AggSpec("avg", "v"),))
        assert internal == [AggSpec("sum", "v"), AggSpec("count", "v")]
        assert plan == {"avg(v)": ("avg", "sum(v)", "count(v)")}

    def test_avg_reuses_existing_partials(self):
        specs = (AggSpec("sum", "v"), AggSpec("avg", "v"))
        internal, _plan = expand_avg(specs)
        assert internal == [AggSpec("sum", "v"), AggSpec("count", "v")]


class TestInternalQuery:
    """What the stored part of a plan that combines partials runs
    (:func:`repro.planner.nodes.stored_query`), here over pending inserts."""

    # With pending writes there is always a COMBINE, whatever the layout
    # of the projection (so none is passed).
    PENDING = PendingWrites(inserts={"a": np.array([1])}, deletes={})

    def test_plain_select_strips_order_and_limit(self):
        query = SelectQuery(
            projection="t",
            select=("a",),
            order_by=(("a", True),),
            limit=3,
        )
        rewritten = stored_query(None, query, self.PENDING)
        assert rewritten.order_by == ()
        assert rewritten.limit is None

    def test_aggregate_rewrite(self):
        query = SelectQuery(
            projection="t",
            select=("g", "avg(v)"),
            group_by="g",
            aggregates=(AggSpec("avg", "v"),),
            having=(Predicate("avg(v)", ">", 1),),
        )
        rewritten = stored_query(None, query, self.PENDING)
        assert rewritten.select == ("g", "sum(v)", "count(v)")
        assert rewritten.aggregates == (AggSpec("sum", "v"), AggSpec("count", "v"))
        assert rewritten.having == ()


class TestDeltaSelect:
    def test_empty_columns(self):
        q = SelectQuery(projection="t", select=("a",))
        assert delta_select(q, {}) == {}

    def test_conjunction(self):
        q = SelectQuery(
            projection="t",
            select=("a",),
            predicates=(Predicate("a", ">", 1), Predicate("a", "<", 4)),
        )
        out = delta_select(q, {"a": np.array([0, 2, 3, 9])})
        assert out["a"].tolist() == [2, 3]

    def test_disjunction(self):
        q = SelectQuery(
            projection="t",
            select=("a",),
            disjuncts=(
                (Predicate("a", "<", 1),),
                (Predicate("a", ">", 8),),
            ),
        )
        out = delta_select(q, {"a": np.array([0, 2, 3, 9])})
        assert out["a"].tolist() == [0, 9]


def _grouped(group, *specs):
    """A query grouping on *group* with *specs*, selecting all outputs."""
    return SelectQuery(
        "t", (group, *(s.output_name for s in specs)),
        group_by=group, aggregates=specs,
    )


class TestMergeAggregates:
    def test_overlapping_and_new_groups(self):
        specs = [AggSpec("sum", "v"), AggSpec("count", "v")]
        stored = TupleSet.stitch(
            {
                "g": np.array([1, 2]),
                "sum(v)": np.array([10, 20]),
                "count(v)": np.array([2, 4]),
            }
        )
        pending = TupleSet.stitch(
            {
                "g": np.array([2, 3]),
                "sum(v)": np.array([5, 7]),
                "count(v)": np.array([1, 1]),
            }
        )
        merged = merge_aggregates([stored, pending], _grouped("g", *specs))
        assert merged.rows() == [(1, 10, 2), (2, 25, 5), (3, 7, 1)]

    def test_min_max_merge(self):
        specs = [AggSpec("min", "v"), AggSpec("max", "v")]
        stored = TupleSet.stitch(
            {
                "g": np.array([1]),
                "min(v)": np.array([5]),
                "max(v)": np.array([9]),
            }
        )
        pending = TupleSet.stitch(
            {
                "g": np.array([1]),
                "min(v)": np.array([3]),
                "max(v)": np.array([7]),
            }
        )
        merged = merge_aggregates([stored, pending], _grouped("g", *specs))
        assert merged.rows() == [(1, 3, 9)]

    def test_avg_reconstruction(self):
        stored = TupleSet.stitch(
            {
                "g": np.array([1]),
                "sum(v)": np.array([10]),
                "count(v)": np.array([4]),
            }
        )
        pending = TupleSet.stitch(
            {
                "g": np.array([1]),
                "sum(v)": np.array([2]),
                "count(v)": np.array([2]),
            }
        )
        merged = merge_aggregates(
            [stored, pending], _grouped("g", AggSpec("avg", "v"))
        )
        assert merged.rows() == [(1, 2)]  # (10+2) // (4+2)


class TestDeltaAggregate:
    def test_shapes_match_stored_side(self):
        survivors = {
            "g": np.array([1, 1, 2]),
            "v": np.array([3, 4, 5]),
        }
        out = delta_aggregate(
            [AggSpec("sum", "v")], ["g"], survivors
        )
        assert out.columns == ("g", "sum(v)")
        assert out.rows() == [(1, 7), (2, 5)]


class TestColumnarStore:
    """DeltaStore holds both sides as cached per-table column arrays."""

    SCHEMAS = {
        "a": ColumnSchema("a", INT32),
        "b": ColumnSchema("b", INT8),
    }

    def test_columns_are_cached_until_the_next_write(self):
        store = DeltaStore()
        store.insert("t", [{"a": 1, "b": 2}, {"a": 3, "b": 4}], self.SCHEMAS)
        first = store.columns("t", self.SCHEMAS)
        again = store.columns("t", self.SCHEMAS)
        assert all(first[c] is again[c] for c in self.SCHEMAS)
        assert first["a"].dtype == np.int32 and first["b"].dtype == np.int8
        with pytest.raises(ValueError):
            first["a"][0] = 99  # shared between readers, so read-only
        store.insert("t", [{"a": 5, "b": 6}], self.SCHEMAS)
        after = store.columns("t", self.SCHEMAS)
        assert after["a"].tolist() == [1, 3, 5]
        assert first["a"].tolist() == [1, 3]  # a reader's arrays never move

    def test_empty_table_has_typed_empty_columns(self):
        cols = DeltaStore().deleted_columns("t", self.SCHEMAS)
        assert {c: (v.dtype, len(v)) for c, v in cols.items()} == {
            "a": (np.dtype(np.int32), 0),
            "b": (np.dtype(np.int8), 0),
        }

    def test_value_that_does_not_fit_its_column_raises(self):
        # Type-checked at insert time, before anything is buffered.
        store = DeltaStore()
        with pytest.raises(EncodingError, match="int8"):
            store.insert("t", [{"a": 1, "b": 1000}], self.SCHEMAS)
        assert store.count("t") == 0 and store.wal_records("t") == 0

    def test_delete_and_update_take_column_arrays(self):
        store = DeltaStore()
        store.insert("t", [{"a": 1, "b": 1}, {"a": 1, "b": 1}], self.SCHEMAS)
        stored = {"a": np.array([7, 8]), "b": np.array([0, 0])}
        pending = {"a": np.array([1]), "b": np.array([1])}
        assert store.update("t", stored, pending, {"b": 5}) == 3
        assert store.count("t") == 4 and store.deleted_count("t") == 2
        cols = store.columns("t", self.SCHEMAS)
        assert sorted(zip(cols["a"].tolist(), cols["b"].tolist())) == [
            (1, 1), (1, 5), (7, 5), (8, 5),
        ]
        none = {"a": np.array([], np.int64), "b": np.array([], np.int64)}
        assert store.delete("t", none, none) == 0
        assert store.wal_records("t") == 2  # one line per write call
