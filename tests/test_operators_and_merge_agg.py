"""Unit tests for AND, MERGE, aggregation, and output operators."""

import numpy as np
import pytest

from repro.buffer import BufferPool
from repro.errors import ExecutionError, PlanError
from repro.metrics import QueryStats
from repro.operators import AndOp, ExecutionContext, MergeOp, TupleSet, drain
from repro.operators.aggregate import AggregateEM, AggregateLM, AggSpec
from repro.positions import BitmapPositions, ListedPositions, RangePositions


@pytest.fixture
def ctx():
    return ExecutionContext(pool=BufferPool(), stats=QueryStats())


class TestAndOp:
    def test_intersection(self, ctx):
        a = RangePositions(0, 100)
        b = ListedPositions(np.array([5, 50, 150]))
        out = AndOp(ctx).execute_positions([a, b])
        assert out.to_array().tolist() == [5, 50]
        assert ctx.stats.positions_intersected == 103

    def test_zero_inputs_rejected(self, ctx):
        with pytest.raises(ExecutionError):
            AndOp(ctx).execute_positions([])


class TestMergeOp:
    def test_stitches_aligned_vectors(self, ctx):
        out = MergeOp(ctx).execute(
            {"x": np.array([1, 2]), "y": np.array([10, 20])}
        )
        assert out.rows() == [(1, 10), (2, 20)]
        assert ctx.stats.tuples_constructed == 2
        assert ctx.stats.function_calls == 2 * 2 * 2

    def test_rejects_misaligned(self, ctx):
        with pytest.raises(ExecutionError):
            MergeOp(ctx).execute({"x": np.array([1]), "y": np.array([1, 2])})

    def test_rejects_empty(self, ctx):
        with pytest.raises(ExecutionError):
            MergeOp(ctx).execute({})


GROUPS = np.array([3, 1, 3, 1, 2, 3], dtype=np.int64)
VALUES = np.array([10, 1, 20, 2, 5, 30], dtype=np.int64)


class TestAggSpec:
    def test_output_name(self):
        assert AggSpec("sum", "v").output_name == "sum(v)"

    def test_rejects_unknown_func(self):
        with pytest.raises(PlanError):
            AggSpec("median", "v")


class TestAggregateEM:
    def make_tuples(self):
        return TupleSet.stitch({"g": GROUPS, "v": VALUES})

    def test_sum(self, ctx):
        out = AggregateEM(ctx, "g", [AggSpec("sum", "v")]).execute(
            self.make_tuples()
        )
        assert out.select(["g", "sum(v)"]).rows() == [
            (1, 3),
            (2, 5),
            (3, 60),
        ]

    def test_count_min_max_avg(self, ctx):
        specs = [
            AggSpec("count", "v"),
            AggSpec("min", "v"),
            AggSpec("max", "v"),
            AggSpec("avg", "v"),
        ]
        out = AggregateEM(ctx, "g", specs).execute(self.make_tuples())
        rows = out.select(
            ["g", "count(v)", "min(v)", "max(v)", "avg(v)"]
        ).rows()
        assert rows == [(1, 2, 1, 2, 1), (2, 1, 5, 5, 5), (3, 3, 10, 30, 20)]

    def test_charges_tuple_iteration(self, ctx):
        AggregateEM(ctx, "g", [AggSpec("sum", "v")]).execute(self.make_tuples())
        assert ctx.stats.tuple_iterations >= len(GROUPS)


class TestAggregateLM:
    def test_sum_matches_em(self, ctx):
        out = AggregateLM(ctx, "g", [AggSpec("sum", "v")]).execute(
            GROUPS, {"v": VALUES}
        )
        assert out.select(["g", "sum(v)"]).rows() == [(1, 3), (2, 5), (3, 60)]

    def test_charges_column_iteration_not_tuple(self, ctx):
        AggregateLM(ctx, "g", [AggSpec("sum", "v")]).execute(
            GROUPS, {"v": VALUES}
        )
        assert ctx.stats.column_iterations >= len(GROUPS)
        # Only the 3 summary tuples pass through a tuple iterator.
        assert ctx.stats.tuple_iterations == 3

    def test_execute_runs_matches_row_version(self, ctx):
        # Rows grouped as runs: run 0 -> g=3 (rows 0,1), run 1 -> g=1 (row 2),
        # run 2 -> g=3 (rows 3,4).
        run_values = np.array([3, 1, 3], dtype=np.int64)
        run_ids = np.array([0, 0, 1, 2, 2], dtype=np.int64)
        values = np.array([1, 2, 10, 3, 4], dtype=np.int64)
        out = AggregateLM(
            ctx, "g", [AggSpec("sum", "v"), AggSpec("count", "v")]
        ).execute_runs(run_values, run_ids, {"v": values})
        rows = out.select(["g", "sum(v)", "count(v)"]).rows()
        assert rows == [(1, 10, 1), (3, 10, 4)]

    def test_execute_runs_drops_unreferenced_runs(self, ctx):
        run_values = np.array([5, 6, 7], dtype=np.int64)
        run_ids = np.array([1], dtype=np.int64)  # only run 1 has survivors
        out = AggregateLM(ctx, "g", [AggSpec("sum", "v")]).execute_runs(
            run_values, run_ids, {"v": np.array([9], dtype=np.int64)}
        )
        assert out.select(["g", "sum(v)"]).rows() == [(6, 9)]

    def test_min_max_runs(self, ctx):
        run_values = np.array([1, 2], dtype=np.int64)
        run_ids = np.array([0, 0, 1], dtype=np.int64)
        values = np.array([4, 9, 7], dtype=np.int64)
        out = AggregateLM(
            ctx, "g", [AggSpec("min", "v"), AggSpec("max", "v")]
        ).execute_runs(run_values, run_ids, {"v": values})
        assert out.select(["g", "min(v)", "max(v)"]).rows() == [
            (1, 4, 9),
            (2, 7, 7),
        ]


class TestDrain:
    def test_counts_output(self, ctx):
        ts = TupleSet.stitch({"a": np.arange(5)})
        out = drain(ctx, ts)
        assert ctx.stats.tuples_output == 5
        assert out.n_tuples == 5

    def test_drops_position_column(self, ctx):
        ts = TupleSet.stitch({"_pos": np.arange(3), "a": np.arange(3)})
        out = drain(ctx, ts)
        assert out.columns == ("a",)
