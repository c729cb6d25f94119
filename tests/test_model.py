"""Unit tests for the analytical cost model."""

import pytest

from repro.metrics import QueryStats
from repro.model import (
    PAPER_CONSTANTS,
    AndCost,
    ColumnMeta,
    ModelConstants,
    and_cost,
    ds_case1_cost,
    ds_case2_cost,
    ds_case3_cost,
    ds_case4_cost,
    OperatorCost,
    merge_cost,
    simulated_time_ms,
    spc_cost,
)
from repro.model.cost import output_cost, price


META = ColumnMeta(blocks=5, tuples=26_726, run_length=1.0, resident=0.0)
RLE_META = ColumnMeta(blocks=1, tuples=3_800, run_length=76.0, resident=0.0)
K = PAPER_CONSTANTS


class TestConstants:
    def test_paper_values(self):
        assert K.bic == 0.020
        assert K.tictup == 0.065
        assert K.ticcol == 0.014
        assert K.fc == 0.009
        assert K.pf == 1
        assert K.seek == 2500.0
        assert K.read == 1000.0

    def test_with_overrides(self):
        k2 = K.with_overrides(fc=1.0)
        assert k2.fc == 1.0
        assert k2.bic == K.bic
        assert K.fc == 0.009  # frozen original untouched

    def test_as_dict(self):
        d = K.as_dict()
        assert d["SEEK"] == 2500.0
        assert d["TICTUP"] == 0.065


def cpu_us(cost):
    return price(cost, K)[0]


def io_us(cost):
    return price(cost, K)[1]


class TestDataSourceFormulas:
    def test_ds1_formula_verbatim(self):
        # Figure 1: |C|*BIC + ||C||*(TICCOL+FC)/RL + SF*||C||*FC
        sf = 0.5
        cost = ds_case1_cost(META, sf)
        # A full sequential scan pays one head movement plus |C| block reads.
        assert cost == OperatorCost(
            block_iterations=5,
            column_iterations=26_726 / 1.0,
            function_calls=26_726 / 1.0 + sf * 26_726,
            disk_seeks=1,
            block_reads=5,
        )
        assert price(cost, K) == pytest.approx((
            5 * K.bic + 26_726 * (K.ticcol + K.fc) / 1.0 + sf * 26_726 * K.fc,
            1 * K.seek + 5 * K.read,
        ))

    def test_ds1_rle_cheaper_cpu(self):
        dense = ds_case1_cost(META, 0.5)
        rle = ds_case1_cost(RLE_META, 0.5)
        assert rle.column_iterations < dense.column_iterations
        assert cpu_us(rle) < cpu_us(dense)

    def test_ds2_costs_more_than_ds1(self):
        # Case 2 swaps FC for TICTUP+FC on matched tuples.
        ds1, ds2 = ds_case1_cost(META, 0.5), ds_case2_cost(META, 0.5)
        assert ds2 == ds1._replace(tuple_iterations=0.5 * 26_726)
        assert cpu_us(ds2) == pytest.approx(
            5 * K.bic + 26_726 * (K.ticcol + K.fc)
            + 0.5 * 26_726 * (K.tictup + K.fc)
        )

    def test_ds3_reaccess_has_no_io(self):
        # Figure 2: |C|*BIC + G*TICCOL + G*(TICCOL+FC), G = ||POS||/RLp.
        cost = ds_case3_cost(META, 1000, 1.0, K.pf, reaccess=True)
        assert cost == OperatorCost(
            block_iterations=5, column_iterations=2000, function_calls=1000
        )
        assert price(cost, K) == pytest.approx((
            5 * K.bic + 1000 * K.ticcol + 1000 * (K.ticcol + K.fc), 0.0
        ))

    def test_ds3_io_scales_with_positions(self):
        few = ds_case3_cost(META, 100, 1.0, K.pf)
        many = ds_case3_cost(META, 20_000, 1.0, K.pf)
        assert few.block_reads < many.block_reads
        assert io_us(few) < io_us(many)

    def test_ds3_position_runs_reduce_cpu(self):
        slow = ds_case3_cost(META, 10_000, 1.0, K.pf, reaccess=True)
        fast = ds_case3_cost(META, 10_000, 1000.0, K.pf, reaccess=True)
        assert fast.column_iterations == 20 < slow.column_iterations
        assert cpu_us(fast) < cpu_us(slow)

    def test_ds4_formula_verbatim(self):
        # Figure 3: |C|*BIC + ||EM||*TICTUP + ||EM||*((FC+TICTUP)+FC)
        #           + SF*||EM||*TICTUP
        em = 1_000
        sf = 0.3
        cost = ds_case4_cost(META, em, sf)
        assert cost._replace(disk_seeks=0, block_reads=0) == OperatorCost(
            block_iterations=5,
            tuple_iterations=(2 + sf) * em,
            function_calls=2 * em,
        )
        assert cpu_us(cost) == pytest.approx(
            5 * K.bic
            + em * K.tictup
            + em * ((K.fc + K.tictup) + K.fc)
            + sf * em * K.tictup
        )

    def test_resident_fraction_zeroes_io(self):
        warm = ColumnMeta(blocks=5, tuples=100, run_length=1.0, resident=1.0)
        cost = ds_case1_cost(warm, 0.5)
        assert cost.disk_seeks == cost.block_reads == 0.0
        assert io_us(cost) == 0.0


class TestOtherOperators:
    def test_and_formula_verbatim(self):
        # Figure 4 with M = max(||inpos_i|| / RLp_i).
        inputs = [AndCost(1000, 1.0), AndCost(64_000, 64.0)]
        cost = and_cost(inputs)
        m = 1000.0
        assert cost == OperatorCost(
            column_iterations=1000 + 1000, function_calls=m * 1, and_products=m
        )
        assert price(cost, K) == pytest.approx((
            K.ticcol * 1000 + K.ticcol * 1000 + m * 1 * K.fc
            + m * K.ticcol * K.fc,
            0.0,
        ))

    def test_merge_formula(self):
        # Figure 5: 2 * n * k * FC.
        cost = merge_cost(500, 2)
        assert cost == OperatorCost(function_calls=2 * 500 * 2)
        assert cpu_us(cost) == pytest.approx(2 * 500 * 2 * K.fc)

    def test_spc_short_circuits_selectivities(self):
        # Figure 6: per column |C_i|*BIC + ||C_i||*FC*prod(SF_j<i), then
        # ||C_k||*TICTUP*prod(SF) to construct; every block is read.
        metas = [META, META]
        all_pass = spc_cost(metas, [1.0, 1.0])
        selective = spc_cost(metas, [0.01, 1.0])
        assert selective == OperatorCost(
            block_iterations=10,
            tuple_iterations=26_726 * 0.01,
            function_calls=26_726 + 26_726 * 0.01,
            disk_seeks=2,
            block_reads=10,
        )
        assert cpu_us(selective) == pytest.approx(
            10 * K.bic + (26_726 + 26_726 * 0.01) * K.fc
            + 26_726 * K.tictup * 0.01
        )
        assert selective.block_reads == all_pass.block_reads
        assert io_us(selective) == io_us(all_pass)

    def test_output_cost(self):
        assert output_cost(1000) == OperatorCost(tuple_iterations=1000)
        assert cpu_us(output_cost(1000)) == pytest.approx(1000 * K.tictup)

    def test_operator_cost_addition(self):
        total = merge_cost(10, 2) + output_cost(10)
        assert total == OperatorCost(function_calls=40, tuple_iterations=10)
        assert sum(price(total, K)) == pytest.approx(
            cpu_us(merge_cost(10, 2)) + cpu_us(output_cost(10))
        )


class TestSimulatedTime:
    def test_replay_combines_counters(self):
        stats = QueryStats(
            block_iterations=100,
            column_iterations=1000,
            tuple_iterations=50,
            function_calls=500,
            simulated_io_us=7000.0,
        )
        expected_us = (
            100 * K.bic + 1000 * K.ticcol + 50 * K.tictup + 500 * K.fc + 7000.0
        )
        assert simulated_time_ms(stats, K) == pytest.approx(expected_us / 1000)

    def test_empty_stats_is_zero(self):
        assert simulated_time_ms(QueryStats(), K) == 0.0

    def test_replay_grows_linearly_with_scale(self, tmp_path):
        """Shapes measured at small scale transfer to the paper's scale 10.

        Quadrupling the data grows every strategy's replay time by more than
        1.4x (fixed seeks and plan costs dilute growth at these scales) and
        less than 6x, and Figure 11(b)'s LM-beats-EM ordering holds from the
        second scale up.
        """
        from repro import (
            Database,
            MetricsRegistry,
            Predicate,
            SelectQuery,
            Strategy,
            load_tpch,
        )
        from repro.reproduce import shipdate_constant

        scales = (0.01, 0.02, 0.04)
        query = SelectQuery(
            projection="lineitem",
            select=("shipdate", "linenum"),
            predicates=(
                Predicate("shipdate", "<", shipdate_constant(0.5)),
                Predicate("linenum", "<", 7),
            ),
            encodings=(("linenum", "rle"),),
        )
        times = {strategy: [] for strategy in Strategy}
        for scale in scales:
            with Database(tmp_path / str(scale), metrics=MetricsRegistry(),
                          query_log=False) as db:
                load_tpch(db.catalog, scale=scale, seed=42)
                for strategy, series in times.items():
                    series.append(
                        db.query(query, strategy=strategy, cold=True)
                        .simulated_ms
                    )
        for strategy, series in times.items():
            assert 1.4 < series[-1] / series[0] < 6.0, (strategy, series)
        for lm, em in ((Strategy.LM_PARALLEL, Strategy.EM_PARALLEL),
                       (Strategy.LM_PIPELINED, Strategy.EM_PIPELINED)):
            for i in range(1, len(scales)):
                assert times[lm][i] < times[em][i], (lm, i, times)


class TestColumnMeta:
    def test_from_file(self, tpch_db):
        cf = tpch_db.projection("lineitem").column("shipdate").file("rle")
        meta = ColumnMeta.from_file(cf, resident=0.25)
        assert meta.blocks == cf.n_blocks
        assert meta.tuples == cf.n_values
        assert meta.run_length == pytest.approx(cf.avg_run_length)
        assert meta.resident == 0.25


class TestFullRangeExtraction:
    """With no predicate, an LM extraction gathers every position in order:
    its io is a sequential read of the column, never above DS1's."""

    @staticmethod
    def _ds1_io(projection, column) -> float:
        cf = projection.physical_column(column).file()
        return io_us(ds_case1_cost(ColumnMeta.from_file(cf), 1.0))

    def test_selection_gather_reads_like_ds1(self, tpch_db):
        from repro import SelectQuery, Strategy
        from repro.model.predictor import predict_select

        lineitem = tpch_db.projection("lineitem")
        query = SelectQuery("lineitem", ("shipdate", "quantity"))
        steps = dict(predict_select(
            lineitem, query, Strategy.LM_PARALLEL
        ).steps)
        for column in query.select:
            assert 0 < io_us(steps[f"DS3({column})"]) <= self._ds1_io(
                lineitem, column
            )

    def test_join_left_key_gather_reads_like_ds1(self, tmp_path):
        from repro import (
            AggSpec, Database, JoinQuery, RightTableStrategy, load_tpch,
        )
        from repro.model.predictor import predict_join

        from .differential import JOIN_PLAIN_DIMENSION, add_join_dimension

        db = Database(tmp_path / "db", query_log=False)
        load_tpch(db.catalog, scale=0.01, seed=7)  # a multi-block key
        add_join_dimension(db)
        lineitem = db.projection("lineitem")
        query = JoinQuery(
            left="lineitem", right=JOIN_PLAIN_DIMENSION,
            left_key="linenum", right_key="linenum",
            left_select=("quantity",), right_select=("lineweight",),
            encodings=(("linenum", "uncompressed"),),
            group_by="lineweight", aggregates=(AggSpec("sum", "quantity"),),
        )
        steps = dict(predict_join(
            lineitem, db.projection(JOIN_PLAIN_DIMENSION), query,
            RightTableStrategy.MATERIALIZED,
        ).steps)
        key = ColumnMeta.from_file(
            lineitem.physical_column("linenum").file("uncompressed")
        )
        assert key.blocks > 1
        assert 0 < io_us(steps["DS3(left key)"]) <= io_us(
            ds_case1_cost(key, 1.0)
        )
