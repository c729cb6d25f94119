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
    merge_cost,
    simulated_time_ms,
    spc_cost,
)
from repro.model.cost import output_cost


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


class TestDataSourceFormulas:
    def test_ds1_formula_verbatim(self):
        # Figure 1: |C|*BIC + ||C||*(TICCOL+FC)/RL + SF*||C||*FC
        sf = 0.5
        cost = ds_case1_cost(META, sf, K)
        expected_cpu = (
            5 * K.bic + 26_726 * (K.ticcol + K.fc) / 1.0 + sf * 26_726 * K.fc
        )
        assert cost.cpu_us == pytest.approx(expected_cpu)
        # A full sequential scan pays one head movement plus |C| block reads.
        expected_io = 1 * K.seek + 5 * K.read
        assert cost.io_us == pytest.approx(expected_io)

    def test_ds1_rle_cheaper_cpu(self):
        dense = ds_case1_cost(META, 0.5, K)
        rle = ds_case1_cost(RLE_META, 0.5, K)
        assert rle.cpu_us < dense.cpu_us

    def test_ds2_costs_more_than_ds1(self):
        # Case 2 swaps FC for TICTUP+FC on matched tuples.
        assert ds_case2_cost(META, 0.5, K).cpu_us > ds_case1_cost(
            META, 0.5, K
        ).cpu_us

    def test_ds3_reaccess_has_no_io(self):
        cost = ds_case3_cost(META, 1000, 1.0, K, reaccess=True)
        assert cost.io_us == 0.0
        assert cost.cpu_us > 0.0

    def test_ds3_io_scales_with_positions(self):
        few = ds_case3_cost(META, 100, 1.0, K)
        many = ds_case3_cost(META, 20_000, 1.0, K)
        assert few.io_us < many.io_us

    def test_ds3_position_runs_reduce_cpu(self):
        slow = ds_case3_cost(META, 10_000, 1.0, K, reaccess=True)
        fast = ds_case3_cost(META, 10_000, 1000.0, K, reaccess=True)
        assert fast.cpu_us < slow.cpu_us

    def test_ds4_formula_verbatim(self):
        # Figure 3: |C|*BIC + ||EM||*TICTUP + ||EM||*((FC+TICTUP)+FC)
        #           + SF*||EM||*TICTUP
        em = 1_000
        sf = 0.3
        cost = ds_case4_cost(META, em, sf, K)
        expected = (
            5 * K.bic
            + em * K.tictup
            + em * ((K.fc + K.tictup) + K.fc)
            + sf * em * K.tictup
        )
        assert cost.cpu_us == pytest.approx(expected)

    def test_resident_fraction_zeroes_io(self):
        warm = ColumnMeta(blocks=5, tuples=100, run_length=1.0, resident=1.0)
        assert ds_case1_cost(warm, 0.5, K).io_us == 0.0


class TestOtherOperators:
    def test_and_formula_verbatim(self):
        # Figure 4 with M = max(||inpos_i|| / RLp_i).
        inputs = [AndCost(1000, 1.0), AndCost(64_000, 64.0)]
        cost = and_cost(inputs, K)
        m = 1000.0
        expected = (
            K.ticcol * 1000 + K.ticcol * 1000 + m * 1 * K.fc + m * K.ticcol * K.fc
        )
        assert cost.cpu_us == pytest.approx(expected)
        assert cost.io_us == 0.0

    def test_merge_formula(self):
        cost = merge_cost(500, 2, K)
        assert cost.cpu_us == pytest.approx(2 * 500 * 2 * K.fc)

    def test_spc_short_circuits_selectivities(self):
        metas = [META, META]
        all_pass = spc_cost(metas, [1.0, 1.0], K)
        selective = spc_cost(metas, [0.01, 1.0], K)
        assert selective.cpu_us < all_pass.cpu_us
        assert selective.io_us == all_pass.io_us  # SPC always reads everything

    def test_output_cost(self):
        assert output_cost(1000, K).cpu_us == pytest.approx(1000 * K.tictup)

    def test_operator_cost_addition(self):
        total = merge_cost(10, 2, K) + output_cost(10, K)
        assert total.total_us == pytest.approx(
            merge_cost(10, 2, K).cpu_us + output_cost(10, K).cpu_us
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
