"""Tests for plan prediction, selectivity estimation, and the optimizer."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Database, Predicate, SelectQuery, Strategy, AggSpec, load_tpch
from repro.dtypes import INT64, ColumnSchema
from repro.model.predictor import (
    predict_join,
    predict_select,
    predict_strategies,
)
from repro.planner import JoinQuery, RightTableStrategy, choose_strategy
from repro.planner.estimate import estimate_selectivity
from repro.planner.projection_choice import resolve_projection
from repro.tpch import SHIPDATE_MAX, SHIPDATE_MIN

from .reference import full_column


@pytest.fixture(scope="module")
def lineitem(tpch_db):
    return tpch_db.projection("lineitem")


class TestEstimate:
    def test_extremes(self, lineitem):
        cf = lineitem.column("shipdate").file("rle")
        ship = full_column(lineitem, "shipdate")
        assert estimate_selectivity(cf, Predicate("shipdate", "<", ship.min())) == 0.0
        assert estimate_selectivity(
            cf, Predicate("shipdate", "<", ship.max() + 1)
        ) == pytest.approx(1.0, abs=0.05)

    @pytest.mark.parametrize("q", [0.1, 0.5, 0.9])
    def test_midpoints_roughly_accurate(self, lineitem, q):
        cf = lineitem.column("shipdate").file("rle")
        ship = full_column(lineitem, "shipdate")
        x = int(np.quantile(ship, q))
        actual = float((ship < x).mean())
        estimated = estimate_selectivity(cf, Predicate("shipdate", "<", x))
        assert estimated == pytest.approx(actual, abs=0.15)

    def test_equality_predicate(self, lineitem):
        cf = lineitem.column("linenum").file("uncompressed")
        est = estimate_selectivity(cf, Predicate("linenum", "=", 3))
        assert 0.0 < est < 0.5

    def test_conjunction_multiplies(self, lineitem):
        cf = lineitem.column("shipdate").file("rle")
        ship = full_column(lineitem, "shipdate")
        x = int(np.quantile(ship, 0.5))
        single = estimate_selectivity(cf, Predicate("shipdate", "<", x))
        from repro.predicates import combine_column_predicates

        combo = combine_column_predicates(
            [Predicate("shipdate", "<", x), Predicate("shipdate", "<", x)]
        )
        assert estimate_selectivity(cf, combo) == pytest.approx(single**2)


def make_query(lineitem, quantile, encoding="uncompressed"):
    ship = full_column(lineitem, "shipdate")
    x = int(np.quantile(ship, quantile))
    return SelectQuery(
        projection="lineitem",
        select=("shipdate", "linenum"),
        predicates=(
            Predicate("shipdate", "<", x),
            Predicate("linenum", "<", 7),
        ),
        encodings=(("linenum", encoding),),
    )


class TestPredictSelect:
    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_positive_costs(self, lineitem, strategy):
        pred = predict_select(lineitem, make_query(lineitem, 0.5), strategy)
        assert pred.total_ms > 0
        assert pred.cpu_ms > 0
        assert pred.breakdown()

    def test_cost_grows_with_selectivity(self, lineitem):
        lo = predict_select(
            lineitem, make_query(lineitem, 0.05), Strategy.LM_PARALLEL
        )
        hi = predict_select(
            lineitem, make_query(lineitem, 0.95), Strategy.LM_PARALLEL
        )
        assert hi.total_ms > lo.total_ms

    def test_aggregation_reduces_output_cost(self, lineitem):
        ship = full_column(lineitem, "shipdate")
        x = int(np.quantile(ship, 0.9))
        plain = SelectQuery(
            projection="lineitem",
            select=("shipdate", "linenum"),
            predicates=(Predicate("shipdate", "<", x),),
        )
        agg = SelectQuery(
            projection="lineitem",
            select=("shipdate", "sum(linenum)"),
            predicates=(Predicate("shipdate", "<", x),),
            group_by="shipdate",
            aggregates=(AggSpec("sum", "linenum"),),
        )
        p_plain = predict_select(lineitem, plain, Strategy.LM_PARALLEL)
        p_agg = predict_select(lineitem, agg, Strategy.LM_PARALLEL)
        assert p_agg.total_ms < p_plain.total_ms

    def test_warm_cache_cheaper(self, lineitem):
        cold = predict_select(
            lineitem, make_query(lineitem, 0.5), Strategy.EM_PARALLEL, resident=0.0
        )
        warm = predict_select(
            lineitem, make_query(lineitem, 0.5), Strategy.EM_PARALLEL, resident=1.0
        )
        assert warm.io_ms == 0.0
        assert warm.total_ms < cold.total_ms


class TestPredictJoin:
    def test_single_column_priciest_at_high_selectivity(self, tpch_db):
        orders = tpch_db.projection("orders")
        customer = tpch_db.projection("customer")
        keys = full_column(orders, "custkey")
        query = JoinQuery(
            left="orders",
            right="customer",
            left_key="custkey",
            right_key="custkey",
            left_select=("shipdate",),
            right_select=("nationcode",),
            left_predicates=(
                Predicate("custkey", "<", int(np.quantile(keys, 0.9))),
            ),
        )
        costs = {
            s: predict_join(orders, customer, query, s).total_ms
            for s in RightTableStrategy
        }
        assert costs[RightTableStrategy.SINGLE_COLUMN] > costs[
            RightTableStrategy.MATERIALIZED
        ]
        assert all(c > 0 for c in costs.values())


class TestOptimizer:
    def test_chooses_some_strategy(self, lineitem, tpch_db):
        best, predictions = choose_strategy(lineitem, make_query(lineitem, 0.5))
        assert best in predictions
        assert len(predictions) == 4

    def test_bitvector_excludes_lm_pipelined(self, lineitem):
        query = make_query(lineitem, 0.5, encoding="bitvector")
        _best, predictions = choose_strategy(lineitem, query)
        assert Strategy.LM_PIPELINED not in predictions
        assert len(predictions) == 3

    def test_auto_runs_chosen_strategy(self, tpch_db, lineitem):
        query = make_query(lineitem, 0.3)
        result = tpch_db.query(query, strategy="auto", cold=True)
        assert result.strategy in {s.value for s in Strategy}

    def test_prediction_ranks_match_observed_simulated_time(
        self, tpch_db, lineitem
    ):
        """The model's cheapest strategy should be near-cheapest in replay."""
        query = make_query(lineitem, 0.1)
        best, _predictions = choose_strategy(lineitem, query)
        sims = {}
        for strategy in Strategy:
            r = tpch_db.query(query, strategy=strategy, cold=True)
            sims[strategy] = r.simulated_ms
        observed_best = min(sims.values())
        assert sims[best] <= observed_best * 2.0


@pytest.fixture(scope="module")
def lineitem_p4(tmp_path_factory):
    """The fixture's lineitem range-partitioned four ways."""
    db = Database(tmp_path_factory.mktemp("p4"), query_log=False)
    load_tpch(db.catalog, scale=0.002, seed=7, partitions=4)
    return db.projection("lineitem")


def _assert_joint_equals_alone(projection, query, strategies, resident=0.0):
    joint = predict_strategies(
        projection, query, strategies, resident=resident
    )
    assert list(joint) == list(strategies)
    for strategy in strategies:
        alone = predict_select(projection, query, strategy, resident=resident)
        assert joint[strategy].strategy == alone.strategy == strategy.value
        assert joint[strategy].steps == alone.steps
    return joint


_COLUMNS = ("shipdate", "linenum", "quantity", "returnflag")
_PREDICATES = st.sampled_from([
    Predicate("shipdate", "<", SHIPDATE_MIN + 400),
    Predicate("shipdate", ">", SHIPDATE_MAX - 900),
    Predicate("linenum", "<", 3),
    Predicate("linenum", "!=", 4),
    Predicate("quantity", ">", 30),
    Predicate("returnflag", "=", 1),
    Predicate("returnflag", ">", 5),      # prunes every partition
])


@st.composite
def _queries(draw):
    preds = tuple(draw(st.lists(_PREDICATES, max_size=3, unique=True)))
    encoding = draw(st.sampled_from(["uncompressed", "rle", "bitvector"]))
    if draw(st.booleans()):
        group = draw(st.sampled_from(["returnflag", "linenum"]))
        return SelectQuery(
            projection="lineitem", select=(group, "sum(quantity)"),
            predicates=preds, group_by=group,
            aggregates=(AggSpec("sum", "quantity"),),
            encodings=(("linenum", encoding),),
        )
    select = draw(st.lists(
        st.sampled_from(_COLUMNS), min_size=1, max_size=3, unique=True
    ))
    return SelectQuery(
        projection="lineitem", select=tuple(select), predicates=preds,
        encodings=(("linenum", encoding),),
    )


class TestPredictStrategies:
    """One metadata pass prices every strategy exactly as pricing it alone."""

    @settings(
        max_examples=40, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        query=_queries(),
        strategies=st.lists(
            st.sampled_from(list(Strategy)), min_size=1, unique=True
        ),
        resident=st.sampled_from([0.0, 0.5, 1.0]),
        partitioned=st.booleans(),
    )
    def test_joint_equals_alone(
        self, lineitem, lineitem_p4, query, strategies, resident, partitioned
    ):
        projection = lineitem_p4 if partitioned else lineitem
        _assert_joint_equals_alone(projection, query, strategies, resident)

    @pytest.mark.parametrize("partitioned", [False, True])
    def test_choice_is_argmin_of_predictions(
        self, lineitem, lineitem_p4, partitioned
    ):
        projection = lineitem_p4 if partitioned else lineitem
        for quantile in (0.05, 0.5, 0.95):
            query = make_query(lineitem, quantile)
            best, predictions = choose_strategy(projection, query)
            assert best == min(
                predictions, key=lambda s: predictions[s].total_ms
            )
            _assert_joint_equals_alone(projection, query, list(predictions))

    def test_partition_steps_are_prefixed_per_survivor(
        self, lineitem, lineitem_p4
    ):
        query = make_query(lineitem, 0.5)
        joint = _assert_joint_equals_alone(lineitem_p4, query, list(Strategy))
        parts = {p.name for p in lineitem_p4.partitions}
        for prediction in joint.values():
            assert {name.split(":")[0] for name, _c in prediction.steps} <= parts

    def test_fully_pruned_query_costs_zero(self, lineitem_p4):
        query = SelectQuery(
            projection="lineitem", select=("shipdate",),
            predicates=(Predicate("returnflag", ">", 5),),
        )
        joint = _assert_joint_equals_alone(lineitem_p4, query, list(Strategy))
        for prediction in joint.values():
            assert prediction.steps == []
            assert prediction.total_ms == 0.0

    @pytest.mark.parametrize("partitioned", [False, True])
    def test_bitvector_predicate_column_excludes_lm_pipelined(
        self, lineitem, lineitem_p4, partitioned
    ):
        projection = lineitem_p4 if partitioned else lineitem
        query = make_query(lineitem, 0.5, encoding="bitvector")
        _best, predictions = choose_strategy(projection, query)
        assert Strategy.LM_PIPELINED not in predictions
        _assert_joint_equals_alone(projection, query, list(predictions))

    def test_indexed_column_priced_as_index_lookup(self, lineitem):
        assert lineitem.column("returnflag").index is not None
        query = SelectQuery(
            projection="lineitem", select=("returnflag", "quantity"),
            predicates=(Predicate("returnflag", "=", 0),),
        )
        joint = _assert_joint_equals_alone(lineitem, query, list(Strategy))
        ds1 = dict(joint[Strategy.LM_PARALLEL].steps)["DS1(returnflag)"]
        assert ds1.io_us == 0.0

    def test_candidate_lacking_an_encoding_override_is_skipped(
        self, tmp_path
    ):
        db = Database(tmp_path / "db", query_log=False)
        rng = np.random.default_rng(5)
        ts = rng.integers(0, 1000, size=4000).astype(np.int64)
        user = rng.integers(0, 50, size=4000).astype(np.int64)
        for name, sort_key, encodings in (
            ("by_ts", "ts", {"ts": ["rle", "uncompressed"],
                             "user": ["uncompressed"]}),
            ("by_user", "user", {"ts": ["uncompressed"],
                                 "user": ["rle", "uncompressed"]}),
        ):
            db.catalog.create_projection(
                name, {"ts": ts, "user": user},
                schemas={c: ColumnSchema(c, INT64) for c in ("ts", "user")},
                sort_keys=[sort_key], encodings=encodings, anchor="events",
            )
        # A user predicate would favour by_user, but only by_ts stores
        # ts run-length encoded.
        query = SelectQuery(
            projection="events", select=("ts", "user"),
            predicates=(Predicate("user", "=", 3),),
            encodings=(("ts", "rle"),),
        )
        assert resolve_projection(db.catalog, query).name == "by_ts"
        plain = SelectQuery(
            projection="events", select=("ts", "user"),
            predicates=(Predicate("user", "=", 3),),
        )
        assert resolve_projection(db.catalog, plain).name == "by_user"
