"""Tests for the join cost-model extension (predict_join)."""

import numpy as np
import pytest

from repro import JoinQuery, Predicate, RightTableStrategy
from repro.model.predictor import predict_join

from .reference import full_column


def make_query(x, left_strategy="late"):
    return JoinQuery(
        left="orders",
        right="customer",
        left_key="custkey",
        right_key="custkey",
        left_select=("shipdate",),
        right_select=("nationcode",),
        left_predicates=(Predicate("custkey", "<", x),),
        left_strategy=left_strategy,
    )


@pytest.fixture(scope="module")
def tables(tpch_db):
    return (
        tpch_db.projection("orders"),
        tpch_db.projection("customer"),
        full_column(tpch_db.projection("orders"), "custkey"),
    )


class TestPredictJoin:
    @pytest.mark.parametrize(
        "strategy", list(RightTableStrategy), ids=lambda s: s.value
    )
    def test_positive_costs_and_breakdown(self, tables, strategy):
        orders, customer, keys = tables
        pred = predict_join(
            orders, customer, make_query(int(keys.max())), strategy
        )
        assert pred.total_ms > 0
        assert pred.cpu_ms > 0
        breakdown = pred.breakdown()
        # The outer core is priced as a selection core: one DS1 per
        # predicate column, then the key gathered at the survivors.
        assert "DS1(custkey)" in breakdown
        assert "DS3(left key)" in breakdown
        assert "merge+output" in breakdown

    def test_costs_grow_with_selectivity(self, tables):
        orders, customer, keys = tables
        lo = predict_join(
            orders,
            customer,
            make_query(int(np.quantile(keys, 0.05))),
            RightTableStrategy.MATERIALIZED,
        )
        hi = predict_join(
            orders,
            customer,
            make_query(int(np.quantile(keys, 0.95))),
            RightTableStrategy.MATERIALIZED,
        )
        assert hi.total_ms > lo.total_ms

    def test_strategy_specific_steps(self, tables):
        orders, customer, keys = tables
        query = make_query(int(np.quantile(keys, 0.5)))
        mat = predict_join(
            orders, customer, query, RightTableStrategy.MATERIALIZED
        ).breakdown()
        mc = predict_join(
            orders, customer, query, RightTableStrategy.MULTI_COLUMN
        ).breakdown()
        single = predict_join(
            orders, customer, query, RightTableStrategy.SINGLE_COLUMN
        ).breakdown()
        assert "SPC(right)" in mat
        assert "pin(right)" in mc
        assert "fetch out-of-order" in single

    def test_prediction_ranks_match_replay(self, tpch_db, tables):
        """The extension's ranking agrees with observed replay time."""
        orders, customer, keys = tables
        query = make_query(int(np.quantile(keys, 0.9)))
        predicted = {
            s: predict_join(orders, customer, query, s).total_ms
            for s in RightTableStrategy
        }
        observed = {
            s: tpch_db.query(query, strategy=s, cold=True).simulated_ms
            for s in RightTableStrategy
        }
        # Single-column is the most expensive in both rankings.
        assert max(predicted, key=predicted.get) is RightTableStrategy.SINGLE_COLUMN
        assert max(observed, key=observed.get) is RightTableStrategy.SINGLE_COLUMN

    def test_resident_fraction_reduces_io(self, tables):
        orders, customer, keys = tables
        query = make_query(int(np.quantile(keys, 0.5)))
        cold = predict_join(
            orders, customer, query, RightTableStrategy.MATERIALIZED,
            resident=0.0,
        )
        warm = predict_join(
            orders, customer, query, RightTableStrategy.MATERIALIZED,
            resident=1.0,
        )
        assert warm.io_ms < cold.io_ms
