"""Integration tests: join plans across the three inner-table strategies."""

import numpy as np
import pytest

from repro import JoinQuery, Predicate, RightTableStrategy

from .reference import full_column, reference_fkpk_join

ALL_RIGHT = list(RightTableStrategy)


def join_query(x):
    return JoinQuery(
        left="orders",
        right="customer",
        left_key="custkey",
        right_key="custkey",
        left_select=("shipdate",),
        right_select=("nationcode",),
        left_predicates=(Predicate("custkey", "<", x),),
    )


class TestJoinEquivalence:
    @pytest.mark.parametrize("strategy", ALL_RIGHT)
    @pytest.mark.parametrize("quantile", [0.05, 0.5, 1.0])
    def test_matches_reference(self, tpch_db, strategy, quantile):
        orders = tpch_db.projection("orders")
        customer = tpch_db.projection("customer")
        keys = full_column(orders, "custkey")
        x = int(np.quantile(keys, quantile)) + 1
        query = join_query(x)
        expected = reference_fkpk_join(
            orders,
            customer,
            "custkey",
            "custkey",
            ["shipdate"],
            ["nationcode"],
            list(query.left_predicates),
        )
        result = tpch_db.query(query, strategy=strategy, cold=True)
        # Join output preserves outer-table order: compare exactly.
        assert np.array_equal(result.tuples.data, expected)

    @pytest.mark.parametrize("strategy", ALL_RIGHT)
    def test_empty_outer_side(self, tpch_db, strategy):
        query = join_query(0)  # custkey < 0 matches nothing
        result = tpch_db.query(query, strategy=strategy, cold=True)
        assert result.n_rows == 0

    @pytest.mark.parametrize("strategy", ALL_RIGHT)
    def test_no_left_predicate(self, tpch_db, strategy):
        orders = tpch_db.projection("orders")
        customer = tpch_db.projection("customer")
        query = JoinQuery(
            left="orders",
            right="customer",
            left_key="custkey",
            right_key="custkey",
            left_select=("shipdate",),
            right_select=("nationcode",),
        )
        expected = reference_fkpk_join(
            orders, customer, "custkey", "custkey",
            ["shipdate"], ["nationcode"], [],
        )
        result = tpch_db.query(query, strategy=strategy, cold=True)
        assert result.n_rows == orders.n_rows
        assert np.array_equal(result.tuples.data, expected)


class TestJoinBehaviour:
    def test_single_column_pays_out_of_order_penalty(self, tpch_db):
        orders = tpch_db.projection("orders")
        keys = full_column(orders, "custkey")
        x = int(np.quantile(keys, 0.5))
        query = join_query(x)
        single = tpch_db.query(
            query, strategy=RightTableStrategy.SINGLE_COLUMN, cold=True
        )
        materialized = tpch_db.query(
            query, strategy=RightTableStrategy.MATERIALIZED, cold=True
        )
        assert single.stats.extra.get("out_of_order_gathers", 0) > 0
        assert materialized.stats.extra.get("out_of_order_gathers", 0) == 0

    def test_default_strategy_for_joins(self, tpch_db):
        orders = tpch_db.projection("orders")
        keys = full_column(orders, "custkey")
        query = join_query(int(np.quantile(keys, 0.2)))
        result = tpch_db.query(query, strategy="auto", cold=True)
        # auto runs the model's pick (cold: the pool holds nothing, as
        # explain's default resident fraction assumes).
        assert result.strategy == tpch_db.explain(query)["chosen"]
