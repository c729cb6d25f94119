"""Tests for describe_plan and the public testing utilities."""

import numpy as np
import pytest

from repro import Database, Predicate, SelectQuery, Strategy, AggSpec
from repro.errors import UnsupportedOperationError
from repro.testing import assert_queries_agree, make_random_projection


@pytest.fixture()
def query():
    return SelectQuery(
        projection="lineitem",
        select=("shipdate", "linenum"),
        predicates=(
            Predicate("shipdate", "<", 8800),
            Predicate("linenum", "<", 7),
        ),
    )


class TestDescribePlan:
    def test_every_strategy_renders(self, tpch_db, query):
        for strategy in Strategy:
            text = tpch_db.describe(query, strategy)
            assert text.startswith(f"{strategy.value} plan")
            assert "shipdate < 8800" in text

    def test_lm_parallel_structure(self, tpch_db, query):
        text = tpch_db.describe(query, Strategy.LM_PARALLEL)
        assert "AND" in text
        assert "Merge(" in text
        assert text.count("DS1(") == 2
        assert text.count("DS3(") == 2
        assert "SF~" in text

    def test_em_parallel_structure(self, tpch_db, query):
        text = tpch_db.describe(query, Strategy.EM_PARALLEL)
        assert "SPC(" in text
        assert "scan all blocks" in text

    def test_lm_pipelined_order(self, tpch_db, query):
        text = tpch_db.describe(query, Strategy.LM_PIPELINED)
        # Most selective predicate is the leaf DS1; the other is a filter.
        assert "DS1(shipdate < 8800)" in text
        assert "DS3+filter(linenum < 7)" in text
        assert text.index("DS3+filter") < text.index("DS1(shipdate")

    def test_aggregate_order_limit_annotations(self, tpch_db):
        query = SelectQuery(
            projection="lineitem",
            select=("shipdate", "sum(linenum)"),
            predicates=(Predicate("shipdate", "<", 8800),),
            group_by="shipdate",
            aggregates=(AggSpec("sum", "linenum"),),
            order_by=(("shipdate", True),),
            limit=3,
        )
        text = tpch_db.describe(query, Strategy.LM_PARALLEL)
        assert "Aggregate(sum(linenum) GROUP BY shipdate)" in text
        assert "OrderBy(shipdate DESC)" in text
        assert "Limit(3)" in text
        assert "no tuples constructed" in text

    def test_disjunction_plan(self, tpch_db):
        query = SelectQuery(
            projection="lineitem",
            select=("linenum",),
            disjuncts=(
                (Predicate("linenum", "=", 1),),
                (Predicate("linenum", "=", 7),),
            ),
        )
        text = tpch_db.describe(query, Strategy.LM_PARALLEL)
        assert "UNION of position sets" in text
        # Both groups hold one predicate: their DS1 positions feed the union
        # directly, no AND runs.
        assert text.count("AND") == 0
        assert text.count("DS1(") == 2

    def test_bitvector_pipelined_rejected(self, tpch_db, query):
        from dataclasses import replace

        bv = replace(query, encodings=(("linenum", "bitvector"),))
        with pytest.raises(UnsupportedOperationError):
            tpch_db.describe(bv, Strategy.LM_PIPELINED)

    def test_index_annotation(self, tpch_db):
        query = SelectQuery(
            projection="lineitem",
            select=("returnflag",),
            predicates=(Predicate("returnflag", "=", 1),),
        )
        text = tpch_db.describe(query, Strategy.LM_PARALLEL)
        assert "indexed" in text


class TestMakeRandomProjection:
    def test_deterministic(self, tmp_path):
        db1 = Database(tmp_path / "a")
        db2 = Database(tmp_path / "b")
        _p1, d1 = make_random_projection(db1, seed=9)
        _p2, d2 = make_random_projection(db2, seed=9)
        assert np.array_equal(d1["k"], d2["k"])
        assert np.array_equal(d1["v0"], d2["v0"])

    def test_shape_and_sortedness(self, tmp_path):
        db = Database(tmp_path / "db")
        proj, data = make_random_projection(
            db, n_rows=5000, n_value_columns=3, cardinality=10
        )
        assert proj.n_rows == 5000
        assert proj.column_names == ["k", "v0", "v1", "v2"]
        assert np.all(np.diff(data["k"]) >= 0)
        assert proj.column("k").index is not None

    def test_queryable(self, tmp_path):
        db = Database(tmp_path / "db")
        _proj, data = make_random_projection(db, cardinality=20, seed=4)
        r = db.sql("SELECT k, v0 FROM t WHERE k < 10")
        assert r.n_rows == int((data["k"] < 10).sum())


class TestAssertQueriesAgree:
    def test_passes_on_consistent_engine(self, tmp_path):
        db = Database(tmp_path / "db")
        make_random_projection(db, cardinality=30, seed=2)
        n = assert_queries_agree(
            db,
            SelectQuery(
                projection="t",
                select=("k", "v0"),
                predicates=(Predicate("v0", "<", 15),),
            ),
        )
        assert n > 0

    def test_subset_of_strategies(self, tmp_path):
        db = Database(tmp_path / "db")
        make_random_projection(db, seed=3)
        assert_queries_agree(
            db,
            SelectQuery(projection="t", select=("k",)),
            strategies=[Strategy.EM_PARALLEL, Strategy.LM_PARALLEL],
        )
