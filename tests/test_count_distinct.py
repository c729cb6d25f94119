"""Tests for COUNT(DISTINCT col)."""

from datetime import date

import numpy as np
import pytest

from repro import AggSpec, Database, Predicate, SelectQuery, Strategy, load_tpch
from repro.errors import ExecutionError

from .reference import full_column


def reference_distinct_counts(tpch_db, predicates=()):
    lineitem = tpch_db.projection("lineitem")
    flag = full_column(lineitem, "returnflag")
    qty = full_column(lineitem, "quantity")
    mask = np.ones(len(flag), dtype=bool)
    for pred in predicates:
        mask &= pred.mask(full_column(lineitem, pred.column))
    out = {}
    for v in np.unique(flag[mask]):
        out[int(v)] = int(len(np.unique(qty[mask][flag[mask] == v])))
    return out


class TestCountDistinct:
    def test_output_name(self):
        assert AggSpec("count_distinct", "q").output_name == "count(distinct q)"

    @pytest.mark.parametrize("strategy", list(Strategy), ids=lambda s: s.value)
    def test_matches_reference(self, tpch_db, strategy):
        predicates = (Predicate("quantity", "<", 25),)
        query = SelectQuery(
            projection="lineitem",
            select=("returnflag", "count(distinct quantity)"),
            predicates=predicates,
            group_by="returnflag",
            aggregates=(AggSpec("count_distinct", "quantity"),),
        )
        result = tpch_db.query(query, strategy=strategy, cold=True)
        expected = reference_distinct_counts(tpch_db, predicates)
        assert {int(g): int(c) for g, c in result.rows()} == expected

    def test_mixed_with_plain_count(self, tpch_db):
        r = tpch_db.sql(
            "SELECT returnflag, COUNT(DISTINCT linenum), COUNT(linenum) "
            "FROM lineitem GROUP BY returnflag"
        )
        for _flag, distinct, total in r.rows():
            assert distinct == 7
            assert total > distinct

    def test_having_on_count_distinct(self, tpch_db):
        r = tpch_db.sql(
            "SELECT quantity, COUNT(DISTINCT linenum) FROM lineitem "
            "WHERE quantity < 4 GROUP BY quantity "
            "HAVING COUNT(DISTINCT linenum) >= 7"
        )
        assert all(c >= 7 for _q, c in r.rows())

    def test_distinct_only_for_count(self, tpch_db):
        from repro.errors import SQLError

        with pytest.raises(SQLError):
            tpch_db.sql(
                "SELECT returnflag, SUM(DISTINCT quantity) FROM lineitem "
                "GROUP BY returnflag"
            )

    def test_pending_inserts_require_merge(self, tmp_path):
        db = Database(tmp_path / "db")
        load_tpch(db.catalog, scale=0.001, seed=3)
        db.insert(
            "lineitem",
            [
                {
                    "shipdate": date(1999, 1, 1),
                    "linenum": 1,
                    "quantity": 1,
                    "returnflag": "A",
                }
            ],
        )
        with pytest.raises(ExecutionError, match="merge"):
            db.sql(
                "SELECT returnflag, COUNT(DISTINCT quantity) FROM lineitem "
                "GROUP BY returnflag"
            )
        # One planner rule: what cannot run is not explained either.
        query = SelectQuery(
            projection="lineitem",
            select=("returnflag", "count(distinct quantity)"),
            group_by="returnflag",
            aggregates=(AggSpec("count_distinct", "quantity"),),
        )
        for strategy in ("auto", *Strategy):
            with pytest.raises(ExecutionError, match="merge"):
                db.describe(query, strategy)
        with pytest.raises(ExecutionError, match="merge"):
            db.explain(query)
        db.merge("lineitem")
        r = db.sql(
            "SELECT returnflag, COUNT(DISTINCT quantity) FROM lineitem "
            "GROUP BY returnflag"
        )
        assert r.n_rows == 3
