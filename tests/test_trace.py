"""Tests for execution tracing: the operator shape of each span tree."""

import pytest

from repro import JoinQuery, Predicate, SelectQuery, Strategy


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


def ops(root):
    """Operator names below the root ``query`` span, pre-order."""
    return [span.name for span in root.walk()][1:]


def detail(root, name):
    """The detail of the first span named *name*."""
    return root.find(name)[0].detail


class TestTrace:
    def test_disabled_by_default(self, tpch_db, query):
        assert tpch_db.query(query).spans is None

    def test_lm_parallel_shape(self, tpch_db, query):
        r = tpch_db.query(query, strategy=Strategy.LM_PARALLEL, trace=True)
        assert ops(r.spans) == [
            "DS1", "DS1", "AND", "DS3", "DS3", "MERGE", "OUTPUT"
        ]
        and_event = detail(r.spans, "AND")
        assert and_event["positions"] == r.n_rows
        # Both extractions served from pinned mini-columns.
        assert all(span.detail["pinned"] for span in r.spans.find("DS3"))

    def test_lm_pipelined_shape(self, tpch_db, query):
        r = tpch_db.query(query, strategy=Strategy.LM_PIPELINED, trace=True)
        names = ops(r.spans)
        assert names[0] == "DS1"
        assert "DS3+filter" in names
        assert names[-2:] == ["MERGE", "OUTPUT"]
        assert "AND" not in names  # pipelining obviates the AND

    def test_em_pipelined_shape(self, tpch_db, query):
        r = tpch_db.query(query, strategy=Strategy.EM_PIPELINED, trace=True)
        names = ops(r.spans)
        assert names[0] == "DS2"
        assert "DS4" in names
        ds4 = detail(r.spans, "DS4")
        assert ds4["tuples_out"] <= ds4["tuples_in"]

    def test_em_parallel_shape(self, tpch_db, query):
        r = tpch_db.query(query, strategy=Strategy.EM_PARALLEL, trace=True)
        names = ops(r.spans)
        assert names == ["SPC", "OUTPUT"]
        spc = detail(r.spans, "SPC")
        assert spc["tuples"] == r.n_rows

    def test_index_path_traced(self, tpch_db):
        q = SelectQuery(
            projection="lineitem",
            select=("returnflag",),
            predicates=(Predicate("returnflag", "=", 1),),
        )
        r = tpch_db.query(q, strategy=Strategy.LM_PARALLEL, trace=True)
        ds1 = detail(r.spans, "DS1")
        assert ds1["via"] == "index"

    def test_counts_consistent_with_result(self, tpch_db, query):
        r = tpch_db.query(query, strategy=Strategy.LM_PARALLEL, trace=True)
        merge = detail(r.spans, "MERGE")
        assert merge["tuples"] == r.n_rows

    def test_join_traced(self, tpch_db):
        jq = JoinQuery(
            left="orders",
            right="customer",
            left_key="custkey",
            right_key="custkey",
            left_select=("shipdate",),
            right_select=("nationcode",),
            left_predicates=(Predicate("custkey", "<", 50),),
        )
        r = tpch_db.query(jq, strategy="materialized", trace=True)
        names = ops(r.spans)
        assert names[0] == "DS1"
        assert "SPC" in names
        assert "JOIN" in names
        assert "MERGE" in names
        assert names[-1] == "OUTPUT"
