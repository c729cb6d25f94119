"""Unit tests for the span tree and tracer (repro.observe)."""

import pytest

from repro import PAPER_CONSTANTS, Predicate, SelectQuery, Strategy
from repro.metrics import QueryStats
from repro.model.cost import replay_breakdown, simulated_time_ms
from repro.observe import Span, SpanTracer


def make_tracer():
    """A tracer over a fake monotonic clock (1 ms per tick)."""
    stats = QueryStats()
    ticks = iter(range(1000))

    def clock():
        return next(ticks) * 0.001

    return stats, SpanTracer(stats, clock=clock)


class TestSpanTracer:
    def test_nesting_and_timing(self):
        stats, tracer = make_tracer()
        outer = tracer.begin("A")
        stats.function_calls += 10
        inner = tracer.begin("B")
        stats.function_calls += 5
        tracer.end(inner, rows=1)
        tracer.end(outer, rows=2)
        root = tracer.finish()
        assert [c.name for c in root.children] == ["A"]
        assert [c.name for c in root.children[0].children] == ["B"]
        assert outer.stats.function_calls == 15  # cumulative
        assert outer.self_stats().function_calls == 10  # exclusive
        assert inner.wall_ms > 0
        assert root.status == "ok"

    def test_out_of_order_close_raises(self):
        _stats, tracer = make_tracer()
        a = tracer.begin("A")
        tracer.begin("B")
        with pytest.raises(RuntimeError):
            tracer.end(a)

    def test_finish_truncates_open_spans(self):
        stats, tracer = make_tracer()
        tracer.begin("A")
        tracer.begin("B")
        root = tracer.finish(error=ValueError("boom"))
        assert root.open_spans() == []
        assert root.status == "error"
        assert root.detail["error"] == "ValueError"
        a = root.children[0]
        assert a.status == "error"
        assert a.detail["error"] == "ValueError"

    def test_extra_counters_attributed(self):
        stats, tracer = make_tracer()
        span = tracer.begin("JOIN")
        stats.extra["join_matches"] = 7
        tracer.end(span)
        assert span.stats.extra == {"join_matches": 7}

    def test_adopt_grafts_leaf_children(self):
        _stats, parent = make_tracer()
        leaf_stats, leaf = make_tracer()
        s = leaf.begin("DS1")
        leaf_stats.values_scanned += 3
        leaf.end(s, positions=3)
        parent.adopt(leaf)
        assert [c.name for c in parent.root.children] == ["DS1"]

    def test_adopt_with_error_closes_leaf_spans(self):
        _stats, parent = make_tracer()
        _leaf_stats, leaf = make_tracer()
        leaf.begin("DS1")  # never closed: the leaf task raised
        parent.adopt(leaf, error=OSError("disk"))
        ds1 = parent.root.children[0]
        assert ds1.status == "error"
        assert ds1.detail["error"] == "OSError"


class TestSpan:
    def test_rows_out_probes_detail_keys(self):
        assert Span("X", detail={"tuples": 4}).rows_out == 4
        assert Span("X", detail={"positions_out": 2}).rows_out == 2
        assert Span("X").rows_out is None

    def test_walk_visits_parents_before_children(self):
        root = Span("query")
        a = Span("A")
        a.children.append(Span("B"))
        root.children.append(a)
        assert [s.name for s in root.walk()] == ["query", "A", "B"]

    def test_find_and_walk(self):
        root = Span("query")
        root.children = [Span("DS1"), Span("DS1"), Span("AND")]
        assert len(root.find("DS1")) == 2
        assert len(list(root.walk())) == 4

    def test_to_dict_is_json_safe(self):
        import json

        import numpy as np

        span = Span("X", detail={"n": np.int64(3), "cols": ("a", "b")})
        span.stats.block_reads = 1
        encoded = json.dumps(span.to_dict(PAPER_CONSTANTS))
        decoded = json.loads(encoded)
        assert decoded["detail"]["n"] == 3
        assert decoded["counters"]["block_reads"] == 1
        assert "self_simulated_ms" in decoded


class TestReplayBreakdown:
    def test_terms_sum_to_simulated_time(self):
        stats = QueryStats(
            block_iterations=10,
            column_iterations=100,
            tuple_iterations=20,
            function_calls=50,
            simulated_io_us=123.0,
        )
        parts = replay_breakdown(stats, PAPER_CONSTANTS)
        assert sum(parts.values()) == pytest.approx(
            simulated_time_ms(stats, PAPER_CONSTANTS)
        )


class TestQueryResultSpans:
    QUERY = SelectQuery(
        projection="lineitem",
        select=("shipdate", "linenum"),
        predicates=(
            Predicate("shipdate", "<", 8800),
            Predicate("linenum", "<", 7),
        ),
    )

    def test_span_tree_shape_lm_parallel(self, tpch_db):
        r = tpch_db.query(self.QUERY, strategy=Strategy.LM_PARALLEL, trace=True)
        root = r.spans
        assert root.name == "query"
        assert root.detail["strategy"] == "lm-parallel"
        names = [c.name for c in root.children]
        assert names == ["DS1", "DS1", "AND", "DS3", "DS3", "MERGE", "OUTPUT"]
        assert all(s.status == "ok" for s in root.walk())

    def test_self_times_sum_to_query_total(self, tpch_db):
        for strategy in Strategy:
            r = tpch_db.query(self.QUERY, strategy=strategy, trace=True)
            total = sum(
                s.self_simulated_ms(tpch_db.constants) for s in r.spans.walk()
            )
            assert total == pytest.approx(r.simulated_ms, rel=1e-9)

    def test_untraced_query_has_no_spans(self, tpch_db):
        r = tpch_db.query(self.QUERY)
        assert r.spans is None

    def test_explain_analyze_report(self, tpch_db):
        report = tpch_db.explain(
            self.QUERY, analyze=True, strategy="lm-parallel"
        )
        assert report["strategy"] == "lm-parallel"
        assert report["rows"] == report["root"].find("OUTPUT")[0].rows_out
        assert "+- DS1" in report["text"]
        assert "sim=" in report["text"] and "self=" in report["text"]
        assert report["json"]["operator"] == "query"

    def test_parallel_leaves_adopted_deterministically(self, tmp_path):
        from repro import Database, load_tpch

        with Database(tmp_path / "db", parallel_scans=4) as db:
            load_tpch(db.catalog, scale=0.002, seed=7)
            trees = []
            for _ in range(3):
                r = db.query(
                    self.QUERY, strategy=Strategy.LM_PARALLEL, trace=True
                )
                trees.append(
                    [(c.name, c.detail.get("column")) for c in r.spans.children]
                )
            assert trees[0] == trees[1] == trees[2]
            assert trees[0][:2] == [("DS1", "shipdate"), ("DS1", "linenum")]
