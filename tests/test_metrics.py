"""Tests for query statistics counters and the metrics registry."""

from dataclasses import fields

import numpy as np

from repro import Predicate, SelectQuery
from repro.engine import QueryResult
from repro.metrics import (
    Counter,
    LatencyHistogram,
    MetricsRegistry,
    QueryStats,
    SlowQueryLog,
)
from repro.operators import TupleSet


def finished_query(strategy, wall_ms, simulated_ms=0.0, rows=0,
                   queue_wait_ms=0.0, degraded=False) -> QueryResult:
    """A hand-built finished query for feeding a registry directly."""
    stats = QueryStats()
    if queue_wait_ms:
        stats.extra["queue_wait_ms"] = queue_wait_ms
    return QueryResult(
        tuples=TupleSet(("x",), np.zeros((rows, 1), dtype=np.int64)),
        strategy=strategy,
        stats=stats,
        wall_ms=wall_ms,
        simulated_ms=simulated_ms,
        degraded=degraded,
    )


class TestQueryStats:
    def test_starts_at_zero(self):
        stats = QueryStats()
        assert stats.block_reads == 0
        assert stats.simulated_io_us == 0.0
        assert stats.extra == {}

    def test_merge_adds_counters(self):
        a = QueryStats(block_reads=2, tuples_constructed=10)
        b = QueryStats(block_reads=3, function_calls=7)
        b.extra["probe"] = 4
        a.merge(b)
        assert a.block_reads == 5
        assert a.tuples_constructed == 10
        assert a.function_calls == 7
        assert a.extra["probe"] == 4

    def test_merge_extra_accumulates(self):
        a = QueryStats()
        a.extra["x"] = 1
        b = QueryStats()
        b.extra["x"] = 2
        a.merge(b)
        assert a.extra["x"] == 3

    def test_reset(self):
        stats = QueryStats(block_reads=5, simulated_io_us=12.5)
        stats.extra["y"] = 1
        stats.reset()
        assert stats.block_reads == 0
        assert stats.simulated_io_us == 0.0
        assert stats.extra == {}

    def test_as_dict_includes_extra(self):
        stats = QueryStats(disk_seeks=1)
        stats.extra["join_matches"] = 9
        d = stats.as_dict()
        assert d["disk_seeks"] == 1
        assert d["join_matches"] == 9

    def test_str_only_nonzero(self):
        stats = QueryStats(block_reads=2)
        text = str(stats)
        assert "block_reads=2" in text
        assert "disk_seeks" not in text

    def test_counters_are_complete(self):
        """The field list is a contract: reflection-driven methods and the
        docstring must cover every counter."""
        names = [f.name for f in fields(QueryStats) if f.name != "extra"]
        doc = QueryStats.__doc__
        for name in names:
            assert name in doc, f"QueryStats docstring omits {name!r}"
        # merge/reset/as_dict operate over the same field set.
        one = QueryStats(**{name: 1 for name in names})
        other = QueryStats(**{name: 2 for name in names})
        one.merge(other)
        assert all(getattr(one, name) == 3 for name in names)
        assert set(one.as_dict()) == set(names)
        one.reset()
        assert all(not getattr(one, name) for name in names)


class TestDecodeCountersEndToEnd:
    """decode_hits / decode_misses flow through Database.query."""

    QUERY = SelectQuery(
        projection="lineitem",
        select=("shipdate", "quantity"),
        predicates=(Predicate("quantity", "<", 30),),
    )

    def test_cold_run_counts_misses(self, tpch_db):
        tpch_db.clear_cache()
        cold = tpch_db.query(self.QUERY, strategy="lm-parallel")
        # First touch of every block is a decode miss; in-query re-access
        # (DS3 over blocks DS1 already decoded) may already hit.
        assert cold.stats.decode_misses > 0

    def test_warm_run_counts_hits(self, tpch_db):
        tpch_db.clear_cache()
        tpch_db.query(self.QUERY, strategy="lm-parallel")
        warm = tpch_db.query(self.QUERY, strategy="lm-parallel")
        assert warm.stats.decode_hits > 0
        assert warm.stats.decode_misses == 0

    def test_spans_attribute_decode_counters(self, tpch_db):
        tpch_db.clear_cache()
        tpch_db.query(self.QUERY, strategy="lm-parallel")
        warm = tpch_db.query(self.QUERY, strategy="lm-parallel", trace=True)
        per_span = sum(
            s.self_stats().decode_hits for s in warm.spans.walk()
        )
        assert per_span == warm.stats.decode_hits > 0


class TestCounter:
    def test_increment(self):
        c = Counter()
        c.inc()
        c.inc(4)
        assert c.value == 5


class TestLatencyHistogram:
    def test_snapshot_summary(self):
        h = LatencyHistogram()
        for ms in (1.0, 2.0, 4.0, 100.0):
            h.record(ms)
        snap = h.snapshot()
        assert snap["count"] == 4
        assert snap["min_ms"] == 1.0
        assert snap["max_ms"] == 100.0
        assert snap["p50_ms"] <= snap["p99_ms"]

    def test_empty_snapshot(self):
        assert LatencyHistogram().snapshot() == {"count": 0}

    def test_percentile_upper_bounds(self):
        h = LatencyHistogram()
        for _ in range(100):
            h.record(0.5)
        # 0.5 ms falls in a bucket whose upper bound is >= 0.5.
        assert h.percentile(0.5) >= 0.5


class TestSlowQueryLog:
    def test_threshold_filters(self):
        log = SlowQueryLog(threshold_ms=10.0)
        assert not log.observe(5.0, strategy="x")
        assert log.observe(15.0, strategy="x")
        assert len(log.entries()) == 1

    def test_ring_buffer_caps(self):
        log = SlowQueryLog(threshold_ms=0.0, capacity=3)
        for i in range(10):
            log.observe(float(i + 1), n=i)
        entries = log.entries()
        assert len(entries) == 3
        assert entries[-1]["n"] == 9


class TestMetricsRegistry:
    def test_observe_query_populates(self):
        reg = MetricsRegistry()
        reg.observe_query(
            finished_query("lm-parallel", wall_ms=3.0, simulated_ms=1.0,
                           rows=10),
            encodings=("rle",),
        )
        snap = reg.snapshot()
        assert snap["counters"]["queries_total"] == 1
        assert snap["counters"]["queries.strategy.lm-parallel"] == 1
        assert snap["counters"]["queries.encoding.rle"] == 1
        assert snap["histograms"]["query_wall_ms"]["count"] == 1

    def test_slow_query_logged_and_counted(self):
        reg = MetricsRegistry(slow_query_threshold_ms=1.0)
        reg.observe_query(finished_query("spc", wall_ms=5.0), description="q")
        snap = reg.snapshot()
        assert snap["counters"]["queries_slow_total"] == 1
        assert snap["slow_queries"][0]["strategy"] == "spc"

    def test_collector_replacement_and_unregister(self):
        reg = MetricsRegistry()
        reg.register_collector("pool", lambda: {"v": 1})
        second = lambda: {"v": 2}  # noqa: E731 - clearer than def here
        reg.register_collector("pool", second)
        assert reg.snapshot()["pool"] == {"v": 2}
        reg.unregister_collector("pool", lambda: None)  # not the owner: no-op
        assert "pool" in reg.snapshot()
        reg.unregister_collector("pool", second)
        assert "pool" not in reg.snapshot()

    def test_failing_collector_is_contained(self):
        reg = MetricsRegistry()

        def boom():
            raise RuntimeError("gone")

        reg.register_collector("dead", boom)
        assert "RuntimeError" in reg.snapshot()["dead"]["error"]

    def test_reset_keeps_collectors(self):
        reg = MetricsRegistry()
        reg.register_collector("pool", lambda: {"v": 1})
        reg.observe_query(finished_query("spc", wall_ms=1.0))
        reg.reset()
        snap = reg.snapshot()
        assert snap["counters"] == {}
        assert snap["pool"] == {"v": 1}

    def test_database_reports_into_registry(self, tmp_path):
        from repro import Database, load_tpch

        reg = MetricsRegistry(slow_query_threshold_ms=0.0)
        with Database(tmp_path / "db", metrics=reg) as db:
            load_tpch(db.catalog, scale=0.002, seed=7)
            db.query(
                SelectQuery(projection="lineitem", select=("linenum",)),
                strategy="lm-parallel",
            )
            snap = reg.snapshot()
            assert snap["counters"]["queries_total"] == 1
            assert snap["counters"]["queries_slow_total"] == 1
            assert snap["buffer_pool"]["resident_blocks"] > 0
            assert "decoded_cache" in snap
        # close() detached the cache collectors.
        assert "buffer_pool" not in reg.snapshot()
