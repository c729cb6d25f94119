"""Workload summarization and log replay (:mod:`repro.workload`).

The summarize tests run against synthetic record dicts (the qlog schema is
plain JSON, so hand-built records are first-class); the replay tests capture
a real log with one database and re-execute it against a second database
over the same catalog root, including a tampered-hash mismatch case.
"""

from __future__ import annotations

import json

import pytest

from repro import (
    Database,
    MetricsRegistry,
    Predicate,
    SelectQuery,
    read_query_log,
    replay_log,
    summarize_log,
)
from repro.metrics import exact_percentile as _percentile
from repro.testing import make_random_projection


def _record(seq=0, outcome="ok", strategy="em-parallel", origin="embedded",
            wall=1.0, **extra):
    base = {
        "seq": seq,
        "outcome": outcome,
        "origin": origin,
        "strategy": strategy,
        "fingerprint": extra.pop("fingerprint", "abc123"),
        "template": extra.pop("template", "SELECT k FROM t WHERE k<?"),
        "kind": "select",
        "columns": extra.pop("columns", ["k"]),
        "wall_ms": wall,
        "simulated_ms": wall * 2,
        "queue_wait_ms": 0.5,
        "rows": 10,
    }
    base.update(extra)
    return base


class TestPercentile:
    def test_empty_and_single(self):
        assert _percentile([], 0.5) == 0.0
        assert _percentile([7.0], 0.99) == 7.0

    def test_interpolates(self):
        values = [0.0, 10.0]
        assert _percentile(values, 0.5) == 5.0
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        assert _percentile(values, 0.5) == 3.0
        assert _percentile(values, 1.0) == 5.0
        assert _percentile(values, 0.0) == 1.0


class TestSummarize:
    def test_aggregates_mixes_and_totals(self):
        records = [
            _record(seq=0, strategy="em-parallel", wall=1.0,
                    encodings={"k": "rle"}),
            _record(seq=1, strategy="lm-parallel", wall=3.0, origin="served",
                    encodings={"k": "rle", "v0": "dictionary"},
                    columns=["k", "v0"]),
            _record(seq=2, outcome="error", strategy="lm-pipelined", wall=0.2,
                    fingerprint="fff000", template="SELECT v0 FROM t"),
        ]
        s = summarize_log(records)
        assert s.total == 3
        assert s.by_outcome == {"ok": 2, "error": 1}
        assert s.by_strategy == {
            "em-parallel": 1, "lm-parallel": 1, "lm-pipelined": 1,
        }
        assert s.by_origin == {"embedded": 2, "served": 1}
        assert s.by_encoding == {"rle": 2, "dictionary": 1}
        assert s.column_touches == {"k": 3, "v0": 1}
        assert s.wall_ms_total == pytest.approx(4.2)
        assert len(s.templates) == 2
        # Only ok/degraded records contribute latency samples.
        assert len(s.wall_samples) == 2

    def test_partition_and_counter_totals(self):
        records = [
            _record(seq=0, partitions={"scanned": 3, "pruned": 1},
                    counters={"block_reads": 5}),
            _record(seq=1, partitions={"scanned": 2, "pruned": 4},
                    counters={"block_reads": 7, "cache_hits": 2}),
        ]
        s = summarize_log(records)
        assert s.partitions_scanned == 5
        assert s.partitions_pruned == 5
        assert s.counters == {"block_reads": 12, "cache_hits": 2}

    def test_top_templates_orders_by_wall_time(self):
        records = (
            [_record(seq=i, fingerprint="cheap", wall=0.1)
             for i in range(10)]
            + [_record(seq=20, fingerprint="dear", wall=50.0,
                       template="SELECT * FROM t")]
        )
        s = summarize_log(records)
        top = s.top_templates(2)
        assert [t.fingerprint for t in top] == ["dear", "cheap"]
        assert top[1].count == 10

    def test_template_percentiles_and_selectivity(self):
        records = [
            _record(seq=i, wall=float(i), selectivity=0.25)
            for i in range(1, 11)
        ]
        s = summarize_log(records)
        t = s.templates["abc123"]
        pct = t.percentiles()
        assert pct["p50"] == pytest.approx(5.5)
        assert t.to_dict()["selectivity_avg"] == pytest.approx(0.25)

    def test_to_dict_and_render_are_json_safe(self):
        s = summarize_log([_record(seq=i, wall=float(i)) for i in range(5)])
        d = s.to_dict(top=3)
        assert json.dumps(d)
        assert d["total"] == 5
        assert d["distinct_templates"] == 1
        text = s.render()
        assert "records        5" in text
        assert "templates by total wall time" in text

    def test_empty_log(self):
        s = summarize_log([])
        assert s.total == 0
        assert s.latency_percentiles() == {"p50": 0.0, "p90": 0.0, "p99": 0.0}
        assert json.dumps(s.to_dict())
        assert s.render()


@pytest.fixture()
def captured(tmp_path):
    """A real captured log plus a second (recorder-off) db over the same root."""
    db = Database(tmp_path / "db", metrics=MetricsRegistry())
    make_random_projection(db, n_rows=3000, seed=13)
    queries = [
        SelectQuery("t", ("k", "v0"), predicates=(Predicate("k", "<", v),))
        for v in (20, 50, 80)
    ]
    for strategy in ("em-pipelined", "em-parallel", "lm-pipelined",
                     "lm-parallel"):
        for q in queries:
            db.query(q, strategy=strategy)
    db.close()
    records = read_query_log(tmp_path / "db" / "_qlog")
    replay_db = Database(tmp_path / "db", metrics=MetricsRegistry(),
                         query_log=False)
    yield records, replay_db
    replay_db.close()


class TestReplay:
    def test_full_replay_matches(self, captured):
        records, replay_db = captured
        report = replay_log(replay_db, records, check=True)
        assert report.ok
        assert report.total == 12
        assert report.replayed == 12
        assert report.matched == 12
        assert report.mismatched == 0
        assert len(report.strategies) == 4
        assert report.origins == {"embedded": 12}

    def test_tampered_hash_detected(self, captured):
        records, replay_db = captured
        records[3]["result_hash"] = "0" * 16
        report = replay_log(replay_db, records, check=True)
        assert not report.ok
        assert report.mismatched == 1
        assert report.matched == 11
        mismatch = report.mismatches[0]
        assert mismatch.seq == records[3]["seq"]
        assert mismatch.recorded_hash == "0" * 16
        assert mismatch.replayed_hash != "0" * 16
        assert "MISMATCH" in report.render()

    def test_non_ok_and_hashless_records_skipped(self, captured):
        records, replay_db = captured
        records = list(records)
        records[0] = dict(records[0], outcome="error")
        hashless = dict(records[1])
        del hashless["result_hash"]
        records[1] = hashless
        report = replay_log(replay_db, records, check=True)
        assert report.ok
        assert report.skipped == 2
        assert report.replayed == 10

    def test_check_false_replays_hashless(self, captured):
        records, replay_db = captured
        stripped = [
            {k: v for k, v in r.items() if k != "result_hash"}
            for r in records
        ]
        report = replay_log(replay_db, stripped, check=False)
        assert report.ok
        assert report.replayed == 12
        assert report.matched == 12  # vacuous without hashes

    def test_limit_caps_replays(self, captured):
        records, replay_db = captured
        report = replay_log(replay_db, records, check=True, limit=5)
        assert report.replayed == 5
        assert report.skipped == 7
        assert report.ok

    def test_residuals_accumulate_consistently(self, captured):
        """Model-residual accounting is exact against QueryStats totals."""
        records, db = captured
        summary = summarize_log(records, db=db)
        templates = list(summary.templates.values())
        assert any(t.predicted_count for t in templates)
        for t in templates:
            # The defining identity, exact (no rounding in the fields).
            assert t.residual_ms_total == (
                t.predicted_ms_total - t.measured_on_predicted_ms_total
            )
            # Every record here is an ok select with its projection
            # recorded, so the predicted subset is the whole template and
            # its measured side equals the QueryStats-derived total.
            assert t.predicted_count == t.count
            assert t.measured_on_predicted_ms_total == t.simulated_ms_total
        assert sum(t.simulated_ms_total for t in templates) == pytest.approx(
            summary.simulated_ms_total
        )
        assert sum(t.residual_ms_total for t in templates) == pytest.approx(
            sum(t.predicted_ms_total for t in templates)
            - summary.simulated_ms_total
        )
        d = summary.to_dict()
        top = d["top_templates"][0]
        assert "predicted_count" in top and "residual_ms_total" in top

    def test_residuals_require_a_database(self, captured):
        records, _db = captured
        summary = summarize_log(records)
        assert all(
            t.predicted_count == 0 and t.residual_ms_total == 0.0
            for t in summary.templates.values()
        )

    def test_unknown_projection_counts_as_error(self, captured):
        records, replay_db = captured
        bad = dict(records[0])
        bad["query"] = dict(bad["query"], projection="nope")
        report = replay_log(replay_db, [bad], check=True)
        assert report.errors == 1
        assert not report.ok
        assert report.error_detail[0]["seq"] == bad["seq"]
        assert json.dumps(report.to_dict())
