"""The workload flight recorder: fingerprints, rotation, crash recovery.

The crash-simulation tests mirror the DeltaStore WAL tests: a torn final
line (the only damage the line-by-line flush permits) is truncated by the
writer on re-open and tolerated by the reader; corruption anywhere else
raises :class:`~repro.errors.CatalogError` naming the file and line; and
segment rotation preserves record ordering (monotonic ``seq``) across
segment boundaries.
"""

from __future__ import annotations

import json

import pytest

from repro import (
    AggSpec,
    CatalogError,
    Database,
    MetricsRegistry,
    Predicate,
    QueryLog,
    SelectQuery,
    UnsupportedOperationError,
    query_fingerprint,
    query_template,
    read_query_log,
)
from repro.testing import make_random_projection
from repro.workload import summarize_log


def _db(tmp_path, **kwargs):
    kwargs.setdefault("metrics", MetricsRegistry())
    db = Database(tmp_path / "db", **kwargs)
    make_random_projection(db, n_rows=3000, seed=11)
    return db


def _select(value=50, op="<", select=("k", "v0")):
    return SelectQuery("t", select, predicates=(Predicate("k", op, value),))


class TestFingerprint:
    def test_literals_stripped(self):
        a = _select(value=10)
        b = _select(value=99)
        assert query_fingerprint(a) == query_fingerprint(b)
        assert query_template(a) == "SELECT k, v0 FROM t WHERE k<?"

    def test_structure_distinguishes(self):
        base = _select()
        assert query_fingerprint(base) != query_fingerprint(
            _select(op="<=")
        )
        assert query_fingerprint(base) != query_fingerprint(
            _select(select=("k",))
        )

    def test_encoding_override_distinguishes(self):
        plain = _select()
        encoded = SelectQuery(
            "t", ("k", "v0"),
            predicates=(Predicate("k", "<", 50),),
            encodings=(("k", "rle"),),
        )
        assert query_fingerprint(plain) != query_fingerprint(encoded)

    def test_limit_presence_not_value(self):
        with_10 = SelectQuery("t", ("k",), limit=10)
        with_99 = SelectQuery("t", ("k",), limit=99)
        without = SelectQuery("t", ("k",))
        assert query_fingerprint(with_10) == query_fingerprint(with_99)
        assert query_fingerprint(with_10) != query_fingerprint(without)

    def test_aggregate_template(self):
        q = SelectQuery(
            "t", ("k", "sum_v0"),
            group_by="k",
            aggregates=(AggSpec("sum", "v0"),),
        )
        assert "GROUP BY k" in query_template(q)


class TestRecorderCapture:
    def test_records_ok_queries(self, tmp_path):
        db = _db(tmp_path)
        db.query(_select(), strategy="em-pipelined")
        db.query(_select(), strategy="lm-parallel")
        db.close()
        records = read_query_log(tmp_path / "db" / "_qlog")
        assert len(records) == 2
        first = records[0]
        assert first["outcome"] == "ok"
        assert first["origin"] == "embedded"
        assert first["strategy"] == "em-pipelined"
        assert first["kind"] == "select"
        assert first["columns"] == ["k", "v0"]
        assert 0.0 < first["selectivity"] < 1.0
        assert first["counters"]["block_reads"] > 0
        assert first["result_hash"]
        assert records[0]["seq"] == 0 and records[1]["seq"] == 1

    def test_selectivity_is_over_the_rows_read(self, tmp_path):
        # The denominator is stored + pending - deleted rows, read from the
        # same snapshot as the answer, so a full read selects exactly 1.
        db = _db(tmp_path)
        db.insert("t", [{"k": 7, "v0": 1, "v1": 2}] * 120)
        deleted = db.delete("t", (Predicate("v0", "=", 3),))
        assert deleted > 0
        result = db.query(SelectQuery("t", ("k", "v0")), strategy="lm-parallel")
        assert result.n_rows == 3000 + 120 - deleted
        assert result.base_rows == result.n_rows
        db.close()
        record = read_query_log(tmp_path / "db" / "_qlog")[-1]
        assert record["selectivity"] == 1.0

    def test_records_error_outcome(self, tmp_path):
        db = _db(tmp_path)
        bad = SelectQuery(
            "t", ("k", "v0"),
            predicates=(Predicate("v0", "<", 50),),
            encodings=(("v0", "bitvector"),),
        )
        # v0 has no bit-vector encoding stored -> execution error, logged.
        with pytest.raises(Exception):
            db.query(bad, strategy="lm-pipelined")
        db.close()
        records = read_query_log(tmp_path / "db" / "_qlog")
        assert len(records) == 1
        assert records[0]["outcome"] == "error"
        assert records[0]["error"]["type"]
        assert "result_hash" not in records[0]

    def test_unsupported_strategy_encoding_is_error_outcome(self, tmp_path):
        db = Database(tmp_path / "db", metrics=MetricsRegistry())
        make_random_projection(
            db, n_rows=2000, seed=5, cardinality=8,
            encodings={"k": ["rle", "uncompressed"],
                       "v0": ["uncompressed", "bitvector"],
                       "v1": ["uncompressed", "bitvector"]},
        )
        # LM-pipelined position-filters every predicate column after the
        # first (DS3); bit-vector encoding cannot do that (paper Section 2),
        # and with both predicate columns bit-vector encoded no predicate
        # reordering can save the plan.
        q = SelectQuery(
            "t", ("k", "v0"),
            predicates=(Predicate("v0", "<", 5), Predicate("v1", "<", 5)),
            encodings=(("v0", "bitvector"), ("v1", "bitvector")),
        )
        with pytest.raises(UnsupportedOperationError):
            db.query(q, strategy="lm-pipelined")
        db.close()
        records = read_query_log(tmp_path / "db" / "_qlog")
        assert records[0]["outcome"] == "error"
        assert records[0]["error"]["type"] == "UnsupportedOperationError"

    def test_query_log_false_disables(self, tmp_path):
        db = _db(tmp_path, query_log=False)
        db.query(_select())
        db.close()
        assert not (tmp_path / "db" / "_qlog").exists()

    def test_recording_changes_no_result_or_cost(self, tmp_path):
        recorded = _db(tmp_path)
        unrecorded = Database(tmp_path / "db", query_log=False,
                              metrics=MetricsRegistry())
        for strategy in ("em-pipelined", "lm-parallel"):
            for cold in (True, False):
                a = unrecorded.query(_select(), strategy=strategy, cold=cold)
                b = recorded.query(_select(), strategy=strategy, cold=cold)
                assert b.rows() == a.rows()
                assert b.simulated_ms == a.simulated_ms
        recorded.close()
        unrecorded.close()

    def test_sampling_is_deterministic_and_exact(self, tmp_path):
        log = QueryLog(tmp_path / "qlog", sample=0.25)
        db = _db(tmp_path, query_log=log)
        for _ in range(40):
            db.query(_select())
        db.close()
        records = read_query_log(tmp_path / "qlog")
        assert len(records) == 10  # exactly floor(40 * 0.25)

    def test_collector_reports_recorder_state(self, tmp_path):
        db = _db(tmp_path)
        db.query(_select())
        snap = db.metrics.snapshot()
        assert snap["query_log"]["written"] == 1
        assert snap["query_log"]["segments"] == 1
        db.close()

    def test_rejection_before_binding_has_no_template(self, tmp_path):
        log = QueryLog(tmp_path / "qlog")
        log.observe_rejected(None, "draining", session="7")
        log.observe_rejected(_select(), "queue full", session="7")
        log.close()
        unbound, bound = read_query_log(tmp_path / "qlog")
        static = {"fingerprint", "kind", "template", "columns", "query"}
        assert not static & set(unbound)
        assert static <= set(bound)
        assert unbound["outcome"] == "rejected"
        assert unbound["session"] == "7"
        summary = summarize_log([unbound, bound])
        assert summary.by_outcome == {"rejected": 2}
        assert summary.by_origin == {"served": 2}
        assert [t.template for t in summary.templates.values()] == [
            query_template(_select())
        ]

    def test_invalid_sample_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            QueryLog(tmp_path / "qlog", sample=0.0)
        with pytest.raises(ValueError):
            QueryLog(tmp_path / "qlog", sample=1.5)


class TestRotation:
    def test_rotation_preserves_ordering_across_segments(self, tmp_path):
        # Tiny segments force rotation every few records.
        log = QueryLog(tmp_path / "qlog", max_segment_bytes=2048)
        db = _db(tmp_path, query_log=log)
        for i in range(30):
            db.query(_select(value=i))
        db.close()
        segments = sorted((tmp_path / "qlog").glob("qlog-*.jsonl"))
        assert len(segments) > 1, "rotation never happened"
        records = read_query_log(tmp_path / "qlog")
        assert len(records) == 30
        assert [r["seq"] for r in records] == list(range(30))
        # Each sealed segment respects the byte budget.
        for segment in segments[:-1]:
            assert segment.stat().st_size <= 2048

    def test_reopen_continues_sequence(self, tmp_path):
        log = QueryLog(tmp_path / "qlog")
        db = _db(tmp_path, query_log=log)
        db.query(_select())
        db.close()
        log2 = QueryLog(tmp_path / "qlog")
        db2 = Database(tmp_path / "db", metrics=MetricsRegistry(),
                       query_log=log2)
        db2.query(_select())
        db2.close()
        records = read_query_log(tmp_path / "qlog")
        assert [r["seq"] for r in records] == [0, 1]


class TestCrashRecovery:
    def _capture(self, tmp_path, n=4):
        db = _db(tmp_path)
        for i in range(n):
            db.query(_select(value=10 + i))
        db.close()
        return tmp_path / "db" / "_qlog"

    def test_torn_final_line_tolerated_by_reader(self, tmp_path):
        qlog_dir = self._capture(tmp_path)
        segment = sorted(qlog_dir.glob("qlog-*.jsonl"))[-1]
        with open(segment, "a", encoding="utf-8") as f:
            f.write('{"seq": 99, "outcome": "ok", "trunc')  # torn write
        records = read_query_log(qlog_dir)
        assert len(records) == 4
        assert all(r["outcome"] == "ok" for r in records)

    def test_torn_final_line_truncated_on_reopen(self, tmp_path):
        qlog_dir = self._capture(tmp_path)
        segment = sorted(qlog_dir.glob("qlog-*.jsonl"))[-1]
        with open(segment, "a", encoding="utf-8") as f:
            f.write('{"seq": 99, "outcome": "ok", "trunc')
        log = QueryLog(qlog_dir)  # writer recovery truncates the tail
        log.close()
        content = segment.read_text(encoding="utf-8")
        assert "trunc" not in content
        assert len(content.strip().splitlines()) == 4
        # The next record resumes the sequence after the last intact one.
        db = Database(tmp_path / "db", metrics=MetricsRegistry(),
                      query_log=QueryLog(qlog_dir))
        db.query(_select())
        db.close()
        assert read_query_log(qlog_dir)[-1]["seq"] == 4

    def test_mid_file_corruption_raises_naming_file(self, tmp_path):
        qlog_dir = self._capture(tmp_path)
        segment = sorted(qlog_dir.glob("qlog-*.jsonl"))[-1]
        lines = segment.read_text(encoding="utf-8").strip().splitlines()
        lines[1] = '{"seq": 1, "garbage'
        segment.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(CatalogError) as excinfo:
            read_query_log(qlog_dir)
        assert str(segment) in str(excinfo.value)
        assert "line 2" in str(excinfo.value)
        # The writer's recovery contract is the same.
        with pytest.raises(CatalogError):
            QueryLog(qlog_dir)

    def test_torn_line_in_sealed_segment_raises(self, tmp_path):
        # Only the FINAL segment may carry a torn tail; damage in an
        # earlier (sealed) segment is real corruption.
        log = QueryLog(tmp_path / "qlog", max_segment_bytes=2048)
        db = _db(tmp_path, query_log=log)
        for i in range(30):
            db.query(_select(value=i))
        db.close()
        segments = sorted((tmp_path / "qlog").glob("qlog-*.jsonl"))
        assert len(segments) > 1
        with open(segments[0], "a", encoding="utf-8") as f:
            f.write('{"torn')
        with pytest.raises(CatalogError) as excinfo:
            read_query_log(tmp_path / "qlog")
        assert str(segments[0]) in str(excinfo.value)

    def test_missing_log_raises(self, tmp_path):
        with pytest.raises(CatalogError):
            read_query_log(tmp_path / "nope")

    def test_single_segment_file_readable(self, tmp_path):
        qlog_dir = self._capture(tmp_path, n=2)
        segment = sorted(qlog_dir.glob("qlog-*.jsonl"))[-1]
        records = read_query_log(segment)
        assert len(records) == 2
        assert json.dumps(records[0])  # JSON-safe all the way down
