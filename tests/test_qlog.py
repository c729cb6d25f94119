"""The workload flight recorder: fingerprints, rotation, crash recovery,
and the line format.

The crash-simulation tests mirror the DeltaStore WAL tests: a torn final
line (the only damage the line-by-line flush permits) is truncated by the
writer on re-open and tolerated by the reader; corruption anywhere else
raises :class:`~repro.errors.CatalogError` naming the file and line; and
segment rotation preserves record ordering (monotonic ``seq``) across
segment boundaries. The format tests hold the version-2 lines (header,
definitions, records) to the flat version-1 dicts: a random record stream
reads back exactly as a small version-1 serializer kept here writes it,
torn or reopened anywhere, and a checked-in version-1 log still reads,
replays and takes appends.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro import (
    AggSpec,
    CatalogError,
    Database,
    JoinQuery,
    MetricsRegistry,
    Predicate,
    QueryLog,
    SelectQuery,
    UnsupportedOperationError,
    query_fingerprint,
    query_template,
    read_query_log,
)
from repro.cli import main
from repro.dtypes import INT32, INT64, ColumnSchema
from repro.errors import QueryCancelledError, QueryTimeoutError
from repro.metrics import QueryStats
from repro.qlog import (
    _COUNTER_FIELDS,
    _touched_columns,
    own_records,
    result_hash,
)
from repro.serving.protocol import query_to_dict
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

    def test_collector_reports_recorder_state(self, tmp_path):
        db = _db(tmp_path)
        db.query(_select())
        snap = db.metrics.snapshot()
        assert snap["query_log"]["seen"] == 1
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


class TestRotation:
    @mock.patch("repro.qlog.SEGMENT_BYTES", 2048)
    def test_rotation_preserves_ordering_across_segments(self, tmp_path):
        # Tiny segments force rotation every few records.
        db = _db(tmp_path, query_log=QueryLog(tmp_path / "qlog"))
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
        intact = segment.read_text(encoding="utf-8")
        with open(segment, "a", encoding="utf-8") as f:
            f.write('{"seq": 99, "outcome": "ok", "trunc')
        log = QueryLog(qlog_dir)  # writer recovery truncates the tail
        log.close()
        assert segment.read_text(encoding="utf-8") == intact
        # The next record resumes the sequence after the last intact one.
        db = Database(tmp_path / "db", metrics=MetricsRegistry(),
                      query_log=QueryLog(qlog_dir))
        db.query(_select())
        db.close()
        assert read_query_log(qlog_dir)[-1]["seq"] == 4

    def test_final_line_missing_only_its_newline_is_torn(self, tmp_path):
        # The record's bytes parse, but its append never finished: kept,
        # the next session's header would join it on one line.
        qlog_dir = self._capture(tmp_path)
        segment = sorted(qlog_dir.glob("qlog-*.jsonl"))[-1]
        intact = segment.read_bytes()
        segment.write_bytes(intact[:-1])
        assert len(read_query_log(qlog_dir)) == 3
        # The writer's reopen cuts the torn line off.
        db = Database(tmp_path / "db", metrics=MetricsRegistry())
        assert segment.read_bytes() == intact[:intact.rindex(b"\n", 0, -1) + 1]
        db.query(_select())
        db.close()
        assert [r["seq"] for r in read_query_log(qlog_dir)] == [0, 1, 2, 3]
        assert Database(tmp_path / "db").scrub().clean

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

    @mock.patch("repro.qlog.SEGMENT_BYTES", 2048)
    def test_torn_line_in_sealed_segment_raises(self, tmp_path):
        # Only the FINAL segment may carry a torn tail; damage in an
        # earlier (sealed) segment is real corruption.
        db = _db(tmp_path, query_log=QueryLog(tmp_path / "qlog"))
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
        # A directory without segments is no log, whatever else it holds.
        (tmp_path / "other").mkdir()
        (tmp_path / "other" / "other.jsonl").write_text("{}\n")
        with pytest.raises(CatalogError, match="no query-log segments"):
            read_query_log(tmp_path / "other")

    def test_single_segment_file_readable(self, tmp_path):
        qlog_dir = self._capture(tmp_path, n=2)
        segment = sorted(qlog_dir.glob("qlog-*.jsonl"))[-1]
        records = read_query_log(segment)
        assert len(records) == 2
        assert json.dumps(records[0])  # JSON-safe all the way down


# --------------------------------------------------------------------------
# The line format: every version-2 stream reads back as version 1
# --------------------------------------------------------------------------

_QUERIES = (
    _select(value=10),
    _select(value=99),  # same template, another definition
    _select(value=10, select=("k",)),
    SelectQuery("t", ("k", "v0"), predicates=(Predicate("k", "<", 50),),
                encodings=(("k", "rle"),)),
    SelectQuery("t", ("v1", "sum(v0)"), group_by="v1",
                aggregates=(AggSpec("sum", "v0"),)),
    JoinQuery(left="t", right="dim", left_key="k", right_key="dk",
              left_select=("v0",), right_select=("w",)),
)


def _v1_line(seq, ts, query, origin, session, fields) -> dict:
    """What the version-1 writer wrote for one record: one flat dict."""
    record = {"ts": ts, "origin": origin}
    if session is not None:
        record["session"] = session
    if query is not None:
        record.update(
            fingerprint=query_fingerprint(query),
            kind="join" if isinstance(query, JoinQuery) else "select",
            template=query_template(query),
            columns=_touched_columns(query),
            query=query_to_dict(query),
        )
    record.update(fields, seq=seq)
    return json.loads(json.dumps(record))


def _v1_fields(query, result) -> dict:
    """The fields the version-1 writer took from a finished query."""
    summary = result.summary()
    fields = dict(
        strategy=summary["strategy"],
        encodings=dict(getattr(query, "encodings", ())),
        outcome="degraded" if "degraded" in summary else "ok",
        rows=summary["rows"],
        wall_ms=round(summary["wall_ms"], 3),
        simulated_ms=round(summary["simulated_ms"], 3),
        queue_wait_ms=round(summary["queue_wait_ms"], 3),
        counters={
            name: round(v, 3) if isinstance(v, float) else v
            for name in _COUNTER_FIELDS
            for v in [getattr(result.stats, name)]
        },
    )
    if result.projection is not None:
        fields["projection"] = result.projection
    if result.base_rows and not getattr(query, "aggregates", ()):
        fields["selectivity"] = round(summary["rows"] / result.base_rows, 6)
    for key in ("partitions", "skipped_partitions"):
        if key in summary:
            fields[key] = summary[key]
    if "degraded" not in summary:
        fields["result_hash"] = result_hash(result.tuples)
    return fields


class _Result:
    """A finished query as :meth:`QueryLog.observe` reads it."""

    def __init__(self, n, rows, degraded, partitioned, wait):
        self.stats = QueryStats(block_reads=n, function_calls=3 * n,
                                simulated_io_us=n * 1000.0 / 3)
        self.projection = "t" if n % 3 else None
        self.base_rows = 0 if n % 4 == 1 else 1000
        self.tuples = SimpleNamespace(
            columns=("k",), data=np.arange(rows, dtype=np.int64)[:, None]
        )
        self._summary = {
            "strategy": "lm-parallel", "rows": rows, "wall_ms": n / 7,
            "simulated_ms": n / 3, "queue_wait_ms": wait,
            "total_ms": wait + n / 7,
        }
        if partitioned:
            self._summary["partitions"] = {"total": 4, "scanned": 3,
                                           "pruned": 1}
        if degraded:
            self._summary.update(degraded=True, skipped_partitions=["p1"])

    def summary(self) -> dict:
        return dict(self._summary)


_EVENT = st.tuples(
    st.sampled_from(["ok", "ok", "ok", "degraded", "error", "timeout",
                     "cancelled", "rejected", "unbound"]),
    st.integers(0, len(_QUERIES) - 1),
    st.sampled_from([("embedded", None), ("served", "3"), ("embedded", "9")]),
    st.integers(0, 50),
    st.sampled_from([0.0, 0.0004, 1.25]),
)


def _run_session(directory, events, clock, expected):
    """Log *events* through one :class:`QueryLog` session, appending the
    version-1 dict of each record to *expected*."""
    log = QueryLog(directory)
    for outcome, qi, (origin, session), n, wait in events:
        query = None if outcome == "unbound" else _QUERIES[qi]
        ts = clock.tick()
        if outcome in ("ok", "degraded"):
            result = _Result(n, n * 3, outcome == "degraded", n % 2, wait)
            log.observe(query, result, origin=origin, session=session)
            fields = _v1_fields(query, result)
        elif outcome in ("rejected", "unbound"):
            log.observe_rejected(query, "queue full", origin=origin,
                                 session=session)
            fields = dict(outcome="rejected",
                          error={"type": "Rejected", "message": "queue full"},
                          wall_ms=0.0, queue_wait_ms=0.0)
        else:
            exc = {"timeout": QueryTimeoutError("slow"),
                   "cancelled": QueryCancelledError("stop"),
                   "error": ValueError("x" * 300)}[outcome]
            log.observe_error(query, exc, wall_ms=n / 7,
                              queue_wait_ms=wait, origin=origin,
                              session=session)
            fields = dict(outcome=outcome,
                          error={"type": type(exc).__name__,
                                 "message": str(exc)[:200]},
                          wall_ms=round(n / 7, 3),
                          queue_wait_ms=round(wait, 3))
        expected.append(_v1_line(len(expected), ts, query, origin, session,
                                 fields))
    log.close()


class _Clock:
    """A deterministic ``time.time`` for the record timestamps."""

    def __init__(self):
        self.now = 1_700_000_000.0

    def tick(self) -> float:
        self.now += 0.25
        return round(self.now, 3)

    def time(self) -> float:
        return self.now


def _write_stream(directory, sessions) -> list[dict]:
    clock, expected = _Clock(), []
    with mock.patch("repro.qlog.time", clock):
        for events in sessions:
            _run_session(directory, events, clock, expected)
    return expected


def _assert_reads_as(directory, expected):
    records = read_query_log(directory)
    assert records == expected
    assert [list(r) for r in records] == [list(r) for r in expected]


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    sessions=st.lists(st.lists(_EVENT, max_size=8), min_size=1, max_size=3),
    max_bytes=st.sampled_from([700, 2500, 1 << 20]),
)
def test_every_v2_stream_reads_back_as_v1(sessions, max_bytes):
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch("repro.qlog.SEGMENT_BYTES", max_bytes):
        directory = Path(tmp) / "qlog"
        expected = _write_stream(directory, sessions)
        if not expected:
            return
        _assert_reads_as(directory, expected)
        # Tear the final segment at every line boundary, inside every line
        # and just before every line's newline: the reader returns the
        # records of the whole lines, and a reopened writer recovers and
        # continues the sequence.
        final = sorted(directory.glob("qlog-*.jsonl"))[-1]
        text = final.read_text(encoding="utf-8")
        lines = text.splitlines(keepends=True)
        before = len(expected) - sum(
            not ({"qlog", "def"} & set(json.loads(line))) for line in lines
        )
        cut, kept = 0, before
        for line in lines:
            for end in (cut + len(line) // 2, cut + len(line) - 1,
                        cut + len(line)):
                whole = end == cut + len(line)
                n = kept + (whole and not {"qlog", "def"} & set(
                    json.loads(line)
                ))
                torn = Path(tmp) / f"torn{end}"
                shutil.copytree(directory, torn)
                (torn / final.name).write_text(text[:end], encoding="utf-8")
                _assert_reads_as(torn, expected[:n])
                more = expected[:n]
                with mock.patch("repro.qlog.time", _Clock()) as clock:
                    clock.now = 1_800_000_000.0
                    _run_session(torn, [("ok", 0, ("embedded", None), 5,
                                         0.0)], clock, more)
                _assert_reads_as(torn, more)
                shutil.rmtree(torn)
            cut += len(line)
            kept = n


class TestFormat:
    def test_static_facts_written_once_per_scope(self, tmp_path):
        log = QueryLog(tmp_path / "qlog")
        db = _db(tmp_path, query_log=log)
        for _ in range(3):
            db.query(_select())
        db.query(_select(value=7))
        db.close()
        segment = tmp_path / "qlog" / "qlog-00000001.jsonl"
        lines = [json.loads(line) for line in
                 segment.read_text(encoding="utf-8").splitlines()]
        assert lines[0] == {"qlog": 2, "counters": list(_COUNTER_FIELDS)}
        defs = [line["def"] for line in lines if "def" in line]
        assert [i for i, line in enumerate(lines) if "def" in line] == [1, 5]
        assert [line["q"] for line in lines if "seq" in line] == [
            defs[0], defs[0], defs[0], defs[1],
        ]
        # Defaults are left out.
        assert not {"outcome", "origin", "queue_wait_ms"} & set(lines[2])

    def test_handles_sharing_a_directory_interleave(self, tmp_path):
        # Two open logs on one directory share one writer: their records
        # interleave in one segment, each finding its definition whichever
        # handle logged it first.
        a, b = QueryLog(tmp_path / "qlog"), QueryLog(tmp_path / "qlog")
        queries = [_select(value=v) for v in (1, 2, 3)]
        a.observe_rejected(queries[0], "full")
        a.flush()
        b.observe_rejected(queries[1], "full")
        b.flush()
        a.observe_rejected(queries[0], "full")
        a.observe_rejected(queries[2], "full")
        a.flush()
        b.observe_rejected(queries[0], "full")
        a.close()
        b.close()
        records = read_query_log(tmp_path / "qlog")
        assert [r["query"]["predicates"][0]["value"] for r in records] == [
            1, 2, 1, 3, 1,
        ]

    def test_handles_sharing_a_directory_share_one_sequence(self, tmp_path):
        a, b = QueryLog(tmp_path / "qlog"), QueryLog(tmp_path / "qlog")
        for log in (a, b, a):
            log.observe_rejected(_select(), "full")
            log.flush()
        a.close()
        b.close()
        records = read_query_log(tmp_path / "qlog")
        assert [r["seq"] for r in records] == [0, 1, 2]

    @mock.patch("repro.qlog.SEGMENT_BYTES", 600)
    def test_handles_sharing_a_directory_never_append_behind_rotation(
        self, tmp_path
    ):
        # Read oldest segment first, the records' seq counts up without a
        # gap only if no line went to a segment after a newer one existed.
        a, b = QueryLog(tmp_path / "qlog"), QueryLog(tmp_path / "qlog")
        for i in range(24):
            log = (a, b)[i % 3 == 0]
            log.observe_rejected(_select(value=i), "full")
            if i % 2:
                log.flush()
        a.close()
        b.close()
        segments = sorted((tmp_path / "qlog").glob("qlog-*.jsonl"))
        assert len(segments) > 2, "rotation never happened"
        records = read_query_log(tmp_path / "qlog")
        assert [r["seq"] for r in records] == list(range(24))
        reopened = QueryLog(tmp_path / "qlog")
        reopened.observe_rejected(_select(), "full")
        reopened.close()
        assert read_query_log(tmp_path / "qlog")[-1]["seq"] == 24

    def test_unknown_definition_raises_naming_file_and_line(self, tmp_path):
        log = QueryLog(tmp_path / "qlog")
        db = _db(tmp_path, query_log=log)
        db.query(_select())
        db.query(_select())
        db.close()
        segment = tmp_path / "qlog" / "qlog-00000001.jsonl"
        lines = segment.read_text(encoding="utf-8").splitlines()
        record = json.loads(lines[3])
        record["q"] = "unknown"
        lines[3] = json.dumps(record)
        segment.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(CatalogError) as excinfo:
            read_query_log(segment)
        assert str(segment) in str(excinfo.value)
        assert "line 4" in str(excinfo.value)
        with pytest.raises(CatalogError):
            QueryLog(tmp_path / "qlog")


class TestOneWriterPerDirectory:
    """Every handle on a directory shares its one writer: one thread, one
    backlog, drained by any handle's flush and by interpreter exit."""

    def test_flush_drains_every_handles_records(self, tmp_path):
        a = _db(tmp_path)
        b = Database(tmp_path / "db", metrics=MetricsRegistry())
        b.query(_select())
        a.qlog.flush()
        assert len(read_query_log(a.qlog.directory)) == 1
        b.query(_select(value=7))
        assert len(own_records(a, "test")) == 2
        a.close()
        b.close()

    def test_close_leaves_its_records_on_disk(self, tmp_path):
        a = _db(tmp_path)
        b = Database(tmp_path / "db", metrics=MetricsRegistry())
        a.query(_select())
        a.close()
        assert len(read_query_log(tmp_path / "db" / "_qlog")) == 1
        b.close()

    def test_handles_run_one_writer_thread(self, tmp_path):
        def writers() -> set:
            return {t for t in threading.enumerate()
                    if t.name == "qlog-writer"}

        before = writers()
        logs = [QueryLog(tmp_path / "qlog") for _ in range(3)]
        ours = writers() - before
        assert len(ours) == 1
        for log in logs:
            log.observe_rejected(_select(), "full")
            log.close()
        assert not ours & writers()
        assert len(read_query_log(tmp_path / "qlog")) == 3

    def test_concurrent_handles_lose_no_record(self, tmp_path):
        # Four threads (more than cores) on two handles, switching often:
        # ``seen`` counts the directory's records, and a lost or repeated
        # record would show as a gap in ``seq``.
        logs = [QueryLog(tmp_path / "qlog") for _ in range(2)]
        n = 150

        def work(log):
            for i in range(n):
                log.observe_rejected(_select(value=i), "full")

        threads = [threading.Thread(target=work, args=(log,))
                   for log in logs * 2]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        logs[0].flush()
        assert logs[1].metrics()["seen"] == 4 * n
        assert logs[1].metrics()["pending"] == 0
        for log in logs:
            log.close()
        records = read_query_log(tmp_path / "qlog")
        assert [r["seq"] for r in records] == list(range(4 * n))

    def test_unclosed_database_leaves_its_record_at_exit(self, tmp_path):
        _db(tmp_path).close()
        script = (
            "import sys\n"
            "from repro import Database, Predicate, SelectQuery\n"
            "db = Database(sys.argv[1])\n"
            "db.query(SelectQuery('t', ('k',), "
            "predicates=(Predicate('k', '<', 50),)))\n"
        )
        src = str(Path(repro.__file__).parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))
        )}
        subprocess.run([sys.executable, "-c", script, str(tmp_path / "db")],
                       env=env, check=True, timeout=120)
        records = read_query_log(tmp_path / "db" / "_qlog")
        assert [r["outcome"] for r in records] == ["ok"]


# --------------------------------------------------------------------------
# Version-1 logs
# --------------------------------------------------------------------------

#: A log the version-1 writer wrote over :func:`_v1_database`: five ok
#: selects (one with an encoding override, one aggregated, one over the
#: partitioned ``p``), an ok join, a served ok select, an error, two
#: rejections (with and without a query), a degraded select (partition
#: ``part0001`` of ``p`` corrupt, ``on_error="degrade"``), then two more ok
#: selects.
V1_LOG = Path(__file__).parent / "data" / "qlog_v1"


def _v1_database(root) -> None:
    """The database :data:`V1_LOG` was recorded over."""
    db = Database(root, query_log=False, metrics=MetricsRegistry())
    make_random_projection(db, n_rows=3000, seed=11)
    rng = np.random.default_rng(7)
    a = np.sort(rng.integers(0, 1000, size=4000)).astype(np.int32)
    b = rng.integers(0, 1000, size=4000).astype(np.int32)
    db.catalog.create_projection(
        "p", {"a": a, "b": b},
        schemas={"a": ColumnSchema("a", INT32), "b": ColumnSchema("b", INT32)},
        sort_keys=["a"],
        encodings={"a": ["uncompressed"], "b": ["uncompressed"]},
        presorted=True, partitions=2,
    )
    keys = np.arange(100, dtype=np.int64)
    db.catalog.create_projection(
        "dim", {"dk": keys, "w": (keys * 7 % 13).astype(np.int32)},
        schemas={"dk": ColumnSchema("dk", INT64), "w": ColumnSchema("w", INT32)},
        sort_keys=["dk"],
        encodings={"dk": ["uncompressed"], "w": ["uncompressed"]},
        presorted=True,
    )
    db.close()


def _v1_lines() -> list[dict]:
    """The fixture as the version-1 reader read it: one dict per line."""
    segment = V1_LOG / "qlog-00000001.jsonl"
    text = segment.read_text(encoding="utf-8")
    return [json.loads(line) for line in text.splitlines()]


class TestV1Logs:
    def test_reads_as_before(self):
        records = read_query_log(V1_LOG)
        assert records == _v1_lines()
        assert [list(r) for r in records] == [list(r) for r in _v1_lines()]
        assert [r["outcome"] for r in records] == [
            "ok", "ok", "ok", "ok", "ok", "ok", "error", "rejected",
            "rejected", "degraded", "ok", "ok",
        ]
        assert records[5]["origin"] == "served"
        assert "query" not in records[8]

    def test_replay_check_passes(self, tmp_path, capsys):
        _v1_database(tmp_path / "db")
        code = main(["replay", str(tmp_path / "db"), str(V1_LOG), "--check"])
        out = capsys.readouterr().out.splitlines()
        assert code == 0, out
        assert out[2] == (
            "replayed       8 (matched=8 mismatched=0 errors=0 skipped=4)"
        )

    def test_v1_segment_continues_in_v2(self, tmp_path):
        _v1_database(tmp_path / "db")
        shutil.copytree(V1_LOG, tmp_path / "db" / "_qlog")
        db = Database(tmp_path / "db", metrics=MetricsRegistry())
        db.query(_select(), strategy="lm-parallel")
        db.query(_select(), strategy="em-parallel")
        db.close()
        segment = tmp_path / "db" / "_qlog" / "qlog-00000001.jsonl"
        text = segment.read_text(encoding="utf-8")
        v1_text = (V1_LOG / segment.name).read_text(encoding="utf-8")
        assert text.startswith(v1_text)
        assert json.loads(text[len(v1_text):].splitlines()[0])["qlog"] == 2
        records = read_query_log(tmp_path / "db" / "_qlog")
        assert records[:12] == _v1_lines()
        assert [r["seq"] for r in records] == list(range(14))
        assert [r["strategy"] for r in records[12:]] == [
            "lm-parallel", "em-parallel",
        ]
