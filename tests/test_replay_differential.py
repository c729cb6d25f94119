"""The replay differential axis: a captured log must replay bit-identically.

One database captures a mixed workload into its query log — every generated
query under all four materialization strategies embedded, then the same
query list through a real TCP server from 8 concurrent sessions — and a
second database over the *same* stored files (recorder off) re-executes
every ok record pinned to its recorded strategy, comparing result hashes
bit for bit. This is the acceptance gate behind ``repro replay --check``.

The seed is fixed (overridable via ``REPRO_DIFF_SEED``); CI's
``seeds`` job runs this file under two different seeds.
"""

from __future__ import annotations

import os

import pytest

from repro import Database, MetricsRegistry, load_tpch

from .differential import run_replay_differential
from .test_differential_strategies import KERNEL_LINENUM_ENCODINGS

SEED = int(os.environ.get("REPRO_DIFF_SEED", "20260806"))

STRATEGY_NAMES = {"em-pipelined", "em-parallel", "lm-pipelined", "lm-parallel"}


@pytest.fixture(scope="module")
def replay_outcome(tmp_path_factory):
    """Capture with one database, replay with another over the same root."""
    root = tmp_path_factory.mktemp("diff_replay")
    capture_db = Database(root / "db", metrics=MetricsRegistry())
    load_tpch(
        capture_db.catalog,
        scale=0.002,
        seed=7,
        linenum_encodings=KERNEL_LINENUM_ENCODINGS,
    )
    replay_db = Database(root / "db", metrics=MetricsRegistry(),
                         query_log=False)
    try:
        records, report = run_replay_differential(
            capture_db, replay_db, n_queries=40, seed=SEED,
            sessions=8, workers=4,
        )
        yield records, report
    finally:
        replay_db.close()
        capture_db.close()


class TestReplayDifferential:
    def test_replay_is_bit_identical(self, replay_outcome):
        _records, report = replay_outcome
        assert report.ok, report.render()
        assert report.mismatched == 0
        assert report.errors == 0
        assert report.matched == report.replayed

    def test_workload_is_large_and_mixed(self, replay_outcome):
        records, report = replay_outcome
        # Acceptance floor: >= 200 mixed queries replayed hash-clean.
        assert report.replayed >= 200
        assert set(report.origins) == {"embedded", "served"}
        assert set(report.strategies) == STRATEGY_NAMES

    def test_log_covers_strategies_and_encodings(self, replay_outcome):
        records, _report = replay_outcome
        ok = [r for r in records if r["outcome"] == "ok"]
        assert {r["strategy"] for r in ok} == STRATEGY_NAMES
        assert {r["origin"] for r in ok} == {"embedded", "served"}
        encodings = {
            enc for r in ok for enc in (r.get("encodings") or {}).values()
        }
        assert "rle" in encodings
        assert len(encodings) >= 2
        # Served records carry their session and queue-wait observations.
        served = [r for r in ok if r["origin"] == "served"]
        assert served and all(r.get("session") for r in served)
        assert all("queue_wait_ms" in r for r in served)

    def test_every_ok_record_is_replayable(self, replay_outcome):
        records, report = replay_outcome
        ok_with_hash = [
            r for r in records
            if r["outcome"] == "ok" and "result_hash" in r
        ]
        # Both databases see the same stored files, so nothing eligible is
        # skipped: eligible == replayed.
        assert report.eligible == len(ok_with_hash)
        assert report.replayed == report.eligible
