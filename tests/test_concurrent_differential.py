"""The concurrency differential axis: serving must be invisible.

Every generated query runs serially (traced EM-parallel reference), then
the full (query x strategy) matrix is replayed through a real TCP server
over the *same* Database by 8 concurrent sessions — admission queueing,
priority classes, worker threads, shared buffer/decoded caches, and the
JSON wire format in the execution path. Every served row set must equal
the serial reference bit for bit, with compressed execution both on and
off and ``parallel_scans`` enabled.

The seed is fixed (overridable via ``REPRO_DIFF_SEED``); CI's
``seeds`` job runs this file under two different seeds.
"""

from __future__ import annotations

import os

import pytest

from repro import Database, load_tpch

from .differential import run_concurrent_differential
from .test_differential_strategies import KERNEL_LINENUM_ENCODINGS

SEED = int(os.environ.get("REPRO_DIFF_SEED", "20260806"))


@pytest.fixture(scope="module")
def served_pair(tmp_path_factory):
    """The same stored data, compressed execution on and off, 2-way scans."""
    root = tmp_path_factory.mktemp("diff_serving")
    compressed = Database(root / "db", parallel_scans=2)
    load_tpch(
        compressed.catalog,
        scale=0.002,
        seed=7,
        linenum_encodings=KERNEL_LINENUM_ENCODINGS,
    )
    plain = Database(root / "db", compressed_execution=False, parallel_scans=2)
    yield compressed, plain
    plain.close()
    compressed.close()


@pytest.fixture(scope="module")
def concurrent_reports(served_pair):
    """Two shared sweeps (kernels on / off), 8 sessions each."""
    compressed, plain = served_pair
    on = run_concurrent_differential(
        compressed, n_queries=30, seed=SEED, sessions=8, workers=4
    )
    off = run_concurrent_differential(
        plain, n_queries=30, seed=SEED + 1, sessions=8, workers=4
    )
    return on, off


class TestConcurrentDifferential:
    def test_served_results_match_serial(self, concurrent_reports):
        for report in concurrent_reports:
            assert report.mismatches == [], (
                f"served execution diverged from serial: "
                f"{report.mismatches[:3]}"
            )

    def test_sweep_is_substantial(self, concurrent_reports):
        on, off = concurrent_reports
        # 2 sweeps x 30 queries x 4 strategies, minus the known
        # LM-pipelined/bit-vector skips, must still clear 200 served runs.
        assert on.runs + off.runs >= 200
        assert on.skipped + off.skipped < (on.runs + off.runs) / 4

    def test_kernels_exercised_on_the_compressed_side(
        self, concurrent_reports
    ):
        on, off = concurrent_reports
        assert on.compressed_scans > 0
        assert off.compressed_scans == 0
        assert len(on.encodings_used) >= 2

    def test_queries_cover_both_sweeps(self, concurrent_reports):
        on, off = concurrent_reports
        assert on.queries == off.queries == 30
