"""The crash axis: every write boundary crashed, recovered, and resumed.

One module-scoped sweep runs the full differential — the seeded mixed
insert/update/delete/merge/apply workload crashed at every one of its
write/fsync/rename boundaries, each recovery checked for prefix
consistency against the clean reference and resumed to the identical
final state (see :func:`tests.differential.run_crash_differential`). The
boundary schedule seed comes from ``REPRO_CRASH_SEED`` so CI's ``seeds``
job varies it run over run.
"""

from __future__ import annotations

import os

import pytest

from .differential import run_crash_differential

DEFAULT_CRASH_SEED = 20260807
CRASH_SEED = int(os.environ.get("REPRO_CRASH_SEED", str(DEFAULT_CRASH_SEED)))


@pytest.fixture(scope="module")
def crash_report(tmp_path_factory):
    root = tmp_path_factory.mktemp("crash_diff")
    return run_crash_differential(
        root / "template", root / "work", seed=CRASH_SEED
    )


class TestCrashDifferential:
    def test_every_recovery_is_prefix_consistent(self, crash_report):
        assert crash_report.mismatches == [], (
            f"seed={CRASH_SEED}: {len(crash_report.mismatches)} crash "
            f"recoveries diverged, first: {crash_report.mismatches[:3]}"
        )

    def test_sweep_covers_enough_boundaries(self, crash_report):
        # The acceptance bar: >= 200 distinct crash points, every one of
        # them actually fired (no trial ran to completion un-crashed).
        assert crash_report.boundaries >= 200, (
            f"workload crosses only {crash_report.boundaries} boundaries"
        )
        assert crash_report.trials == crash_report.boundaries
        assert crash_report.crashes == crash_report.trials

    @pytest.mark.skipif(
        CRASH_SEED != DEFAULT_CRASH_SEED,
        reason="the pinned boundary count belongs to the default seed",
    )
    def test_write_protocol_did_not_move(self, crash_report):
        # One boundary per WAL append/fsync/truncate, staged file and dir
        # fsync, rename and manifest replace of the 19-op workload. A
        # change to how the writable store is held in memory must not add,
        # drop or reorder any of them.
        assert crash_report.boundaries == 219

    def test_every_op_kind_was_interrupted(self, crash_report):
        assert {
            "insert", "update", "delete", "merge",
            "apply_build", "apply_drop",
        } <= crash_report.ops_crashed, crash_report.ops_crashed

    def test_torn_multi_row_inserts_recovered_as_prefixes(self, crash_report):
        # An insert batch is one WAL line, so the only prefix a torn one
        # may leave is the empty one. At least one crash must tear a
        # multi-row insert mid-append and recover none of its rows —
        # otherwise the torn-tail path silently went untested.
        assert crash_report.torn_inserts_dropped > 0
