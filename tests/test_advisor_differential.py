"""The advisor differential axis: ``advise --apply`` never changes answers.

One database captures a seeded workload (every generated query under all
four materialization strategies) into its query log; the stored files are
cloned; and the clone replays every ok record hash-identically *before*
the advisor runs, then again *after* ``apply_plan`` has built and dropped
projections through the real catalog — the post-apply replay additionally
runs under a different ``parallel_scans`` setting. Physical design changes
recommended by the advisor must be invisible in every result hash. This is
the acceptance gate behind ``repro advise --apply``. The cell runs over an
unpartitioned lineitem and again over 4 range partitions, and each must
build something.

The seed is fixed (overridable via ``REPRO_DIFF_SEED``); CI's
``seeds`` job runs this file under two different seeds.
"""

from __future__ import annotations

import os
import random
from collections import Counter

import pytest

from repro import (
    Database,
    MetricsRegistry,
    Predicate,
    SelectQuery,
    advise,
    apply_plan,
    load_tpch,
    read_query_log,
    recalibrate_from_log,
)

from .differential import run_advisor_differential
from .test_differential_strategies import KERNEL_LINENUM_ENCODINGS

SEED = int(os.environ.get("REPRO_DIFF_SEED", "20260806"))

STRATEGY_NAMES = {"em-pipelined", "em-parallel", "lm-pipelined", "lm-parallel"}


def _advisor_outcome(root, partitions: int):
    """Capture with one database, advise+replay on a clone of its files."""
    capture_db = Database(root / "db", metrics=MetricsRegistry())
    load_tpch(
        capture_db.catalog,
        scale=0.002,
        seed=7,
        linenum_encodings=KERNEL_LINENUM_ENCODINGS,
        partitions=partitions,
    )
    try:
        return run_advisor_differential(
            capture_db, root / "clone", n_queries=60, seed=SEED,
            parallel_scans=2,
        )
    finally:
        capture_db.close()


@pytest.fixture(scope="module")
def advisor_outcome(tmp_path_factory):
    return _advisor_outcome(tmp_path_factory.mktemp("diff_advisor"), 1)


@pytest.fixture(scope="module")
def partitioned_outcome(tmp_path_factory):
    """The same cell over a lineitem range-partitioned 4 ways: a
    partitioned projection is a build source like any other."""
    return _advisor_outcome(tmp_path_factory.mktemp("diff_advisor_p4"), 4)


class TestAdvisorDifferential:
    def test_pre_apply_replay_is_bit_identical(self, advisor_outcome):
        _records, _plan, report_pre, _report_post = advisor_outcome
        assert report_pre.ok, report_pre.render()
        assert report_pre.mismatched == 0
        assert report_pre.errors == 0

    def test_post_apply_replay_is_bit_identical(self, advisor_outcome):
        _records, _plan, _report_pre, report_post = advisor_outcome
        assert report_post.ok, report_post.render()
        assert report_post.mismatched == 0
        assert report_post.errors == 0
        assert report_post.matched == report_post.replayed

    def test_workload_is_large_and_mixed(self, advisor_outcome):
        _records, _plan, report_pre, report_post = advisor_outcome
        # Acceptance floor: >= 200 queries replayed hash-clean on both sides.
        assert report_pre.replayed >= 200
        assert report_post.replayed == report_pre.replayed
        assert set(report_post.strategies) == STRATEGY_NAMES

    def test_advice_actually_changed_the_design(self, advisor_outcome):
        _records, plan, _report_pre, _report_post = advisor_outcome
        builds = [a for a in plan.actions if a.kind == "build"]
        # Without at least one build the axis degrades to the replay axis.
        assert builds, plan.render()
        assert plan.predicted_improvement >= 1.0

    def test_every_ok_record_carries_its_projection(self, advisor_outcome):
        records, _plan, _report_pre, _report_post = advisor_outcome
        ok = [r for r in records if r["outcome"] == "ok"]
        assert ok
        assert all(r.get("projection") for r in ok)


class TestPartitionedAdvisorDifferential:
    def test_replay_is_bit_identical_around_the_apply(
        self, partitioned_outcome
    ):
        _records, _plan, report_pre, report_post = partitioned_outcome
        for report in (report_pre, report_post):
            assert report.ok, report.render()
            assert report.mismatched == 0 and report.errors == 0
        assert report_post.replayed == report_pre.replayed >= 200

    def test_advice_builds_over_a_partitioned_table(self, partitioned_outcome):
        _records, plan, _report_pre, _report_post = partitioned_outcome
        assert [a for a in plan.actions if a.kind == "build"], plan.render()
        assert plan.predicted_improvement >= 1.0


#: A Zipf(1/rank) workload led by selective ranges on ``quantity``, a column
#: outside lineitem's ``(returnflag, shipdate, linenum)`` sort prefix, so the
#: shipped design scans most of the table for its most frequent queries.
ZIPF_TEMPLATES = (
    SelectQuery("lineitem", ("quantity", "linenum"),
                predicates=(Predicate("quantity", "<=", 3),)),
    SelectQuery("lineitem", ("quantity", "shipdate"),
                predicates=(Predicate("quantity", ">=", 48),)),
    SelectQuery("lineitem", ("shipdate", "quantity"),
                predicates=(Predicate("quantity", "<", 6),
                            Predicate("shipdate", "<", 8500))),
    SelectQuery("lineitem", ("returnflag", "linenum"),
                predicates=(Predicate("linenum", "<", 3),)),
)


def test_applied_advice_pays_off(tmp_path):
    """Advice recalibrated and chosen from a captured Zipf workload cuts its
    frequency-weighted cold simulated time by at least 1.5x, and changes no
    template's answer."""
    rng = random.Random(20260807)
    weights = [1.0 / (rank + 1) for rank in range(len(ZIPF_TEMPLATES))]
    schedule = rng.choices(range(len(ZIPF_TEMPLATES)), weights=weights, k=64)
    frequencies = Counter(schedule)
    with Database(tmp_path / "db", metrics=MetricsRegistry()) as db:
        load_tpch(db.catalog, scale=0.01, seed=42)
        for index in schedule:
            db.query(ZIPF_TEMPLATES[index], strategy="auto")
        db.qlog.flush()
        records = read_query_log(db.qlog.directory)

        def measure():
            return {
                index: db.query(
                    ZIPF_TEMPLATES[index], strategy="auto", cold=True
                )
                for index in frequencies
            }

        before = measure()
        calibration = recalibrate_from_log(db, records)
        plan = advise(db, records, constants=calibration.constants)
        assert apply_plan(db, plan), plan.render()
        after = measure()
    for index in frequencies:
        assert after[index].n_rows == before[index].n_rows, index

    def weighted(results):
        return sum(
            frequencies[index] * result.simulated_ms
            for index, result in results.items()
        )

    improvement = weighted(before) / weighted(after)
    assert improvement >= 1.5, f"{improvement:.2f}x\n{plan.render()}"
