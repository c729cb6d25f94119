"""Differential suite: all strategies must agree on random queries.

The seed is fixed (overridable via ``REPRO_DIFF_SEED``) so CI runs are
reproducible; a failure report includes the generating seed and the first
diverging row.
"""

from __future__ import annotations

import os

import pytest

from repro import FaultRule, Strategy

from .differential import (
    QueryGenerator,
    add_join_dimension,
    check_span_invariants,
    run_compressed_differential,
    run_differential,
    run_fault_differential,
    run_join_differential,
    run_partition_differential,
    run_write_differential,
)

#: Stored linenum encodings for the compressed axis: the defaults plus
#: dictionary and FOR, so every compressed kernel actually fires during the
#: sweep (the stock fixture stores neither).
KERNEL_LINENUM_ENCODINGS = (
    "uncompressed",
    "rle",
    "bitvector",
    "dictionary",
    "for",
)

SEED = int(os.environ.get("REPRO_DIFF_SEED", "20260806"))

#: Fault-schedule seed (CI's ``seeds`` job varies it run over run).
FAULT_SEED = int(os.environ.get("REPRO_FAULT_SEED", "7"))

#: Fails every file's first block once. The fixture data has about a dozen
#: blocks, so a seeded 30% rule alone selects none of them at some seeds
#: (1009 is one) and the fault axis would silently re-run clean reads.
FIRST_BLOCK_FAULT = FaultRule(kind="transient", block_index=0, times=1)


@pytest.fixture(scope="module")
def report(tpch_db):
    """One shared sweep: 60 queries x 4 strategies (>= 200 runs)."""
    return run_differential(tpch_db, n_queries=60, seed=SEED)


class TestDifferentialStrategies:
    def test_all_strategies_agree(self, report):
        assert report.mismatches == [], (
            f"seed={SEED}: {len(report.mismatches)} strategy divergences, "
            f"first: {report.mismatches[:1]}"
        )

    def test_sweep_is_substantial(self, report):
        assert report.queries == 60
        assert report.runs >= 200, (
            f"only {report.runs} runs ({report.skipped} skipped); the sweep "
            "must exercise at least 200 query executions"
        )

    def test_encoding_overrides_exercised(self, report):
        # The generator must actually vary physical encodings, otherwise the
        # sweep silently degrades to default-encoding-only coverage.
        assert len(report.encodings_used) >= 2, report.encodings_used

    def test_skips_are_the_known_limitation_only(self, tpch_db):
        # Every skip must come from LM-pipelined (bit-vector position
        # filtering); any other strategy skipping means lost coverage.
        gen = QueryGenerator(tpch_db, seed=SEED + 1)
        from repro.errors import UnsupportedOperationError

        for _ in range(20):
            query = gen.next_query()
            for strategy in Strategy:
                try:
                    tpch_db.query(query, strategy=strategy, trace=True)
                except UnsupportedOperationError:
                    assert strategy is Strategy.LM_PIPELINED

    def test_span_invariants_under_parallel_scans(self, tmp_path):
        # The invariants hold when scheduler-parallelised leaves are adopted
        # into the tree too.
        from repro import Database, load_tpch

        with Database(tmp_path / "db", parallel_scans=2) as db:
            load_tpch(db.catalog, scale=0.002, seed=7)
            gen = QueryGenerator(db, seed=SEED)
            for _ in range(10):
                query = gen.next_query()
                for strategy in (Strategy.LM_PARALLEL, Strategy.EM_PARALLEL):
                    result = db.query(query, strategy=strategy, trace=True)
                    check_span_invariants(result, db.constants)


@pytest.fixture(scope="module")
def join_report(tmp_path_factory):
    """One shared join sweep: 40 queries x 3 inner x 2 outer strategies."""
    from repro import Database, load_tpch

    with Database(tmp_path_factory.mktemp("diff_join")) as db:
        load_tpch(db.catalog, scale=0.002, seed=7)
        add_join_dimension(db)
        return run_join_differential(db, n_queries=40, seed=SEED)


class TestJoinDifferential:
    """Every inner x outer table strategy gives one answer, and each run's
    spans are the join's plan nodes."""

    def test_join_strategies_agree(self, join_report):
        assert join_report.mismatches == [], (
            f"seed={SEED}: {len(join_report.mismatches)} join divergences, "
            f"first: {join_report.mismatches[:1]}"
        )

    def test_join_sweep_is_substantial(self, join_report):
        assert join_report.queries == 40
        assert join_report.runs >= 200

    def test_join_encoding_overrides_exercised(self, join_report):
        assert len(join_report.encodings_used) >= 2, join_report.encodings_used


@pytest.fixture(scope="module")
def partitioned_pair(tmp_path_factory):
    """The same logical lineitem data, unpartitioned and 4-way partitioned."""
    from repro import Database, load_tpch

    root = tmp_path_factory.mktemp("diff_partitioned")
    plain = Database(root / "plain")
    load_tpch(plain.catalog, scale=0.002, seed=7)
    partitioned = Database(root / "partitioned")
    load_tpch(partitioned.catalog, scale=0.002, seed=7, partitions=4)
    return plain, partitioned


@pytest.fixture(scope="module")
def partition_report(partitioned_pair):
    """One shared partitioned sweep: 30 queries x 4 strategies x 2 layouts."""
    plain, partitioned = partitioned_pair
    return run_partition_differential(
        plain, partitioned, n_queries=30, seed=SEED
    )


class TestPartitionedDifferential:
    """Range partitioning + zone-map pruning must be invisible to results."""

    def test_partitioned_matches_unpartitioned(self, partition_report):
        assert partition_report.mismatches == [], (
            f"seed={SEED}: {len(partition_report.mismatches)} partitioned/"
            f"unpartitioned divergences, "
            f"first: {partition_report.mismatches[:1]}"
        )

    def test_partitioned_sweep_is_substantial(self, partition_report):
        # 30 queries x 4 strategies x 2 layouts = 240 potential runs; the
        # known LM-pipelined/bit-vector skips must leave >= 200 executions.
        assert partition_report.queries == 30
        assert partition_report.runs >= 200, (
            f"only {partition_report.runs} runs "
            f"({partition_report.skipped} skipped)"
        )

    def test_partitioned_encoding_overrides_exercised(self, partition_report):
        assert len(partition_report.encodings_used) >= 2, (
            partition_report.encodings_used
        )

    def test_partitioned_axis_under_parallel_scans(self, tmp_path):
        # Partition fan-out through the scan scheduler: results and span
        # invariants must match a fresh serial unpartitioned database.
        from repro import Database, load_tpch

        root = tmp_path
        plain = Database(root / "plain")
        load_tpch(plain.catalog, scale=0.002, seed=7)
        with Database(root / "partitioned", parallel_scans=2) as partitioned:
            load_tpch(partitioned.catalog, scale=0.002, seed=7, partitions=4)
            report = run_partition_differential(
                plain, partitioned, n_queries=8, seed=SEED + 2
            )
        assert report.mismatches == [], report.mismatches[:1]
        assert report.runs >= 48


@pytest.fixture(scope="module")
def compressed_pair(tmp_path_factory):
    """The same stored data with compressed execution on and off."""
    from repro import Database, load_tpch

    root = tmp_path_factory.mktemp("diff_compressed")
    compressed = Database(root / "db")
    load_tpch(
        compressed.catalog,
        scale=0.002,
        seed=7,
        linenum_encodings=KERNEL_LINENUM_ENCODINGS,
    )
    plain = Database(root / "db", compressed_execution=False)
    yield compressed, plain
    plain.close()
    compressed.close()


@pytest.fixture(scope="module")
def compressed_report(compressed_pair):
    """One shared compressed sweep: 30 queries x 4 strategies x on/off."""
    compressed, plain = compressed_pair
    return run_compressed_differential(
        compressed, plain, n_queries=30, seed=SEED
    )


class TestCompressedDifferential:
    """Encoded-domain kernels + run-list positions must be invisible."""

    def test_compressed_matches_plain(self, compressed_report):
        assert compressed_report.mismatches == [], (
            f"seed={SEED}: {len(compressed_report.mismatches)} compressed/"
            f"plain divergences, first: {compressed_report.mismatches[:1]}"
        )

    def test_compressed_sweep_is_substantial(self, compressed_report):
        # 30 queries x 4 strategies x 2 databases = 240 potential runs; the
        # known LM-pipelined/bit-vector skips must leave >= 200 executions.
        assert compressed_report.queries == 30
        assert compressed_report.runs >= 200, (
            f"only {compressed_report.runs} runs "
            f"({compressed_report.skipped} skipped)"
        )

    def test_kernels_actually_fired(self, compressed_report):
        # Without this the axis could silently degrade to a decoded-path
        # re-run (e.g. every block morphing at this seed).
        assert compressed_report.compressed_scans > 0

    def test_kernel_encodings_exercised(self, compressed_report):
        assert len(compressed_report.encodings_used) >= 2, (
            compressed_report.encodings_used
        )

    def test_compressed_axis_under_parallel_scans(self, tmp_path):
        # Kernel dispatch is a pure function of the block payload and the
        # predicate, so scheduler-parallelised compressed scans must match a
        # serial compressed-off database row for row.
        from repro import Database, load_tpch

        plain = Database(tmp_path / "plain", compressed_execution=False)
        load_tpch(
            plain.catalog,
            scale=0.002,
            seed=7,
            linenum_encodings=KERNEL_LINENUM_ENCODINGS,
        )
        with Database(tmp_path / "plain", parallel_scans=2) as compressed:
            report = run_compressed_differential(
                compressed, plain, n_queries=8, seed=SEED + 3
            )
        plain.close()
        assert report.mismatches == [], report.mismatches[:1]
        assert report.runs >= 48
        assert report.compressed_scans > 0

    def test_compressed_axis_under_faults(self, tmp_path):
        # The fault axis composes with compressed execution: a transient
        # fault schedule over a kernel-scanning database must still match
        # the clean compressed-off rows exactly.
        from repro import (
            Database,
            FaultInjector,
            FaultRule,
            RetryPolicy,
            load_tpch,
        )

        clean = Database(tmp_path / "db", compressed_execution=False)
        load_tpch(
            clean.catalog,
            scale=0.002,
            seed=7,
            linenum_encodings=KERNEL_LINENUM_ENCODINGS,
        )
        injector = FaultInjector(
            [
                FaultRule(kind="transient", probability=0.3, times=2),
                FIRST_BLOCK_FAULT,
            ],
            seed=FAULT_SEED,
        )
        with Database(
            tmp_path / "db",
            fault_injector=injector,
            retry=RetryPolicy(attempts=4, backoff_us=100.0),
        ) as faulted:
            report = run_fault_differential(
                clean, faulted, n_queries=10, seed=SEED + 4
            )
        clean.close()
        assert report.mismatches == [], report.mismatches[:1]
        assert report.retries > 0


@pytest.fixture(scope="module")
def fault_pair(tmp_path_factory):
    """The same stored data served clean and through a transient-fault
    schedule with retries enabled (and the scan scheduler on)."""
    from repro import Database, FaultInjector, FaultRule, RetryPolicy, load_tpch

    root = tmp_path_factory.mktemp("diff_faults")
    clean = Database(root / "db")
    load_tpch(clean.catalog, scale=0.002, seed=7)
    injector = FaultInjector(
        [
            # Fails fewer attempts (2) than the retry budget grants (4), so
            # every selected block eventually recovers.
            FaultRule(kind="transient", probability=0.3, times=2),
            FaultRule(kind="slow", probability=0.1, latency_us=200.0),
            FIRST_BLOCK_FAULT,
        ],
        seed=FAULT_SEED,
    )
    faulted = Database(
        root / "db",
        fault_injector=injector,
        retry=RetryPolicy(attempts=4, backoff_us=100.0),
        parallel_scans=2,
    )
    yield clean, faulted
    faulted.close()
    clean.close()


@pytest.fixture(scope="module")
def fault_report(fault_pair):
    """One shared fault sweep: 60 queries x 4 strategies, all cold."""
    clean, faulted = fault_pair
    return run_fault_differential(clean, faulted, n_queries=60, seed=SEED)


class TestFaultDifferential:
    """Seeded transient faults + retries must be invisible to results."""

    def test_faulted_matches_clean(self, fault_report):
        assert fault_report.mismatches == [], (
            f"diff_seed={SEED} fault_seed={FAULT_SEED}: "
            f"{len(fault_report.mismatches)} faulted/clean divergences, "
            f"first: {fault_report.mismatches[:1]}"
        )

    def test_fault_sweep_is_substantial(self, fault_report):
        assert fault_report.queries == 60
        assert fault_report.runs >= 200, (
            f"only {fault_report.runs} runs ({fault_report.skipped} skipped);"
            " the fault sweep must exercise at least 200 query executions"
        )

    def test_faults_actually_fired(self, fault_report, fault_pair):
        # Without this the axis could silently degrade to a clean re-run
        # (e.g. an injector that never selects a block at this seed).
        _clean, faulted = fault_pair
        assert fault_report.retries > 0
        # The pool saw every retry the sweep counted (tallies survive the
        # per-run injector resets).
        assert faulted.pool.total_retries >= fault_report.retries


def _write_report(root, partitions: int, n_queries: int, seed: int, **config):
    """One write sweep over two copies of the same data, *partitions*-way
    partitioned: merged-then-read against read-over-pending."""
    from repro import Database, MetricsRegistry, load_tpch

    with Database(root / "merged", metrics=MetricsRegistry()) as merged, \
            Database(root / "pending", metrics=MetricsRegistry(),
                     **config) as pending:
        for db in (merged, pending):
            load_tpch(db.catalog, scale=0.002, seed=7, partitions=partitions)
        return run_write_differential(
            merged, pending, n_queries=n_queries, seed=seed
        )


@pytest.fixture(scope="module")
def write_report(tmp_path_factory):
    """One shared write sweep: 30 queries x 4 strategies x 2 databases."""
    return _write_report(tmp_path_factory.mktemp("diff_write"), 1, 30, SEED)


class _WriteAxis:
    """Updates/deletes must read identically merged or pending, and the
    pending side must run the plan it is explained from."""

    def test_pending_matches_merged(self, write_report):
        assert write_report.mismatches == [], (
            f"seed={SEED}: {len(write_report.mismatches)} merged/pending "
            f"divergences, first: {write_report.mismatches[:1]}"
        )

    def test_write_sweep_is_substantial(self, write_report):
        # 30 queries x 4 strategies x 2 databases = 240 potential runs;
        # the known LM-pipelined/bit-vector skips must leave >= 200.
        assert write_report.queries == 30
        assert write_report.runs >= 200, (
            f"only {write_report.runs} runs "
            f"({write_report.skipped} skipped)"
        )

    def test_write_encoding_overrides_exercised(self, write_report):
        assert len(write_report.encodings_used) >= 2, (
            write_report.encodings_used
        )


class TestWriteDifferential(_WriteAxis):
    """The write axis over an unpartitioned projection."""

    def test_write_axis_under_parallel_scans(self, tmp_path):
        # The merge-on-read stitch path must also hold with partitioned
        # storage fanning out through the scan scheduler.
        report = _write_report(tmp_path, 4, 8, SEED + 2, parallel_scans=2)
        assert report.mismatches == [], report.mismatches[:1]
        assert report.runs >= 48


class TestPartitionedWriteDifferential(_WriteAxis):
    """The write axis over 4 range partitions: PRUNE and PARTITION, then
    GHOST, DELTA and one COMBINE of every partial."""

    @pytest.fixture(scope="class")
    def write_report(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("diff_write_partitioned")
        return _write_report(root, 4, 30, SEED)
