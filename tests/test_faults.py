"""Fault injection, retrying reads, and quarantine/degraded execution."""

import numpy as np
import pytest

from repro import (
    NO_RETRY,
    Database,
    FaultInjector,
    FaultRule,
    PartitionQuarantine,
    Predicate,
    RetryPolicy,
    SelectQuery,
)
from repro.dtypes import INT32, ColumnSchema
from repro.errors import (
    CorruptBlockError,
    QuarantinedPartitionError,
    TransientIOError,
)
from repro.metrics import MetricsRegistry


def make_projection(db, n=60_000, partitions=None, seed=3):
    """A two-column projection (sorted `a`, random `b`) for fault tests."""
    rng = np.random.default_rng(seed)
    a = np.sort(rng.integers(0, 1000, size=n)).astype(np.int32)
    b = rng.integers(0, 1000, size=n).astype(np.int32)
    kwargs = {} if partitions is None else {"partitions": partitions}
    db.catalog.create_projection(
        "t",
        {"a": a, "b": b},
        schemas={"a": ColumnSchema("a", INT32), "b": ColumnSchema("b", INT32)},
        sort_keys=["a"],
        encodings={"a": ["uncompressed"], "b": ["uncompressed"]},
        presorted=True,
        **kwargs,
    )
    return a, b


def scan_query():
    """A full-scan selection that cannot be resolved from an index."""
    return SelectQuery(
        projection="t",
        select=("a", "b"),
        predicates=(Predicate("a", "<", 800), Predicate("b", "!=", -1)),
    )


class TestFaultRule:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultRule(kind="gremlin")

    def test_matches_basename_and_full_path(self):
        rule = FaultRule(kind="transient", path_glob="b.uncompressed.col")
        assert rule.matches("/any/where/b.uncompressed.col", 0)
        assert not rule.matches("/any/where/a.uncompressed.col", 0)
        full = FaultRule(kind="transient", path_glob="*/part0001/*")
        assert full.matches("/db/t/part0001/a.uncompressed.col", 2)
        assert not full.matches("/db/t/part0002/a.uncompressed.col", 2)

    def test_block_index_restriction(self):
        rule = FaultRule(kind="transient", block_index=3)
        assert rule.matches("x.col", 3)
        assert not rule.matches("x.col", 4)


class TestInjectorDeterminism:
    KEYS = [(f"col{i}.col", b) for i in range(8) for b in range(32)]

    def _selection(self, seed):
        inj = FaultInjector(
            [FaultRule(kind="transient", probability=0.4, times=1)], seed=seed
        )
        picked = []
        for path, block in self.KEYS:
            try:
                inj.on_read(path, block)
                picked.append(False)
            except TransientIOError:
                picked.append(True)
        return picked

    def test_same_seed_same_schedule(self):
        assert self._selection(11) == self._selection(11)

    def test_different_seed_different_schedule(self):
        assert self._selection(11) != self._selection(12)

    def test_probability_roughly_honored(self):
        picked = self._selection(11)
        # 256 draws at p=0.4; a gross miss means the hash draw is broken.
        assert 0.2 < sum(picked) / len(picked) < 0.6

    def test_transient_recovers_after_times_attempts(self):
        inj = FaultInjector([FaultRule(kind="transient", times=2)], seed=0)
        for _ in range(2):
            with pytest.raises(TransientIOError):
                inj.on_read("c.col", 0)
        assert inj.on_read("c.col", 0) == 0.0  # third attempt succeeds
        assert inj.injected["transient"] == 2

    def test_error_messages_name_file_and_block(self):
        inj = FaultInjector(
            [FaultRule(kind="transient"), FaultRule(kind="corrupt")], seed=0
        )
        with pytest.raises(TransientIOError, match=r"c\.col: block 7 "):
            inj.on_read("/db/c.col", 7)
        inj2 = FaultInjector([FaultRule(kind="corrupt")], seed=0)
        with pytest.raises(CorruptBlockError, match=r"c\.col: block 7 "):
            inj2.on_read("/db/c.col", 7)

    def test_slow_returns_latency(self):
        inj = FaultInjector(
            [FaultRule(kind="slow", latency_us=250.0)] * 2, seed=0
        )
        assert inj.on_read("c.col", 0) == 500.0
        assert inj.injected["slow"] == 2

    def test_reset_forgets_attempts_and_tallies(self):
        inj = FaultInjector([FaultRule(kind="transient", times=1)], seed=0)
        with pytest.raises(TransientIOError):
            inj.on_read("c.col", 0)
        inj.on_read("c.col", 0)  # recovered
        inj.reset()
        assert inj.injected["transient"] == 0
        with pytest.raises(TransientIOError):  # budget restored
            inj.on_read("c.col", 0)

    def test_metrics_shape(self):
        inj = FaultInjector([FaultRule(kind="slow")], seed=9)
        snap = inj.metrics()
        assert snap["rules"] == 1 and snap["seed"] == 9
        assert set(snap) >= {
            "injected_transient", "injected_corrupt", "injected_slow"
        }


class TestRetryPolicy:
    def test_exponential_backoff(self):
        policy = RetryPolicy(attempts=4, backoff_us=100.0)
        assert [policy.backoff_for(n) for n in (1, 2, 3)] == [
            100.0, 200.0, 400.0,
        ]

    def test_at_least_one_attempt(self):
        with pytest.raises(ValueError):
            RetryPolicy(attempts=0)

    def test_no_retry_is_single_attempt(self):
        assert NO_RETRY.attempts == 1


@pytest.fixture()
def registry():
    return MetricsRegistry()


class TestRetryingReads:
    def _db(self, tmp_path, registry, rules, **kwargs):
        inj = FaultInjector(rules, seed=5)
        db = Database(
            tmp_path / "db", fault_injector=inj, metrics=registry, **kwargs
        )
        make_projection(db)
        return db, inj

    def test_transient_faults_recover_identically(self, tmp_path, registry):
        db, inj = self._db(
            tmp_path,
            registry,
            [FaultRule(kind="transient", probability=0.5, times=2)],
            retry=RetryPolicy(attempts=4, backoff_us=100.0),
        )
        faulted = db.query(scan_query(), cold=True, trace=True)
        assert faulted.stats.io_retries > 0
        assert faulted.stats.io_gave_up == 0
        inj2 = FaultInjector([], seed=0)
        clean = Database(tmp_path / "db", fault_injector=inj2).query(
            scan_query(), cold=True
        )
        assert sorted(faulted.rows()) == sorted(clean.rows())
        # Backoff entered the simulated clock, never wall-clock sleeps.
        assert faulted.simulated_ms > clean.simulated_ms
        # The recovery is visible: RETRY spans, report line, registry.
        retries = faulted.spans.find("RETRY")
        assert retries and all(
            s.detail["outcome"] == "recovered" for s in retries
        )
        assert all(
            "block" in s.detail and "file" in s.detail for s in retries
        )
        assert "fault recovery" in faulted.report()
        assert (
            registry.counter("io_retries_total").value
            == faulted.stats.io_retries
        )
        assert db.pool.total_retries == faulted.stats.io_retries

    def test_empty_schedule_changes_nothing(self, tmp_path, registry):
        """A hook consulted on every physical read but matching no rule
        leaves rows, every counter and simulated time untouched."""
        hooked, _inj = self._db(tmp_path, registry, [], query_log=False)
        plain = Database(tmp_path / "db", metrics=registry, query_log=False)
        for cold in (True, False):
            a = plain.query(scan_query(), cold=cold)
            b = hooked.query(scan_query(), cold=cold)
            assert b.rows() == a.rows()
            assert b.simulated_ms == a.simulated_ms
            assert b.stats.as_dict() == a.stats.as_dict()

    def test_exhausted_budget_gives_up(self, tmp_path, registry):
        db, _inj = self._db(
            tmp_path,
            registry,
            [FaultRule(kind="transient", path_glob="b.*", times=99)],
            retry=RetryPolicy(attempts=2, backoff_us=50.0),
        )
        with pytest.raises(TransientIOError, match=r"b\.uncompressed\.col"):
            db.query(scan_query(), cold=True)
        assert db.pool.total_give_ups == 1
        assert registry.counter("io_gave_up_total").value == 0  # query died

    def test_give_up_span_in_truncated_tree(self, tmp_path, registry):
        db, _inj = self._db(
            tmp_path,
            registry,
            [FaultRule(kind="transient", path_glob="b.*", times=99)],
            retry=RetryPolicy(attempts=2, backoff_us=50.0),
        )
        with pytest.raises(TransientIOError) as excinfo:
            db.query(scan_query(), cold=True, trace=True)
        root = excinfo.value.spans
        assert root.open_spans() == []
        gave_up = [
            s for s in root.find("RETRY")
            if s.detail.get("outcome") == "gave_up"
        ]
        assert len(gave_up) == 1
        assert gave_up[0].detail["attempts"] == 2

    def test_no_retry_fails_on_first_transient(self, tmp_path, registry):
        db, _inj = self._db(
            tmp_path,
            registry,
            [FaultRule(kind="transient", path_glob="b.*", times=1)],
            retry=NO_RETRY,
        )
        with pytest.raises(TransientIOError):
            db.query(scan_query(), cold=True)
        assert db.pool.total_retries == 0

    def test_slow_blocks_charge_simulated_time(self, tmp_path, registry):
        db, _inj = self._db(
            tmp_path,
            registry,
            [FaultRule(kind="slow", latency_us=1000.0)],
        )
        slow = db.query(scan_query(), cold=True)
        clean = Database(tmp_path / "db").query(scan_query(), cold=True)
        assert slow.stats.extra["slow_block_us"] > 0
        assert slow.simulated_ms > clean.simulated_ms
        assert sorted(slow.rows()) == sorted(clean.rows())

    def test_cache_hits_never_consult_injector(self, tmp_path, registry):
        db, inj = self._db(
            tmp_path,
            registry,
            [FaultRule(kind="transient", times=10**6)],
            retry=RetryPolicy(attempts=2, backoff_us=0.0),
        )
        # Warm the pool with the injector silenced...
        db.pool.injector = None
        db.query(scan_query(), cold=True)
        db.pool.injector = inj
        # ...then a warm query reads only from cache: no faults fire.
        result = db.query(scan_query())
        assert inj.injected["transient"] == 0
        assert result.stats.io_retries == 0

    def test_parallel_scans_retry_deterministically(self, tmp_path, registry):
        db, _inj = self._db(
            tmp_path,
            registry,
            [FaultRule(kind="transient", probability=0.5, times=2)],
            retry=RetryPolicy(attempts=4, backoff_us=100.0),
            parallel_scans=2,
        )
        with db:
            first = db.query(scan_query(), strategy="lm-parallel", cold=True)
            db.pool.injector.reset()
            second = db.query(scan_query(), strategy="lm-parallel", cold=True)
        # The keyed-hash schedule is independent of thread interleaving.
        assert first.stats.io_retries == second.stats.io_retries
        assert sorted(first.rows()) == sorted(second.rows())


class TestPartitionQuarantine:
    def test_record_is_idempotent_first_cause_wins(self):
        q = PartitionQuarantine()
        first = q.record("t", "part0001", "checksum")
        second = q.record("t", "part0001", "different cause")
        assert first is second and first.cause == "checksum"
        assert len(q) == 1
        assert q.is_quarantined("t", "part0001")
        assert not q.is_quarantined("t", "part0002")

    def test_entries_sorted_release_and_clear(self):
        q = PartitionQuarantine()
        q.record("t", "part0002", "x")
        q.record("t", "part0001", "y")
        assert [e.partition for e in q.entries()] == ["part0001", "part0002"]
        assert q.release("t", "part0002")
        assert not q.release("t", "part0002")  # already released
        q.clear()
        assert len(q) == 0

    def test_metrics_names_partitions(self):
        q = PartitionQuarantine()
        q.record("t", "part0003", "z")
        assert q.metrics() == {
            "quarantined": 1, "partitions": ["t/part0003"],
        }

    def test_error_carries_structured_fields(self):
        err = QuarantinedPartitionError("t", "part0001", "bad block")
        assert err.projection == "t"
        assert err.partition == "part0001"
        assert "part0001" in str(err) and "bad block" in str(err)


def degrade_db(tmp_path, registry=None, rules=None, **kwargs):
    """A 4-way partitioned database whose part0001 always fails checksum."""
    inj = FaultInjector(
        rules
        if rules is not None
        else [FaultRule(kind="corrupt", path_glob="*part0001*")],
        seed=0,
    )
    db = Database(
        tmp_path / "db",
        fault_injector=inj,
        on_error="degrade",
        metrics=registry if registry is not None else MetricsRegistry(),
        **kwargs,
    )
    make_projection(db, partitions=4)
    return db


class TestDegradedExecution:
    def test_on_error_validated(self, tmp_path):
        with pytest.raises(ValueError, match="on_error"):
            Database(tmp_path / "db", on_error="explode")

    def test_default_fail_mode_unchanged(self, tmp_path):
        inj = FaultInjector(
            [FaultRule(kind="corrupt", path_glob="*part0001*")], seed=0
        )
        db = Database(tmp_path / "db", fault_injector=inj)
        make_projection(db, partitions=4)
        with pytest.raises(CorruptBlockError, match=r"part0001"):
            db.query(scan_query(), strategy="em-parallel", cold=True)
        assert len(db.quarantine) == 0

    def test_degrade_skips_failing_partition(self, tmp_path):
        registry = MetricsRegistry()
        db = degrade_db(tmp_path, registry)
        result = db.query(scan_query(), strategy="em-parallel", cold=True)
        assert result.degraded
        assert result.skipped_partitions == ("part0001",)
        assert "DEGRADED" in result.report()
        assert result.n_rows > 0
        entries = db.quarantine.entries()
        assert len(entries) == 1 and entries[0].partition == "part0001"
        assert "part0001" in entries[0].cause
        assert registry.counter("degraded_queries_total").value == 1
        assert registry.counter("partitions_quarantined_total").value == 1

    def test_degraded_equals_clean_minus_partition(self, tmp_path):
        db = degrade_db(tmp_path)
        degraded = db.query(scan_query(), strategy="em-parallel", cold=True)
        clean_db = Database(tmp_path / "db")
        proj = clean_db.projection("t")
        survivors = [
            p for p in proj.partitions if p.name != "part0001"
        ]
        expected = []
        for part in survivors:
            child = part.open()
            a = child.read_column_values("a")
            b = child.read_column_values("b")
            mask = a < 800
            expected.extend(zip(a[mask].tolist(), b[mask].tolist()))
        assert sorted(degraded.rows()) == sorted(expected)

    def test_quarantine_is_session_scoped(self, tmp_path):
        db = degrade_db(tmp_path)
        db.query(scan_query(), strategy="em-parallel", cold=True)
        corrupt_reads = db.pool.injector.injected["corrupt"]
        # Second query pre-skips the quarantined partition: no new
        # corruption is even encountered.
        again = db.query(scan_query(), strategy="em-parallel", cold=True)
        assert again.degraded
        assert again.skipped_partitions == ("part0001",)
        assert db.pool.injector.injected["corrupt"] == corrupt_reads
        # A fresh session starts with an empty quarantine.
        fresh = degrade_db(tmp_path / "fresh")
        assert len(fresh.quarantine) == 0

    def test_release_restores_partition(self, tmp_path):
        db = degrade_db(tmp_path)
        db.query(scan_query(), strategy="em-parallel", cold=True)
        db.pool.injector.rules = ()  # the device healed
        assert db.quarantine.release("t", "part0001")
        result = db.query(scan_query(), strategy="em-parallel", cold=True)
        assert not result.degraded

    def test_degrade_under_parallel_scans(self, tmp_path):
        with degrade_db(tmp_path, parallel_scans=2) as db:
            result = db.query(
                scan_query(), strategy="lm-parallel", cold=True, trace=True
            )
            assert result.degraded
            assert result.skipped_partitions == ("part0001",)
            assert result.spans.open_spans() == []

    def test_transient_exhaustion_quarantines_too(self, tmp_path):
        db = degrade_db(
            tmp_path,
            rules=[
                FaultRule(kind="transient", path_glob="*part0002*", times=99)
            ],
            retry=RetryPolicy(attempts=2, backoff_us=10.0),
        )
        result = db.query(scan_query(), strategy="em-parallel", cold=True)
        assert result.degraded
        assert result.skipped_partitions == ("part0002",)
        assert result.stats.io_gave_up >= 1

    def test_explain_analyze_reports_degradation(self, tmp_path):
        db = degrade_db(tmp_path)
        report = db.query(
            scan_query(), strategy="em-parallel", trace=True
        ).summary()
        assert report["degraded"] is True
        assert report["skipped_partitions"] == ["part0001"]

    def test_unpartitioned_failure_still_raises(self, tmp_path):
        # The quarantine unit is a partition; an unpartitioned projection
        # has no survivors to degrade to, so the error propagates even in
        # degrade mode.
        inj = FaultInjector([FaultRule(kind="corrupt")], seed=0)
        db = Database(tmp_path / "db", fault_injector=inj, on_error="degrade")
        make_projection(db)
        with pytest.raises(CorruptBlockError):
            db.query(scan_query(), cold=True)
