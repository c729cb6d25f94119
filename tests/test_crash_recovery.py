"""Crash recovery scenarios: the merge windows, torn tails, staging GC.

The crash differential enumerates every boundary; these tests pin the
*interesting* windows by name so a regression points straight at the
broken protocol step:

* crash between the tuple mover's manifest commit and the WAL truncate —
  recovery must honour the ``wal_applied`` marker (no duplicated rows)
  and a re-merge must be a no-op;
* a torn WAL tail appended while a tuple move was in flight — the
  recovered store keeps the applied prefix, replays the durable
  remainder, and drops the torn line;
* crash before the staging rename / before drop's rmtree — the old state
  survives untouched and reopening garbage-collects the debris.
"""

from __future__ import annotations

import shutil
from datetime import date

import pytest

from repro import Database, Predicate, SelectQuery, load_tpch
from repro.faults import CrashInjector, CrashPoint, SimulatedCrash


def order_row(custkey=1):
    return {"shipdate": date(1999, 1, 1), "custkey": custkey}


@pytest.fixture()
def db_root(tmp_path):
    root = tmp_path / "db"
    db = Database(root)
    load_tpch(db.catalog, scale=0.001, seed=2)
    db.close()
    return root


def crashing_db(root, op_glob, path_glob="*"):
    injector = CrashInjector(
        [CrashPoint(op_glob=op_glob, path_glob=path_glob)], seed=0
    )
    return Database(root, crash_injector=injector)


def order_count(db) -> int:
    result = db.query(
        SelectQuery(projection="orders", select=("custkey",))
    )
    return result.n_rows


class TestMergeCommitWindow:
    def test_crash_between_manifest_commit_and_wal_truncate(self, db_root):
        baseline = order_count(Database(db_root))
        db = crashing_db(db_root, "wal.truncate")
        db.insert("orders", [order_row(n) for n in (101, 102, 103)])
        with pytest.raises(SimulatedCrash):
            db.merge("orders")
        # The manifest committed the rebuilt projections before the crash:
        # the WAL file survives, but the marker says its records are
        # already folded in.
        assert (db_root / "_wal" / "orders.wal").exists()

        reopened = Database(db_root)
        assert order_count(reopened) == baseline + 3  # durable exactly once
        assert reopened.pending("orders") == 0  # marker skipped the WAL
        assert not (db_root / "_wal" / "orders.wal").exists()
        assert reopened.merge("orders") == 0  # idempotent re-merge
        assert order_count(reopened) == baseline + 3

    def test_marker_without_wal_file_is_cleared(self, db_root):
        # Crash in the smaller window: WAL unlinked, marker-clearing
        # manifest commit still pending ("replace" of the manifest fires
        # first for the merge commit itself, so target the second one).
        db = crashing_db(db_root, "dir.fsync", path_glob="_wal")
        db.insert("orders", [order_row(7)])
        with pytest.raises(SimulatedCrash):
            db.merge("orders")
        reopened = Database(db_root)
        assert reopened.pending("orders") == 0
        assert reopened.catalog.wal_applied == {}
        assert reopened.merge("orders") == 0


class TestTornTailUnderInflightMove:
    def test_torn_tail_plus_applied_prefix(self, db_root):
        baseline = order_count(Database(db_root))
        db = crashing_db(db_root, "wal.truncate")
        db.insert("orders", [order_row(n) for n in (201, 202)])
        with pytest.raises(SimulatedCrash):
            db.merge("orders")
        # A racing insert appends to the same WAL after the manifest
        # committed but before recovery ran — and its tail tears.
        wal = db_root / "_wal" / "orders.wal"
        import json

        complete = json.dumps(
            {"shipdate": 10000, "custkey": 203}, sort_keys=True
        )
        with open(wal, "a", encoding="utf-8") as f:
            f.write(complete + "\n")
            f.write('{"shipdate": 100')  # torn mid-payload

        reopened = Database(db_root)
        # Applied prefix skipped, durable racer replayed, torn line gone.
        assert reopened.pending("orders") == 1
        assert order_count(reopened) == baseline + 3
        moved = reopened.merge("orders")
        assert moved == 1
        assert order_count(reopened) == baseline + 3
        assert reopened.pending("orders") == 0

    def test_recovery_leaves_wal_and_marker_untouched(self, db_root):
        db = crashing_db(db_root, "wal.truncate")
        db.insert("orders", [order_row(5)])
        with pytest.raises(SimulatedCrash):
            db.merge("orders")
        wal = db_root / "_wal" / "orders.wal"
        racer = '{"custkey": 301, "shipdate": 10001}\n'
        with open(wal, "a", encoding="utf-8") as f:
            f.write(racer)
        before = wal.read_bytes()
        reopened = Database(db_root)
        # Recovery only reads: the applied prefix and its marker stay, and
        # the next merge's marker covers the prefix and the racer alike.
        assert wal.read_bytes() == before
        assert reopened.catalog.wal_applied == {"orders": 1}
        assert reopened.delta.wal_records("orders") == 2
        assert reopened.pending("orders") == 1
        reopened.close()


class TestRecoveringOpenWindow:
    """A crash inside a recovering open loses no acknowledged write.

    The state: a merge crashed before unlinking its WAL (marker 1) and an
    acknowledged racer record follows the applied prefix, then a torn
    tail. Every boundary the recovering open itself crosses is crashed in
    turn; the next open must still hold the racer pending, once.
    """

    def _recovering_root(self, db_root):
        db = crashing_db(db_root, "wal.truncate")
        db.insert("orders", [order_row(5)])
        with pytest.raises(SimulatedCrash):
            db.merge("orders")
        with open(db_root / "_wal" / "orders.wal", "a",
                  encoding="utf-8") as f:
            f.write('{"custkey": 301, "shipdate": 10001}\n')
            f.write('{"custkey": 302, "shi')  # torn, never acknowledged
        return db_root

    def test_crash_at_each_boundary_keeps_the_racer(self, db_root,
                                                    tmp_path):
        template = self._recovering_root(db_root)
        shutil.copytree(template, tmp_path / "count")
        counter = CrashInjector(seed=0)  # no schedule: counts boundaries
        Database(tmp_path / "count", crash_injector=counter).close()
        assert counter.steps >= 1  # the torn tail's truncation fsync
        for k in range(1, counter.steps + 1):
            root = tmp_path / f"crash{k}"
            shutil.copytree(template, root)
            with pytest.raises(SimulatedCrash):
                Database(root, crash_injector=CrashInjector(crash_at=k))
            reopened = Database(root)
            assert reopened.pending("orders") == 1, f"crash at boundary {k}"
            assert reopened.merge("orders") == 1
            assert reopened.pending("orders") == 0
            reopened.close()


class TestStagingAndDropWindows:
    def test_crash_before_staging_rename_preserves_old_state(self, db_root):
        baseline = order_count(Database(db_root))
        db = crashing_db(db_root, "rename")
        db.insert("orders", [order_row(42)])
        with pytest.raises(SimulatedCrash):
            db.merge("orders")
        assert list(db_root.glob("tmp-*")), "staging debris must exist"

        reopened = Database(db_root)
        assert not list(db_root.glob("tmp-*")), "reopen must GC staging"
        assert reopened.pending("orders") == 1  # nothing was committed
        assert order_count(reopened) == baseline + 1  # merge-on-read
        assert reopened.merge("orders") == 1
        assert order_count(reopened) == baseline + 1

    def test_crash_before_drop_rmtree_does_not_resurrect(self, db_root):
        db = crashing_db(db_root, "rmtree")
        with pytest.raises(SimulatedCrash):
            db.drop_projection("customer")
        # The manifest committed the drop; only the file deletion is
        # missing, so the directory is momentarily orphaned.
        reopened = Database(db_root)
        assert "customer" not in reopened.catalog
        assert not (db_root / "customer").exists(), (
            "reopen must garbage-collect the unreferenced directory"
        )

    def test_updates_and_deletes_survive_crashed_merge(self, db_root):
        db = crashing_db(db_root, "rename")
        deleted = db.delete("orders", (Predicate("custkey", "=", 1),))
        assert deleted > 0
        updated = db.update(
            "orders", (Predicate("custkey", "=", 2),), {"custkey": 9999}
        )
        assert updated > 0
        expected = order_count(db)
        with pytest.raises(SimulatedCrash):
            db.merge("orders")
        reopened = Database(db_root)
        assert order_count(reopened) == expected
        assert reopened.pending("orders") > 0
        reopened.merge("orders")
        assert order_count(reopened) == expected
        assert reopened.pending("orders") == 0


class TestCrashInjectorUnit:
    def test_schedule_is_deterministic(self):
        a = CrashInjector([CrashPoint(probability=0.1)], seed=3)
        b = CrashInjector([CrashPoint(probability=0.1)], seed=3)
        fired_a = [a.check("file.write", f"/x/{i}") for i in range(50)]
        fired_b = [b.check("file.write", f"/x/{i}") for i in range(50)]
        assert fired_a == fired_b

    def test_crash_at_fires_exactly_once(self):
        inj = CrashInjector(seed=0, crash_at=3)
        fired = [inj.check("op", "p") for _ in range(6)]
        assert fired == [False, False, True, False, False, False]

    def test_hook_raises_and_records(self):
        inj = CrashInjector(seed=0, crash_at=1)
        with pytest.raises(SimulatedCrash) as exc:
            inj.hook("wal.append", "/db/_wal/t.wal")
        assert exc.value.op == "wal.append"
        assert inj.crashed is not None
        assert inj.metrics()["crashed"] == 1
