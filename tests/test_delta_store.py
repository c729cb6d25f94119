"""Tests for the writable store: inserts, merge-on-read, and the tuple mover."""

from datetime import date

import numpy as np
import pytest

from repro import AggSpec, Database, Predicate, SelectQuery, load_tpch
from repro.errors import CatalogError, EncodingError, ExecutionError

from .reference import full_column


@pytest.fixture()
def db(tmp_path):
    database = Database(tmp_path / "db")
    load_tpch(database.catalog, scale=0.001, seed=5)  # 6000 lineitem rows
    return database


def lineitem_row(shipdate="1999-06-01", linenum=1, quantity=10, flag="A"):
    return {
        "shipdate": date.fromisoformat(shipdate),
        "linenum": linenum,
        "quantity": quantity,
        "returnflag": flag,
    }


class TestInsertValidation:
    def test_insert_counts(self, db):
        assert db.insert("lineitem", [lineitem_row(), lineitem_row()]) == 2
        assert db.pending("lineitem") == 2

    def test_unknown_table(self, db):
        with pytest.raises(CatalogError):
            db.insert("ghost", [lineitem_row()])

    def test_missing_column_rejected(self, db):
        bad = lineitem_row()
        bad.pop("quantity")
        with pytest.raises(CatalogError):
            db.insert("lineitem", [bad])

    def test_extra_column_rejected(self, db):
        bad = lineitem_row()
        bad["surprise"] = 1
        with pytest.raises(CatalogError):
            db.insert("lineitem", [bad])

    @pytest.mark.parametrize("quantity", [2**40, "seven", 1.5, None])
    def test_value_that_does_not_fit_logs_nothing(self, db, tmp_path,
                                                  quantity):
        # The whole batch is type-checked before the WAL append: nothing
        # is logged or buffered, and the table stays readable, reopened too.
        db.insert("lineitem", [lineitem_row(linenum=2)])
        wal = db.catalog.root / "_wal" / "lineitem.wal"
        logged = wal.read_bytes()
        batch = [lineitem_row(), lineitem_row(quantity=quantity)]
        with pytest.raises(EncodingError, match="quantity"):
            db.insert("lineitem", batch)
        assert wal.read_bytes() == logged
        assert db.pending("lineitem") == 1
        with pytest.raises(EncodingError, match="quantity"):
            db.update("lineitem", (), {"quantity": quantity})
        assert wal.read_bytes() == logged
        query = "SELECT linenum FROM lineitem WHERE shipdate > '1999-01-01'"
        assert db.sql(query).rows() == [(2,)]
        assert Database(tmp_path / "db").sql(query).rows() == [(2,)]

    def test_dictionary_value_encoded(self, db):
        db.insert("lineitem", [lineitem_row(flag="R")])
        r = db.sql(
            "SELECT returnflag, linenum FROM lineitem "
            "WHERE shipdate > '1999-01-01'"
        )
        assert r.decoded_rows() == [("R", 1)]


class TestMergeOnRead:
    def test_selection_sees_pending_rows(self, db):
        before = db.sql("SELECT linenum FROM lineitem WHERE linenum = 7").n_rows
        db.insert("lineitem", [lineitem_row(linenum=7)] * 3)
        after = db.sql("SELECT linenum FROM lineitem WHERE linenum = 7").n_rows
        assert after == before + 3

    def test_predicates_filter_pending_rows(self, db):
        db.insert(
            "lineitem",
            [lineitem_row(quantity=5), lineitem_row(quantity=45)],
        )
        r = db.sql(
            "SELECT quantity FROM lineitem "
            "WHERE shipdate > '1999-01-01' AND quantity < 10"
        )
        assert r.rows() == [(5,)]

    def test_aggregation_merges_partials(self, db):
        lineitem = db.projection("lineitem")
        lin = full_column(lineitem, "linenum")
        qty = full_column(lineitem, "quantity")
        stored_sum = int(qty[lin == 2].sum())
        db.insert("lineitem", [lineitem_row(linenum=2, quantity=100)] * 2)
        r = db.sql(
            "SELECT linenum, SUM(quantity) FROM lineitem "
            "WHERE linenum = 2 GROUP BY linenum"
        )
        assert r.rows() == [(2, stored_sum + 200)]

    def test_avg_merges_correctly(self, db):
        # AVG over merged data must be recomputed from merged SUM/COUNT, not
        # averaged averages.
        db.insert("lineitem", [lineitem_row(linenum=1, quantity=1)] * 10)
        lineitem = db.projection("lineitem")
        lin = full_column(lineitem, "linenum")
        qty = full_column(lineitem, "quantity")
        expected = (int(qty[lin == 1].sum()) + 10) // (int((lin == 1).sum()) + 10)
        r = db.sql(
            "SELECT linenum, AVG(quantity) FROM lineitem "
            "WHERE linenum = 1 GROUP BY linenum"
        )
        assert r.rows() == [(1, expected)]

    def test_new_group_appears(self, db):
        db.insert("lineitem", [lineitem_row(shipdate="1999-12-31", linenum=3)])
        r = db.sql(
            "SELECT shipdate, COUNT(shipdate) FROM lineitem "
            "WHERE shipdate > '1999-01-01' GROUP BY shipdate"
        )
        assert r.decoded_rows() == [(date(1999, 12, 31), 1)]

    def test_order_and_limit_apply_after_merge(self, db):
        db.insert("lineitem", [lineitem_row(quantity=999)])
        r = db.sql(
            "SELECT quantity FROM lineitem ORDER BY quantity DESC LIMIT 1"
        )
        assert r.rows() == [(999,)]

    def test_join_requires_merge(self, db):
        db.insert(
            "orders",
            [{"shipdate": date(1999, 1, 1), "custkey": 1}],
        )
        with pytest.raises(ExecutionError):
            db.sql(
                "SELECT o.shipdate, c.nationcode FROM orders o, customer c "
                "WHERE o.custkey = c.custkey"
            )


class TestTupleMover:
    def test_merge_moves_rows(self, db):
        n_before = db.projection("lineitem").n_rows
        db.insert("lineitem", [lineitem_row()] * 5)
        assert db.merge("lineitem") == 5
        assert db.pending("lineitem") == 0
        assert db.projection("lineitem").n_rows == n_before + 5

    def test_merge_resorts(self, db):
        # Inserted rows land in sort position, not appended at the end.
        db.insert("lineitem", [lineitem_row(shipdate="1992-01-02", flag="A")])
        db.merge("lineitem")
        lineitem = db.projection("lineitem")
        flag = full_column(lineitem, "returnflag").astype(np.int64)
        ship = full_column(lineitem, "shipdate").astype(np.int64)
        key = flag * 10**6 + ship
        assert np.all(np.diff(key) >= 0)

    def test_merge_is_idempotent(self, db):
        db.insert("lineitem", [lineitem_row()])
        db.merge("lineitem")
        n = db.projection("lineitem").n_rows
        assert db.merge("lineitem") == 0
        assert db.projection("lineitem").n_rows == n

    def test_queries_after_merge(self, db):
        db.insert("lineitem", [lineitem_row(linenum=7, quantity=50)] * 4)
        pre_merge = db.sql(
            "SELECT linenum, SUM(quantity) FROM lineitem "
            "WHERE linenum = 7 GROUP BY linenum"
        ).rows()
        db.merge("lineitem")
        post_merge = db.sql(
            "SELECT linenum, SUM(quantity) FROM lineitem "
            "WHERE linenum = 7 GROUP BY linenum"
        ).rows()
        assert pre_merge == post_merge

    def test_merge_then_join_allowed(self, db):
        db.insert("orders", [{"shipdate": date(1999, 1, 1), "custkey": 3}])
        db.merge("orders")
        r = db.sql(
            "SELECT o.shipdate, c.nationcode FROM orders o, customer c "
            "WHERE o.custkey = c.custkey AND o.custkey < 5"
        )
        assert r.n_rows > 0

    def test_merge_rebuilds_index_and_histogram(self, db):
        db.insert("lineitem", [lineitem_row()])
        db.merge("lineitem")
        lineitem = db.projection("lineitem")
        assert lineitem.column("returnflag").index is not None
        cf = lineitem.column("quantity").file()
        assert cf.histogram is not None
        assert cf.histogram.n_values == lineitem.n_rows


class TestDeletes:
    def test_delete_pending_rows_is_immediate(self, db):
        db.insert("lineitem", [lineitem_row(linenum=77)] * 3)
        n = db.delete("lineitem", (Predicate("linenum", "=", 77),))
        assert n == 3
        assert db.sql(
            "SELECT linenum FROM lineitem WHERE linenum = 77"
        ).n_rows == 0
        assert db.pending("lineitem") == 0  # nothing left to move

    def test_delete_stored_rows_subtracted_from_queries(self, db):
        before = db.sql("SELECT linenum FROM lineitem WHERE linenum = 3")
        n = db.delete("lineitem", (Predicate("linenum", "=", 3),))
        assert n == before.n_rows > 0
        for strategy in ("em-pipelined", "em-parallel", "lm-parallel"):
            assert db.sql(
                "SELECT linenum FROM lineitem WHERE linenum = 3",
                strategy=strategy,
            ).n_rows == 0

    def test_delete_affects_aggregates(self, db):
        full = db.sql(
            "SELECT returnflag, sum(quantity) FROM lineitem "
            "GROUP BY returnflag"
        )
        db.delete("lineitem", (Predicate("returnflag", "=", 0),))
        reduced = db.sql(
            "SELECT returnflag, sum(quantity) FROM lineitem "
            "GROUP BY returnflag"
        )
        flags = {row[0] for row in reduced.rows()}
        assert 0 not in flags
        kept = {row[0]: row[1] for row in full.rows() if row[0] != 0}
        assert {row[0]: row[1] for row in reduced.rows()} == kept

    def test_delete_no_matches_returns_zero_and_logs_nothing(self, db):
        wal = db.catalog.root / "_wal" / "lineitem.wal"
        assert db.delete("lineitem", (Predicate("quantity", ">", 10**6),)) == 0
        assert not wal.exists()

    def test_empty_insert_returns_zero_and_logs_nothing(self, db):
        wal = db.catalog.root / "_wal" / "lineitem.wal"
        fsyncs = db.disk.total_fsyncs
        assert db.insert("lineitem", []) == 0
        assert not wal.exists()
        assert db.disk.total_fsyncs == fsyncs
        assert db.pending("lineitem") == 0

    def test_deletes_survive_restart(self, db, tmp_path):
        n = db.delete("lineitem", (Predicate("linenum", "=", 5),))
        assert n > 0
        reopened = Database(tmp_path / "db")
        assert reopened.sql(
            "SELECT linenum FROM lineitem WHERE linenum = 5"
        ).n_rows == 0
        assert reopened.pending("lineitem") == n

    def test_merge_folds_deletes_into_read_store(self, db):
        n = db.delete("lineitem", (Predicate("linenum", "=", 2),))
        assert db.merge("lineitem") == n
        assert db.pending("lineitem") == 0
        assert db.sql(
            "SELECT linenum FROM lineitem WHERE linenum = 2"
        ).n_rows == 0
        # The rebuilt projection holds exactly the surviving rows.
        values = db.projection("lineitem").read_column_values("linenum")
        assert (values == 2).sum() == 0


    def test_delete_multiset_out_of_sync_with_read_store_raises(self, db):
        # A ghost the stored projection does not hold cannot be cancelled;
        # silently ignoring it would hide a diverged write store.
        phantom = {
            "returnflag": np.array([0]),
            "shipdate": np.array([10_000]),
            "linenum": np.array([1]),
            "quantity": np.array([10**6]),  # no stored row has this
        }
        nothing = {col: np.array([], dtype=np.int64) for col in phantom}
        assert db.delta.delete("lineitem", phantom, nothing) == 1
        for sql in (
            "SELECT quantity FROM lineitem WHERE quantity > 1000",
            "SELECT linenum, sum(quantity) FROM lineitem "
            "WHERE quantity > 1000 GROUP BY linenum",
        ):
            with pytest.raises(
                ExecutionError, match=r"'lineitem'.*'lineitem'.*out of sync"
            ):
                db.sql(sql)
        # A query whose predicates exclude the ghost is unaffected.
        assert db.sql(
            "SELECT quantity FROM lineitem WHERE quantity < 5"
        ).n_rows > 0


class TestDmlReadPath:
    """update/delete resolve matches through the read path, not by
    decoding every column of the table."""

    def test_selective_dml_reads_only_surviving_partitions(
        self, tmp_path, monkeypatch
    ):
        from repro.planner.partitioned import prune_partitions
        from repro.storage.column_file import ColumnFile

        database = Database(tmp_path / "parts")
        load_tpch(database.catalog, scale=0.01, seed=5, partitions=4)
        lineitem = database.projection("lineitem")

        def blocks(partitions):
            return sum(
                part.open().column(col).file().n_blocks
                for part in partitions
                for col in lineitem.column_names
            )

        def whole_column_decode(self):
            raise AssertionError(f"read_all_values({self.path}) during DML")

        monkeypatch.setattr(ColumnFile, "read_all_values", whole_column_decode)
        for flag, run in (
            (0, lambda preds: database.delete("lineitem", preds)),
            (2, lambda preds: database.update(
                "lineitem", preds, {"quantity": 49})),
        ):
            preds = (
                Predicate("returnflag", "=", flag),
                Predicate("linenum", "=", 3),
            )
            survivors, total = prune_partitions(
                lineitem, SelectQuery("lineitem", ("linenum",), preds)
            )
            assert 0 < len(survivors) < total
            database.clear_cache()  # every block touched is now a miss
            before = database.pool.misses
            assert run(preds) > 0
            touched = database.pool.misses - before
            assert 0 < touched <= blocks(survivors) < blocks(
                lineitem.partitions
            )


class TestUpdates:
    def test_update_rewrites_matches(self, db):
        before = db.sql(
            "SELECT quantity FROM lineitem WHERE linenum = 4"
        ).n_rows
        n = db.update(
            "lineitem", (Predicate("linenum", "=", 4),), {"quantity": 33}
        )
        assert n == before > 0
        r = db.sql("SELECT quantity FROM lineitem WHERE linenum = 4")
        assert r.n_rows == before
        assert {row[0] for row in r.rows()} == {33}

    def test_update_encodes_dictionary_assignment(self, db):
        n = db.update(
            "lineitem", (Predicate("linenum", "=", 6),), {"returnflag": "N"}
        )
        assert n > 0
        r = db.sql("SELECT returnflag FROM lineitem WHERE linenum = 6")
        assert {row[0] for row in r.decoded_rows()} == {"N"}

    def test_update_unknown_column_rejected(self, db):
        with pytest.raises(CatalogError, match="nope"):
            db.update("lineitem", (), {"nope": 1})

    def test_update_is_one_atomic_wal_record(self, db):
        import json

        n = db.update(
            "lineitem", (Predicate("linenum", "=", 1),), {"quantity": 9}
        )
        assert n > 0
        wal = db.catalog.root / "_wal" / "lineitem.wal"
        lines = [
            json.loads(line)
            for line in wal.read_text().splitlines() if line
        ]
        assert len(lines) == 1
        [record] = lines
        assert record["_op"] == "update"
        # The matched rows, columnar, plus the assignments they re-enter
        # with (not a re-materialised copy of every row).
        assert record["assignments"] == {"quantity": 9}
        assert sum(
            len(record[side]["quantity"]) for side in ("stored", "pending")
        ) == n
        for side in ("stored", "pending"):
            assert {len(values) for values in record[side].values()} == {
                len(record[side]["quantity"])
            }

    def test_updates_survive_restart_and_merge(self, db, tmp_path):
        db.update(
            "lineitem", (Predicate("linenum", "=", 7),), {"quantity": 55}
        )
        reopened = Database(tmp_path / "db")
        r = reopened.sql("SELECT quantity FROM lineitem WHERE linenum = 7")
        assert {row[0] for row in r.rows()} == {55}
        reopened.merge("lineitem")
        r = reopened.sql("SELECT quantity FROM lineitem WHERE linenum = 7")
        assert {row[0] for row in r.rows()} == {55}
        assert reopened.pending("lineitem") == 0

    def test_update_of_pending_rows_replaces_them_in_place(self, db):
        db.insert(
            "lineitem",
            [lineitem_row(linenum=77, quantity=q) for q in (1, 2, 2)],
        )
        n = db.update(
            "lineitem",
            (Predicate("linenum", "=", 77), Predicate("quantity", "=", 2)),
            {"quantity": 9},
        )
        assert n == 2
        assert db.pending("lineitem") == 3  # still three rows, no ghosts
        assert db.delta.deleted_count("lineitem") == 0
        r = db.sql("SELECT quantity FROM lineitem WHERE linenum = 77")
        assert sorted(r.rows()) == [(1,), (9,), (9,)]
        # One of two equal pending rows deleted: exactly one goes.
        assert db.delete(
            "lineitem",
            (Predicate("linenum", "=", 77), Predicate("quantity", "=", 1)),
        ) == 1
        assert db.pending("lineitem") == 2

    def test_replay_of_an_already_removed_pending_row_is_idempotent(
        self, db, tmp_path
    ):
        import json

        row = {"returnflag": 0, "shipdate": 10_000, "linenum": 77,
               "quantity": 5}
        other = dict(row, quantity=6)
        gone = {"_op": "delete", "stored": [], "pending": [row]}
        never = {"_op": "delete", "stored": [], "pending": [dict(row, quantity=7)]}
        wal = db.catalog.root / "_wal" / "lineitem.wal"
        wal.parent.mkdir(exist_ok=True)
        # The same pending-row removal logged twice (a replayed record),
        # and one naming a row that was never pending: both are no-ops.
        wal.write_text("".join(
            json.dumps(record) + "\n"
            for record in (row, other, row, gone, gone, gone, never)
        ))
        reopened = Database(tmp_path / "db")
        assert reopened.pending("lineitem") == 1
        r = reopened.sql("SELECT quantity FROM lineitem WHERE linenum = 77")
        assert r.rows() == [(6,)]

    def test_update_then_delete_composes(self, db):
        db.update(
            "lineitem", (Predicate("linenum", "=", 2),), {"quantity": 77}
        )
        n = db.delete("lineitem", (Predicate("quantity", "=", 77),))
        assert n > 0
        assert db.sql(
            "SELECT quantity FROM lineitem WHERE quantity = 77"
        ).n_rows == 0


class TestDurabilityKnob:
    def test_fsync_default_charges_simulated_clock(self, tmp_path):
        database = Database(tmp_path / "db")
        load_tpch(database.catalog, scale=0.001, seed=5)
        assert database.durability == "fsync"
        before = database.disk.total_fsyncs
        database.insert("lineitem", [lineitem_row()])
        assert database.disk.total_fsyncs > before

    def test_empty_crash_schedule_changes_no_outcome(self, tmp_path):
        """Disabled crash hooks change no logical outcome and no fsync
        count."""
        import shutil

        from repro.faults import CrashInjector

        with Database(tmp_path / "source", query_log=False) as source:
            load_tpch(source.catalog, scale=0.001, seed=5)
        configs = {
            "fsync": {},
            "hooked": dict(crash_injector=CrashInjector([], seed=0)),
        }
        outcomes = {}
        for name, kwargs in configs.items():
            shutil.copytree(tmp_path / "source", tmp_path / name)
            with Database(tmp_path / name, query_log=False, **kwargs) as db:
                db.insert("lineitem", [lineitem_row(quantity=q % 50 + 1)
                                       for q in range(64)])
                db.update("lineitem", (Predicate("quantity", "=", 1),),
                          {"quantity": 50})
                db.delete("lineitem", (Predicate("linenum", "=", 1),))
                moved = db.merge("lineitem")
                outcomes[name] = (moved, db.disk.total_fsyncs)
        assert len({moved for moved, _ in outcomes.values()}) == 1, outcomes
        assert outcomes["hooked"][1] == outcomes["fsync"][1]

    def test_invalid_mode_rejected(self, tmp_path):
        for mode in ("yolo", "flush"):
            with pytest.raises(ValueError, match="durability"):
                Database(tmp_path / "db", durability=mode)
