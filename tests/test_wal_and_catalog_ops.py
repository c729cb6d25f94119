"""Tests for WAL durability, drop_projection, and storage reports."""

import json
from datetime import date

import numpy as np
import pytest

from repro import Database, Predicate, SelectQuery, load_tpch
from repro.dtypes import INT32, ColumnSchema, date_to_int
from repro.errors import CatalogError


def order_row(custkey=1):
    return {"shipdate": date(1999, 1, 1), "custkey": custkey}


@pytest.fixture()
def db_root(tmp_path):
    root = tmp_path / "db"
    db = Database(root)
    load_tpch(db.catalog, scale=0.001, seed=2)
    return root, db


class TestWALDurability:
    def test_pending_rows_survive_restart(self, db_root):
        root, db = db_root
        db.insert("orders", [order_row(1), order_row(2)])
        assert db.pending("orders") == 2

        reopened = Database(root)
        assert reopened.pending("orders") == 2
        # And the recovered rows are queryable (merge-on-read).
        r = reopened.sql(
            "SELECT custkey FROM orders WHERE shipdate > '1998-12-31'"
        )
        assert sorted(r.rows()) == [(1,), (2,)]

    def test_merge_truncates_wal(self, db_root):
        root, db = db_root
        db.insert("orders", [order_row(3)])
        db.merge("orders")
        assert not (root / "_wal" / "orders.wal").exists()
        reopened = Database(root)
        assert reopened.pending("orders") == 0

    def test_wal_accumulates_across_inserts(self, db_root):
        root, db = db_root
        db.insert("orders", [order_row(1)])
        db.insert("orders", [order_row(2)])
        wal = (root / "_wal" / "orders.wal").read_text().strip().splitlines()
        assert len(wal) == 2

    def test_values_already_encoded_in_wal(self, db_root):
        root, db = db_root
        db.insert("orders", [order_row(5)])
        [record] = [
            json.loads(line)
            for line in (root / "_wal" / "orders.wal").read_text().splitlines()
        ]
        # One columnar line; the date was encoded to an int before it hit
        # the log.
        assert record["_op"] == "insert"
        assert record["columns"] == {
            "shipdate": [date_to_int(date(1999, 1, 1))], "custkey": [5],
        }

    def test_torn_final_line_recovers_complete_rows(self, db_root):
        """Crash simulation: a partial final append must not poison recovery.

        A crash mid-append leaves the last WAL line incomplete. That insert
        never returned, so the row was never acknowledged — recovery must
        keep every complete row, drop the torn tail, and leave the log in a
        state later appends can extend safely.
        """
        root, db = db_root
        db.insert("orders", [order_row(1), order_row(2)])
        wal = root / "_wal" / "orders.wal"
        complete = wal.read_text()
        # The crash: a third insert torn off mid-JSON, no trailing newline.
        wal.write_text(complete + '{"shipdate": 10, "cust')

        reopened = Database(root)
        assert reopened.pending("orders") == 2
        r = reopened.sql(
            "SELECT custkey FROM orders WHERE shipdate > '1998-12-31'"
        )
        assert sorted(r.rows()) == [(1,), (2,)]
        # The torn bytes were dropped from disk, so post-recovery appends
        # cannot land after a malformed line...
        assert wal.read_text() == complete
        reopened.insert("orders", [order_row(3)])
        # ...and the *next* recovery sees a fully well-formed log.
        assert Database(root).pending("orders") == 3

    def test_final_line_missing_only_its_newline_is_torn(self, db_root):
        """A final line whose bytes parse but whose ``\\n`` never reached
        disk is torn: its append never returned. Kept, the next append
        would join it on one line and every later open would refuse it."""
        root, db = db_root
        db.insert("orders", [order_row(1)])
        db.insert("orders", [order_row(2)])
        wal = root / "_wal" / "orders.wal"
        complete = wal.read_bytes()
        wal.write_bytes(complete[:-1])
        [issue] = db.scrub().issues  # scrub reads the disk, recovers nothing
        assert (issue.line, "torn" in issue.error) == (2, True)

        reopened = Database(root)
        assert reopened.pending("orders") == 1
        assert wal.read_bytes() == complete[:complete.index(b"\n") + 1]
        reopened.insert("orders", [order_row(3)])
        again = Database(root)
        assert again.pending("orders") == 2
        assert again.scrub().clean

    def test_torn_tail_alone_recovers_nothing(self, db_root):
        root, _db = db_root
        wal = root / "_wal" / "orders.wal"
        wal.write_text('{"shipdate": 10, "cust')  # only a torn line
        reopened = Database(root)
        assert reopened.pending("orders") == 0

    def test_mid_file_corruption_still_raises(self, db_root):
        """Only the *final* line may be torn; earlier damage is real."""
        root, db = db_root
        db.insert("orders", [order_row(1)])
        db.insert("orders", [order_row(2)])  # one line per write call
        wal = root / "_wal" / "orders.wal"
        lines = wal.read_text().splitlines()
        lines[0] = lines[0][:-5]  # truncate the FIRST line, keep the rest
        wal.write_text("\n".join(lines) + "\n")
        with pytest.raises(CatalogError, match="corrupt WAL line 1 of 2"):
            Database(root)

    def test_separate_tables_separate_logs(self, db_root):
        root, db = db_root
        db.insert("orders", [order_row(1)])
        db.insert(
            "lineitem",
            [
                {
                    "shipdate": date(1999, 1, 1),
                    "linenum": 1,
                    "quantity": 2,
                    "returnflag": "A",
                }
            ],
        )
        assert (root / "_wal" / "orders.wal").exists()
        assert (root / "_wal" / "lineitem.wal").exists()
        db.merge("orders")
        assert not (root / "_wal" / "orders.wal").exists()
        assert (root / "_wal" / "lineitem.wal").exists()


#: A write-ahead log in the row-per-line format written before each write
#: call became one columnar line: an insert batch as plain row lines, a
#: delete and an update carrying row lists, and an insert torn mid-line.
#: Its first line was already folded in by a merge (``wal_applied`` = 1).
ROW_FORMAT_WAL = """\
{"a": 99, "b": 1}
{"a": 4, "b": 40}
{"a": 5, "b": 50}
{"a": 5, "b": 50}
{"_op": "delete", "stored": [{"a": 1, "b": 10}], "pending": [{"a": 4, "b": 40}]}
{"_op": "update", "stored": [{"a": 2, "b": 20}], "pending": [{"a": 5, "b": 50}], "rows": [{"a": 2, "b": 7}, {"a": 5, "b": 7}]}
{"a": 6, "b\""""


class TestRowFormatLogsStillReplay:
    SCHEMAS = {"a": ColumnSchema("a", INT32), "b": ColumnSchema("b", INT32)}

    def make_db(self, root):
        db = Database(root)
        db.catalog.create_projection(
            "t",
            {"a": np.array([1, 2, 3], np.int32),
             "b": np.array([10, 20, 30], np.int32)},
            schemas=self.SCHEMAS,
            sort_keys=["a"],
            encodings={"a": ["uncompressed"], "b": ["uncompressed"]},
        )
        db.catalog.set_wal_applied("t", 1)
        wal = root / "_wal" / "t.wal"
        wal.write_text(ROW_FORMAT_WAL)
        return db, wal

    @staticmethod
    def rows(columns):
        return sorted(zip(columns["a"].tolist(), columns["b"].tolist()))

    def test_pending_and_deleted_state_recovered(self, tmp_path):
        db, wal = self.make_db(tmp_path / "db")
        # Scrub reads the old shapes: only the torn tail is reported.
        [issue] = db.scrub().issues
        assert (issue.line, "torn" in issue.error) == (7, True)

        reopened = Database(tmp_path / "db")
        delta = reopened.delta
        assert self.rows(delta.columns("t", self.SCHEMAS)) == [
            (2, 7), (5, 7), (5, 50),
        ]
        assert self.rows(delta.deleted_columns("t", self.SCHEMAS)) == [
            (1, 10), (2, 20),
        ]
        # Recovery never rewrites a log: the applied line and its marker
        # stay, and only the torn tail is cut off.
        assert reopened.catalog.wal_applied == {"t": 1}
        assert wal.read_text() == "".join(
            line + "\n" for line in ROW_FORMAT_WAL.splitlines()[:6]
        )
        assert sorted(reopened.query(
            SelectQuery("t", ("a", "b"))
        ).rows()) == [(2, 7), (3, 30), (5, 7), (5, 50)]

    def test_columnar_lines_append_after_row_lines(self, tmp_path):
        self.make_db(tmp_path / "db")
        db = Database(tmp_path / "db")
        db.insert("t", [{"a": 8, "b": 80}])
        db.delete("t", (Predicate("b", "=", 7),))
        reopened = Database(tmp_path / "db")
        assert reopened.pending("t") == 2 + 2  # pending + deleted rows
        assert reopened.scrub().clean
        reopened.merge("t")
        assert sorted(reopened.query(
            SelectQuery("t", ("a", "b"))
        ).rows()) == [(3, 30), (5, 50), (8, 80)]


def lineitem_columns(**overrides):
    """One lineitem row as a columnar WAL side, with *overrides* applied."""
    columns = {"returnflag": [0], "shipdate": [9000], "linenum": [1],
               "quantity": [5]}
    columns.update(overrides)
    return {col: values for col, values in columns.items() if values is not None}


#: WAL records ``lineitem`` cannot hold, each with the decoder's refusal.
#: Each once opened, scrubbed clean (all but ``zz``) and failed later, in
#: reads or writes, naming neither file nor line.
UNHOLDABLE_RECORDS = [
    pytest.param(
        {"_op": "insert", "columns": lineitem_columns(quantity=None)},
        "insert record's 'columns' lacks column(s) ['quantity']",
        id="insert-missing-column",
    ),
    pytest.param(
        {"_op": "insert", "columns": lineitem_columns(linenum=[2**40])},
        "insert record's 'columns' column 'linenum': values of dtype int64 "
        "do not fit column type int32",
        id="int32-overflow",
    ),
    pytest.param(
        {"_op": "insert", "columns": lineitem_columns(quantity=["x"])},
        "insert record's 'columns' column 'quantity' holds values that are "
        "not numbers",
        id="string-in-int-column",
    ),
    pytest.param(
        {"_op": "delete",
         "stored": lineitem_columns(returnflag=[123456789]),
         "pending": {}},
        "delete record's 'stored' column 'returnflag': values of dtype "
        "int64 do not fit column type uint8",
        id="uint8-code-overflow",
    ),
    pytest.param(
        {"_op": "insert", "columns": lineitem_columns(returnflag=[7])},
        "insert record's 'columns' column 'returnflag' holds codes outside "
        "its dictionary of 3 values",
        id="code-outside-dictionary",
    ),
    pytest.param(
        {"_op": "insert", "columns": lineitem_columns(zz=[1])},
        "insert record names unknown column(s) ['zz'] in 'columns'",
        id="unknown-column",
    ),
    pytest.param(
        {"_op": "delete", "stored": lineitem_columns(linenum=None),
         "pending": {}},
        "delete record's 'stored' lacks column(s) ['linenum']",
        id="delete-side-missing-column",
    ),
]


def append_record(root, record):
    wal = root / "_wal" / "lineitem.wal"
    with open(wal, "a", encoding="utf-8") as f:
        f.write(json.dumps(record) + "\n")
    return wal


class TestRecordsTheTableCannotHold:
    """The open refuses a WAL record its table cannot hold, naming the
    file and the line, and leaves the log as it found it."""

    @pytest.mark.parametrize("record, error", UNHOLDABLE_RECORDS)
    def test_open_refuses_naming_file_and_line(self, db_root, record, error):
        root, db = db_root
        db.insert("lineitem", [{"returnflag": "A", "shipdate": 9000,
                                "linenum": 1, "quantity": 2}])
        wal = append_record(root, record)
        before = wal.read_bytes()
        with pytest.raises(CatalogError) as excinfo:
            Database(root)
        assert str(excinfo.value) == (
            f"{wal}: WAL record at line 2 of 2: {error}"
        )
        assert wal.read_bytes() == before

    def test_refusal_counts_lines_past_the_applied_prefix(self, db_root):
        root, db = db_root
        for quantity in (1, 2):
            db.insert("lineitem", [{"returnflag": "A", "shipdate": 9000,
                                    "linenum": 1, "quantity": quantity}])
        append_record(root, {"_op": "compact"})
        db.catalog.set_wal_applied("lineitem", 1)
        with pytest.raises(CatalogError, match="line 3 of 3: unknown WAL "
                           "record op 'compact'"):
            Database(root)

    def test_every_write_shape_replays_to_the_same_snapshot(self, db_root):
        root, db = db_root
        db.insert("lineitem", [
            {"returnflag": flag, "shipdate": 9000 + i, "linenum": 1 + i % 7,
             "quantity": 1 + i % 50}
            for i, flag in enumerate("ANRANR")
        ])
        db.update("lineitem", (Predicate("linenum", "=", 2),),
                  {"quantity": 49, "returnflag": "N"})
        db.delete("lineitem", (Predicate("linenum", "<", 4),))
        db.delete("lineitem", (Predicate("shipdate", "=", 9004),))
        schemas = db.catalog.table_schemas("lineitem")
        written = db.delta.snapshot("lineitem", schemas)
        replayed = Database(root).delta.snapshot("lineitem", schemas)
        for side in ("inserts", "deletes"):
            for col in schemas:
                a = getattr(written, side)[col]
                b = getattr(replayed, side)[col]
                assert (a.dtype, a.tolist()) == (b.dtype, b.tolist()), col
        assert written.n_inserts and written.n_deletes
        assert db.scrub().clean


class TestTableWithoutProjections:
    """A WAL whose table has no projection left has nothing to be typed
    against: the open keeps it on disk, unreplayed, and scrub says so."""

    def test_open_keeps_the_log_and_replays_nothing(self, db_root):
        root, db = db_root
        db.insert("orders", [order_row(1)])
        db.drop_projection("orders")
        wal = root / "_wal" / "orders.wal"
        before = wal.read_bytes()
        reopened = Database(root)
        assert reopened.pending("orders") == 0
        assert reopened.delta.wal_records("orders") == 1
        assert wal.read_bytes() == before
        [issue] = reopened.scrub().issues
        assert (issue.projection, issue.file, issue.line) == (
            "orders", str(wal), None,
        )
        assert "no projection of table 'orders'" in issue.error


class TestDropProjection:
    def test_drop_removes_files_and_catalog_entry(self, db_root):
        _root, db = db_root
        directory = db.projection("orders").directory
        db.drop_projection("orders")
        assert not directory.exists()
        with pytest.raises(CatalogError):
            db.projection("orders")

    def test_drop_unknown(self, db_root):
        _root, db = db_root
        with pytest.raises(CatalogError):
            db.drop_projection("ghost")

    def test_drop_survives_reopen(self, db_root):
        root, db = db_root
        db.drop_projection("customer")
        reopened = Database(root)
        assert "customer" not in reopened.catalog.names()


class TestStorageReport:
    def test_report_structure(self, db_root):
        _root, db = db_root
        report = db.projection("lineitem").storage_report()
        assert set(report) == {"returnflag", "shipdate", "linenum", "quantity"}
        linenum = report["linenum"]
        assert set(linenum) == {"uncompressed", "rle", "bitvector"}
        for enc_stats in linenum.values():
            assert enc_stats["bytes"] > 0
            assert enc_stats["blocks"] >= 1

    def test_rle_compresses_sorted_prefix(self, db_root):
        _root, db = db_root
        report = db.projection("lineitem").storage_report()
        assert report["returnflag"]["rle"]["compression_ratio"] < 0.15
        assert report["returnflag"]["rle"]["avg_run_length"] > 100

    def test_bitvector_ratio_matches_paper(self, db_root):
        _root, db = db_root
        report = db.projection("lineitem").storage_report()
        # 7 distinct LINENUM values over int32: a bit under 25% (paper §4.1).
        assert report["linenum"]["bitvector"]["compression_ratio"] < 0.35
