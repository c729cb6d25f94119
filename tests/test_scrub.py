"""Offline scrubber: checksum, structural, and deep value verification."""

import json

import numpy as np
import pytest

from repro import Database, Predicate, SelectQuery, load_tpch
from repro.cli import main
from repro.dtypes import INT32, INT64, ColumnSchema
from repro.errors import CatalogError, MetadataError
from repro.scrub import scrub_catalog
from repro.storage.column_file import ColumnFile
from repro.storage.stats import ColumnHistogram

from .test_wal_and_catalog_ops import UNHOLDABLE_RECORDS, append_record


def make_db(root, partitions=None, n=50_000):
    db = Database(root)
    rng = np.random.default_rng(4)
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
    return db


def flip_byte(path, offset):
    data = bytearray(path.read_bytes())
    data[offset] ^= 0xFF
    path.write_bytes(bytes(data))


def edit_json(path, edit):
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))


def edit_header(path, edit):
    """Rewrite a column file's JSON header (descriptor offsets are relative
    to the payload area, so the header may change length)."""
    raw = path.read_bytes()
    n = int.from_bytes(raw[8:12], "little")
    header = json.loads(raw[12 : 12 + n])
    edit(header)
    new = json.dumps(header).encode()
    path.write_bytes(raw[:8] + len(new).to_bytes(4, "little") + new
                     + raw[12 + n :])


def make_rows_db(root, projections):
    """One 12,000-row projection per ``(name, partitions, columns)``, each
    column an uncompressed int32 copy of ``0 .. 11,999``."""
    db = Database(root)
    a = np.arange(12_000, dtype=np.int32)
    for name, partitions, columns in projections:
        db.catalog.create_projection(
            name,
            {col: a for col in columns},
            schemas={col: ColumnSchema(col, INT32) for col in columns},
            sort_keys=["a"],
            encodings={col: ["uncompressed"] for col in columns},
            presorted=True,
            partitions=partitions,
        )
    return db


def _pop(key):
    return lambda d: d.pop(key)


def _bump(key):
    return lambda d: d.update({key: d[key] + 1})


def _set(key, value):
    return lambda d: d.update({key: value})


COLUMN = "t/a.uncompressed.col"

#: Metadata damage, one field per case: the file damaged, the edit, the
#: file and field the open's refusal must name. A damaged column header, or
#: a ``projection.json`` whose ``n_rows`` its column files contradict, is
#: refused by the first ``ProjectionColumn.file()``; the rest by the open.
METADATA_PROBES = [
    pytest.param("manifest.json", _set("generation", "x"), "manifest.json",
                 "generation", id="manifest-generation-text"),
    pytest.param("manifest.json", _set("generation", 2.7), "manifest.json",
                 "generation", id="manifest-generation-float"),
    pytest.param("manifest.json", _set("projections", []), "manifest.json",
                 "projections", id="manifest-projections-list"),
    pytest.param("manifest.json", _set("wal_applied", {"t": "abc"}),
                 "manifest.json", "wal_applied.t",
                 id="manifest-wal-applied-text"),
    pytest.param("t/projection.json", _pop("n_rows"), "t/projection.json",
                 "n_rows", id="projection-n-rows-missing"),
    pytest.param("t/projection.json", _bump("n_rows"), COLUMN, "n_values",
                 id="projection-n-rows-plus-one"),
    pytest.param("t/projection.json",
                 lambda d: d["columns"]["a"].update(dtype="int99"),
                 "t/projection.json", "columns.a.dtype",
                 id="projection-dtype-unknown"),
    pytest.param(COLUMN, _pop("n_values"), COLUMN, "n_values",
                 id="header-n-values-missing"),
    pytest.param(COLUMN, _bump("n_values"), COLUMN, "n_values",
                 id="header-n-values-plus-one"),
    pytest.param(COLUMN, _set("encoding", "zstd"), COLUMN, "encoding",
                 id="header-encoding-unknown"),
    pytest.param(COLUMN, _set("histogram", {"common": []}), COLUMN,
                 "histogram", id="header-histogram-truncated"),
    pytest.param(COLUMN, lambda d: d["histogram"].update(
                     edges=[str(e) for e in d["histogram"]["edges"]]),
                 COLUMN, "histogram", id="header-histogram-text-edges"),
]


@pytest.mark.parametrize("damaged, edit, named, field", METADATA_PROBES)
def test_metadata_probe_open_and_scrub_agree(
    tmp_path, damaged, edit, named, field
):
    """The open refuses the damaged field, naming file and field, and
    scrub on a handle opened before the damage reports that message."""
    root = tmp_path / "db"
    make_rows_db(root, [("t", 1, ["a"])])
    db = Database(root)
    path = root / damaged
    (edit_header if path.suffix == ".col" else edit_json)(path, edit)
    with pytest.raises(MetadataError) as caught:
        reopened = Database(root)
        assert named == COLUMN  # only a column file's check waits
        reopened.projection("t").column("a").file("uncompressed")
    message = str(caught.value)
    assert message.startswith(f"{root / named}: ")
    assert f"field {field!r} " in message
    assert [issue.error for issue in db.scrub().issues] == [message]


def test_histogram_of_one_huge_residual_value_reopens(tmp_path):
    """A residual of one value at or above 2**53, where ``v + 1.0 == v``,
    still gets two distinct edges, and the store opens and scrubs clean."""
    values = np.array([0] * 199 + [10**16], dtype=np.int64)
    Database(tmp_path / "db").catalog.create_projection(
        "t", {"a": values}, schemas={"a": ColumnSchema("a", INT64)},
        sort_keys=["a"], encodings={"a": ["uncompressed"]}, presorted=True,
    )
    reopened = Database(tmp_path / "db")
    column = reopened.projection("t").column("a").file("uncompressed")
    assert column.histogram.edges[0] < column.histogram.edges[-1]
    assert reopened.scrub(deep=True).clean
    # Files written with equal edges before the fix still decode.
    written = dict(column.histogram.to_json(), edges=[1e16, 1e16])
    assert ColumnHistogram.from_json(written).estimate(
        Predicate("a", "<", 10**16)) == pytest.approx(199 / 200)


class TestScrubAPI:
    def test_clean_store_scrubs_clean(self, tmp_path):
        db = make_db(tmp_path / "db")
        report = db.scrub(deep=True)
        assert report.clean
        assert report.projections_scanned == 1
        # 2 column files, the manifest and the query log's one segment
        assert report.files_scanned == 4
        assert report.blocks_scanned > 0
        assert report.to_json()["issues"] == []

    def test_checksum_damage_names_file_and_block(self, tmp_path):
        db = make_db(tmp_path / "db")
        path = db.projection("t").column("b").files["uncompressed"]
        target = ColumnFile.open(path).descriptors[1]
        flip_byte(path, target.offset + 7)
        report = Database(tmp_path / "db").scrub()
        assert not report.clean
        assert len(report.issues) == 1
        issue = report.issues[0]
        assert issue.file == str(path)
        assert issue.block == 1
        assert issue.column == "b"
        assert "checksum" in issue.error

    def test_scrub_never_raises_and_finds_all_damage(self, tmp_path):
        db = make_db(tmp_path / "db")
        for col, block in (("a", 0), ("b", 2)):
            path = db.projection("t").column(col).files["uncompressed"]
            d = ColumnFile.open(path).descriptors[block]
            flip_byte(path, d.offset + 3)
        report = Database(tmp_path / "db").scrub()
        assert {(i.column, i.block) for i in report.issues} == {
            ("a", 0), ("b", 2),
        }

    def test_truncated_file_reported_structurally(self, tmp_path):
        db = make_db(tmp_path / "db")
        path = db.projection("t").column("b").files["uncompressed"]
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 1000])
        report = Database(tmp_path / "db").scrub()
        assert not report.clean
        assert any("file holds only" in i.error for i in report.issues)

    def test_unopenable_file_reported(self, tmp_path):
        db = make_db(tmp_path / "db")
        path = db.projection("t").column("a").files["uncompressed"]
        path.write_bytes(b"NOTACOL!" + b"\x00" * 64)
        report = Database(tmp_path / "db").scrub()
        assert any(
            "cannot open column file" in i.error for i in report.issues
        )

    def test_deep_catches_damage_checksums_cannot_see(self, tmp_path):
        # A legacy block (no stored CRC) whose payload was swapped for
        # equally-sized garbage passes the shallow length check; only
        # deep=True decodes it and sees the values escape the descriptor's
        # min/max bounds.
        db = make_db(tmp_path / "db")
        path = db.projection("t").column("b").files["uncompressed"]
        cf = ColumnFile.open(path)
        d = cf.descriptors[0]
        forged = np.full(d.n_values, 10**6, dtype=np.int32).tobytes()
        assert len(forged) == d.nbytes
        data = bytearray(path.read_bytes())
        data[d.offset : d.offset + d.nbytes] = forged
        # Strip the block's CRC the way pre-checksum files look on disk.
        header_len = int.from_bytes(data[8:12], "little")
        header = json.loads(bytes(data[12 : 12 + header_len]).decode())
        header["blocks"][0].pop("crc32", None)
        new_header = json.dumps(header).encode()
        padded = new_header + b" " * (header_len - len(new_header))
        path.write_bytes(
            bytes(data[:12]) + padded + bytes(data[12 + header_len :])
        )

        shallow = Database(tmp_path / "db").scrub()
        assert shallow.clean
        deep = Database(tmp_path / "db").scrub(deep=True)
        assert not deep.clean
        assert any("escape the descriptor bounds" in i.error
                   for i in deep.issues)

    def test_partitioned_store_scrubbed_per_child(self, tmp_path):
        db = make_db(tmp_path / "db", partitions=4)
        report = db.scrub()
        assert report.clean
        # 8 partition column files, the manifest, the query-log segment
        assert report.files_scanned == 10
        part = db.projection("t").partitions[2]
        path = part.open().column("a").files["uncompressed"]
        d = ColumnFile.open(path).descriptors[0]
        flip_byte(path, d.offset + 1)
        report = Database(tmp_path / "db").scrub()
        assert len(report.issues) == 1
        assert report.issues[0].partition == "part0002"

    def test_scrub_bypasses_fault_injector(self, tmp_path):
        # The scrubber verifies disk bytes, not the injected schedule.
        from repro import FaultInjector, FaultRule

        make_db(tmp_path / "db")
        injector = FaultInjector([FaultRule(kind="corrupt")], seed=0)
        db = Database(tmp_path / "db", fault_injector=injector)
        report = db.scrub(deep=True)
        assert report.clean
        assert injector.injected["corrupt"] == 0


class TestScrubCLI:
    def test_clean_exit_zero(self, tmp_path, capsys):
        make_db(tmp_path / "db")
        assert main(["scrub", str(tmp_path / "db")]) == 0
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert report["clean"] is True
        assert "scrubbed 1 projections" in captured.err

    def test_damage_exits_nonzero_and_names_block(self, tmp_path, capsys):
        db = make_db(tmp_path / "db")
        path = db.projection("t").column("b").files["uncompressed"]
        d = ColumnFile.open(path).descriptors[1]
        flip_byte(path, d.offset + 5)
        assert main(["scrub", str(tmp_path / "db"), "--deep"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["clean"] is False
        [issue] = report["issues"]
        assert issue["file"] == str(path)
        assert issue["block"] == 1

    def test_quiet_suppresses_summary(self, tmp_path, capsys):
        make_db(tmp_path / "db")
        assert main(["scrub", str(tmp_path / "db"), "--quiet"]) == 0
        assert capsys.readouterr().err == ""

    def test_root_that_cannot_open_is_reported(self, tmp_path, capsys):
        make_db(tmp_path / "db")
        edit_json(tmp_path / "db" / "t" / "projection.json", _pop("n_rows"))
        with pytest.raises(MetadataError) as caught:
            Database(tmp_path / "db")
        assert main(["scrub", str(tmp_path / "db"), "--quiet"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert [i["error"] for i in report["issues"]] == [str(caught.value)]


class TestScrubWritePath:
    def wal_path(self, root):
        return root / "db" / "_wal" / "t.wal"

    def test_orphaned_staging_dir_reported(self, tmp_path):
        db = make_db(tmp_path / "db")
        (tmp_path / "db" / "tmp-7-t").mkdir()
        report = db.scrub()  # reopening would garbage-collect the debris
        assert not report.clean
        [issue] = report.issues
        assert issue.projection == "(catalog)"
        assert "orphaned staging" in issue.error
        assert issue.to_json()["line"] is None

    def test_missing_manifest_reported(self, tmp_path):
        make_db(tmp_path / "db")
        db = Database(tmp_path / "db")  # keep the open handle's view
        (tmp_path / "db" / "manifest.json").unlink()
        report = db.scrub()
        assert any("manifest missing" in i.error for i in report.issues)

    def test_corrupt_manifest_reported(self, tmp_path):
        make_db(tmp_path / "db")
        db = Database(tmp_path / "db")
        (tmp_path / "db" / "manifest.json").write_text("{nope")
        report = db.scrub()
        assert any("corrupt catalog manifest" in i.error
                   for i in report.issues)

    def test_manifest_naming_missing_projection_dir(self, tmp_path):
        make_db(tmp_path / "db")
        db = Database(tmp_path / "db")
        path = tmp_path / "db" / "manifest.json"
        data = json.loads(path.read_text())
        data["projections"]["ghost"] = "ghost"
        path.write_text(json.dumps(data))
        report = db.scrub()
        [issue] = [i for i in report.issues if i.projection == "ghost"]
        assert "metadata is missing" in issue.error

    def test_torn_final_wal_line_is_recoverable(self, tmp_path):
        # Scrub the damaged bytes directly, before recovery rewrites them.
        db = make_db(tmp_path / "db")
        db.insert("t", [{"a": 1, "b": 2}])
        db.insert("t", [{"a": 3, "b": 4}])  # one line per write call
        wal = self.wal_path(tmp_path)
        wal.write_bytes(wal.read_bytes()[:-6])
        report = db.scrub()
        [issue] = [i for i in report.issues if "torn" in i.error]
        assert issue.projection == "t"
        assert issue.line == 2
        assert "recoverable" in issue.error
        # Recovery then drops the torn tail and the store scrubs clean.
        assert Database(tmp_path / "db").scrub().clean

    def test_mid_file_wal_corruption_names_line(self, tmp_path):
        db = make_db(tmp_path / "db")
        db.insert("t", [{"a": 1, "b": 2}])
        db.insert("t", [{"a": 3, "b": 4}])
        wal = self.wal_path(tmp_path)
        lines = wal.read_text().splitlines()
        lines[0] = "{broken"
        wal.write_text("\n".join(lines) + "\n")
        report = db.scrub()
        with pytest.raises(CatalogError) as refused:
            Database(tmp_path / "db")
        # Scrub reports the open's refusal in the open's words.
        [issue] = report.issues
        assert (issue.file, issue.line) == (str(wal), 1)
        assert issue.error == str(refused.value)
        assert "corrupt WAL line 1 of 2" in issue.error

    def test_query_log_refusal_reported_as_the_open_raises(self, tmp_path):
        root = tmp_path / "db"
        db = make_db(root)
        for value in (10, 20, 30):
            db.query(SelectQuery("t", ("a",),
                                 predicates=(Predicate("a", "<", value),)))
        db.close()
        [segment] = sorted((root / "_qlog").glob("qlog-*.jsonl"))
        lines = segment.read_bytes().split(b"\n")
        # Two lines joined: what an append after an unterminated final
        # line would leave.
        lines[2:4] = [lines[2] + lines[3]]
        segment.write_bytes(b"\n".join(lines))
        with pytest.raises(CatalogError) as refused:
            Database(root)
        [issue] = scrub_catalog(root).issues
        assert (issue.projection, issue.file, issue.line) == (
            "(catalog)", str(segment), 3,
        )
        assert issue.error == str(refused.value)
        assert "corrupt query-log line 3 of" in issue.error

    def test_missing_or_empty_query_log_is_no_issue(self, tmp_path):
        root = tmp_path / "db"
        make_db(root).close()
        for segment in (root / "_qlog").glob("qlog-*.jsonl"):
            segment.unlink()
        assert scrub_catalog(root).clean
        (root / "_qlog").rmdir()
        assert scrub_catalog(root).clean

    def test_unknown_wal_op_reported(self, tmp_path):
        db = make_db(tmp_path / "db")
        db.insert("t", [{"a": 1, "b": 2}])
        wal = self.wal_path(tmp_path)
        with open(wal, "a") as f:
            f.write(json.dumps({"_op": "compact"}) + "\n")
        report = db.scrub()
        [issue] = [i for i in report.issues if "unknown WAL record" in i.error]
        assert issue.line == 2
        assert "'compact'" in issue.error

    @pytest.mark.parametrize("record, error", [
        ({"_op": "insert", "columns": {"a": [1, 2], "b": [3]}},
         "'columns' columns are not lists of one length"),
        ({"_op": "insert", "columns": {"a": [1], "zz": [3]}},
         "unknown column(s) ['zz'] in 'columns'"),
        ({"_op": "insert", "columns": {"a": 1, "b": 2}},
         "not lists of one length"),
        ({"_op": "insert"}, "insert record carries none of"),
        ({"_op": "delete", "stored": {"a": [1], "b": [2]},
          "pending": {"a": [1, 2], "b": [3]}},
         "'pending' columns are not lists of one length"),
        ({"_op": "update", "stored": {"a": [1], "b": [2]},
          "pending": {"a": [], "b": []}, "assignments": {"c": 1}},
         "unknown column(s) ['c'] in 'assignments'"),
        ({"_op": "update", "stored": {"a": [1], "b": [2]},
          "pending": {"a": [], "b": []}},
         "update record carries none of"),
        ({"_op": "delete", "stored": [{"a": 1, "b": 2}, {"a": 3}]},
         "'stored' columns are not lists of one length"),
        ({"_op": "delete", "pending": [{"a": 1, "b": 2, "c": 3}]},
         "unknown column(s) ['c'] in 'pending'"),
        ({"a": 1}, "insert record's 'row' lacks column(s) ['b']"),
    ])
    def test_malformed_columnar_record_names_file_and_line(
        self, tmp_path, record, error
    ):
        db = make_db(tmp_path / "db")
        db.insert("t", [{"a": 1, "b": 2}])
        wal = self.wal_path(tmp_path)
        with open(wal, "a") as f:
            f.write(json.dumps(record) + "\n")
        [issue] = db.scrub().issues
        assert (issue.file, issue.line) == (str(wal), 2)
        assert error in issue.error

    @pytest.mark.parametrize("record, error", UNHOLDABLE_RECORDS)
    def test_record_the_table_cannot_hold_is_one_issue(
        self, tmp_path, record, error
    ):
        """Scrub reports what the open refuses, with the decoder's words."""
        db = Database(tmp_path / "db")
        load_tpch(db.catalog, scale=0.001, seed=2)
        db.insert("lineitem", [{"returnflag": "A", "shipdate": 9000,
                                "linenum": 1, "quantity": 2}])
        wal = append_record(tmp_path / "db", record)
        [issue] = db.scrub().issues
        assert (issue.projection, issue.file, issue.line, issue.error) == (
            "lineitem", str(wal), 2, error,
        )

    def test_well_formed_write_calls_scrub_clean(self, tmp_path):
        db = make_db(tmp_path / "db")
        db.insert("t", [{"a": 1, "b": 2}, {"a": 3, "b": 4}])
        db.update("t", (Predicate("a", "=", 1),), {"b": 9})
        db.delete("t", (Predicate("a", "=", 3),))
        assert db.scrub().clean

    def test_marker_exceeding_wal_records_reported(self, tmp_path):
        db = make_db(tmp_path / "db")
        db.insert("t", [{"a": 1, "b": 2}])
        db.catalog.set_wal_applied("t", 5)  # a stale marker, committed
        report = db.scrub()
        assert any("marker is 5" in i.error for i in report.issues)


def test_partition_row_count_mismatch_survives_other_damage(tmp_path):
    """A parent's ``n_rows`` against its partitions' is the open's check,
    so a checksum failure in another projection cannot hide it."""
    root = tmp_path / "db"
    db = make_rows_db(root, [("aa", 1, ["a", "b"]), ("p", 4, ["a", "b"])])
    edit_json(root / "p" / "projection.json",
              lambda d: d.update(n_rows=12_005))
    with pytest.raises(MetadataError) as caught:
        Database(root)
    assert "'n_rows' is 12005 but its partitions hold 12000 rows" in str(
        caught.value
    )
    path = root / "aa" / "b.uncompressed.col"
    flip_byte(path, ColumnFile.open(path).descriptors[0].offset + 1)
    errors = [issue.error for issue in db.scrub().issues]
    assert len(errors) == 2
    assert str(caught.value) in errors
    assert any("checksum" in error for error in errors)


class TestZoneMapDeepVerify:
    def test_divergent_zone_map_reported_deep_only(self, tmp_path):
        db = make_db(tmp_path / "db", partitions=4)
        proj = db.projection("t")
        part = proj.partitions[1]
        forged = part.zone_maps["a"].__class__(min_value=10**7,
                                              max_value=10**7 + 1)
        part.zone_maps["a"] = forged
        proj._write_meta()
        db2 = Database(tmp_path / "db")
        assert db2.scrub().clean  # shallow never decodes values
        deep = db2.scrub(deep=True)
        zone = [i for i in deep.issues if "zone map" in i.error]
        assert zone and zone[0].partition == "part0001"
        assert "but the partition holds" in zone[0].error
