"""Unit tests for the column file format."""

import numpy as np
import pytest

from repro.dtypes import INT32
from repro.errors import StorageError
from repro.storage import ColumnFile, encoding_by_name, write_column


@pytest.fixture
def sorted_values():
    rng = np.random.default_rng(11)
    return np.sort(rng.integers(0, 40, size=120_000)).astype(np.int32)


class TestWriteOpen:
    def test_open_matches_write_metadata(self, tmp_path, sorted_values):
        path = tmp_path / "col.rle.col"
        written = write_column(
            path, sorted_values, INT32, encoding_by_name("rle"), column_name="c"
        )
        opened = ColumnFile.open(path)
        assert opened.column == "c"
        assert opened.n_values == written.n_values == len(sorted_values)
        assert opened.n_blocks == written.n_blocks
        assert opened.encoding.name == "rle"
        assert opened.ctype is INT32
        assert opened.total_runs == written.total_runs == 40

    def test_payload_roundtrip(self, tmp_path, sorted_values):
        path = tmp_path / "col.unc.col"
        write_column(path, sorted_values, INT32, encoding_by_name("uncompressed"))
        cf = ColumnFile.open(path)
        decoded = np.concatenate(
            [
                cf.encoding.decode(cf.read_payload(d.index), d, cf.dtype)
                for d in cf.descriptors
            ]
        )
        assert np.array_equal(decoded, sorted_values)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bogus.col"
        path.write_bytes(b"NOTACOLFILE")
        with pytest.raises(StorageError):
            ColumnFile.open(path)

    def test_avg_run_length(self, tmp_path, sorted_values):
        path = tmp_path / "col.rle.col"
        cf = write_column(path, sorted_values, INT32, encoding_by_name("rle"))
        assert cf.avg_run_length == pytest.approx(len(sorted_values) / 40)

    def test_avg_run_length_uncompressed_is_one(self, tmp_path, sorted_values):
        path = tmp_path / "col.unc.col"
        cf = write_column(
            path, sorted_values, INT32, encoding_by_name("uncompressed")
        )
        assert cf.avg_run_length == 1.0

    def test_empty_column(self, tmp_path):
        path = tmp_path / "empty.col"
        cf = write_column(
            path,
            np.empty(0, dtype=np.int32),
            INT32,
            encoding_by_name("uncompressed"),
        )
        assert cf.n_blocks == 0
        assert ColumnFile.open(path).n_values == 0

    def test_size_bytes_positive(self, tmp_path, sorted_values):
        path = tmp_path / "col.unc.col"
        cf = write_column(
            path, sorted_values, INT32, encoding_by_name("uncompressed")
        )
        assert cf.size_bytes() > sorted_values.nbytes
