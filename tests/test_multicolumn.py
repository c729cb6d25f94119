"""Unit tests for mini-columns and multi-columns."""

import numpy as np
import pytest

from repro.dtypes import INT32
from repro.errors import ExecutionError
from repro.multicolumn import MiniColumn, MultiColumn
from repro.positions import BitmapPositions, RangePositions
from repro.storage import encoding_by_name, write_column


@pytest.fixture
def pinned_column(tmp_path):
    rng = np.random.default_rng(31)
    values = np.sort(rng.integers(0, 30, size=80_000)).astype(np.int32)
    cf = write_column(
        tmp_path / "x.col", values, INT32, encoding_by_name("rle"), column_name="x"
    )
    mini = MiniColumn(cf)
    for desc in cf.descriptors:
        mini.pin(desc, cf.read_payload(desc.index))
    return values, cf, mini


class TestMiniColumn:
    def test_gather_across_blocks(self, pinned_column):
        values, cf, mini = pinned_column
        picks = np.array([0, 17, 40_000, 79_999], dtype=np.int64)
        assert np.array_equal(mini.gather(picks), values[picks])

    def test_gather_empty(self, pinned_column):
        _values, _cf, mini = pinned_column
        assert len(mini.gather(np.empty(0, dtype=np.int64))) == 0

    def test_has_block(self, pinned_column):
        _values, cf, mini = pinned_column
        assert mini.has_block(0)
        assert not mini.has_block(cf.n_blocks + 5)
        assert mini.block_count() == cf.n_blocks
        assert mini.column == "x"


class TestMultiColumn:
    def test_degree_and_attach(self, pinned_column):
        _values, cf, mini = pinned_column
        mc = MultiColumn(0, cf.n_values, RangePositions(0, cf.n_values))
        assert mc.degree == 0
        mc.attach(mini)
        assert mc.degree == 1
        assert mc.minicolumn("x") is mini

    def test_missing_minicolumn_raises(self):
        mc = MultiColumn(0, 10, RangePositions(0, 10))
        with pytest.raises(ExecutionError):
            mc.minicolumn("nope")

    def test_intersect_merges_minicolumns_and_descriptors(self, pinned_column):
        _values, cf, mini = pinned_column
        n = cf.n_values
        left = MultiColumn(0, n, RangePositions(0, 1000), {"x": mini})
        mask = np.zeros(n, dtype=bool)
        mask[500:1500] = True
        right = MultiColumn(
            0, n, BitmapPositions.from_mask(0, mask), {}
        )
        out = left.intersect(right)
        assert out.degree == 1
        assert out.valid_count() == 500
        assert sorted(out.descriptor.to_array().tolist()) == list(range(500, 1000))
