"""Unit tests for the disk model and buffer pool."""

import numpy as np
import pytest

from repro.buffer import BufferPool, DiskModel
from repro.dtypes import INT32
from repro.metrics import QueryStats
from repro.storage import encoding_by_name, write_column


@pytest.fixture
def column(tmp_path):
    values = np.arange(100_000, dtype=np.int32)  # 7 uncompressed blocks
    return write_column(
        tmp_path / "c.col", values, INT32, encoding_by_name("uncompressed")
    )


class TestDiskModel:
    def test_sequential_read_charges_read_only(self):
        disk = DiskModel()
        stats = QueryStats()
        disk.charge_read(stats, sequential=True)
        assert stats.block_reads == 1
        assert stats.disk_seeks == 0
        assert stats.simulated_io_us == disk.read_us

    def test_random_read_charges_seek(self):
        disk = DiskModel()
        stats = QueryStats()
        disk.charge_read(stats, sequential=False)
        assert stats.disk_seeks == 1
        assert stats.simulated_io_us == disk.read_us + disk.seek_us

    def test_totals_accumulate(self):
        disk = DiskModel()
        stats = QueryStats()
        disk.charge_read(stats, sequential=False)
        disk.charge_read(stats, sequential=True)
        assert disk.total_reads == 2
        assert disk.total_seeks == 1
        disk.reset()
        assert disk.total_reads == 0


class TestBufferPool:
    def test_miss_then_hit(self, column):
        pool = BufferPool()
        stats = QueryStats()
        first = pool.get(column, 0, stats)
        assert stats.block_reads == 1
        second = pool.get(column, 0, stats)
        assert second == first
        assert stats.buffer_hits == 1
        assert stats.block_reads == 1  # no extra read

    def test_sequential_scan_one_seek(self, column):
        pool = BufferPool()
        stats = QueryStats()
        for i in range(column.n_blocks):
            pool.get(column, i, stats)
        assert stats.block_reads == column.n_blocks
        assert stats.disk_seeks == 1  # only the first read moves the head

    def test_random_access_seeks_every_time(self, column):
        pool = BufferPool()
        stats = QueryStats()
        for i in (4, 0, 5, 2):
            pool.get(column, i, stats)
        assert stats.disk_seeks == 4

    def test_prefetch_window(self, column):
        pool = BufferPool(disk=DiskModel(prefetch_blocks=4))
        stats = QueryStats()
        pool.get(column, 0, stats)
        # One request faulted the whole window: 4 reads, 1 seek.
        assert stats.block_reads == 4
        assert stats.disk_seeks == 1
        pool.get(column, 1, stats)
        pool.get(column, 2, stats)
        assert stats.buffer_hits == 2

    def test_eviction_under_pressure(self, column):
        block_size = len(column.read_payload(0))
        pool = BufferPool(capacity_bytes=2 * block_size)
        stats = QueryStats()
        for i in range(column.n_blocks):
            pool.get(column, i, stats)
        assert pool.resident_bytes <= 2 * block_size + block_size
        # Early blocks were evicted; re-reading them is a miss again.
        before = stats.block_reads
        pool.get(column, 0, stats)
        assert stats.block_reads == before + 1

    def test_resident_fraction(self, column):
        pool = BufferPool()
        stats = QueryStats()
        assert pool.resident_fraction(column) == 0.0
        for i in range(column.n_blocks):
            pool.get(column, i, stats)
        assert pool.resident_fraction(column) == 1.0

    def test_clear(self, column):
        pool = BufferPool()
        stats = QueryStats()
        pool.get(column, 0, stats)
        pool.clear()
        assert len(pool) == 0
        pool.get(column, 0, stats)
        assert stats.block_reads == 2

    def test_prefetch_over_resident_block_stays_sequential(self, column):
        """A resident block inside the prefetch window must still advance the
        head position; otherwise the next fault is misclassified as random
        and overcharges a SEEK the model never intended."""
        pool = BufferPool(disk=DiskModel(prefetch_blocks=1))
        stats = QueryStats()
        pool.get(column, 2, stats)  # seek + read; block 2 now resident
        pool.disk.prefetch_blocks = 3
        # Faulting block 0 prefetches 0..2; block 2 is already resident, so
        # only two reads happen, but the head still ends up past block 2.
        pool.get(column, 0, stats)
        assert stats.block_reads == 3
        assert stats.disk_seeks == 2
        # The next fault continues the sequential run: its window (3..5)
        # reads three more blocks under the same head position, no seek.
        pool.get(column, 3, stats)
        assert stats.block_reads == 6
        assert stats.disk_seeks == 2

    def test_resident_fraction_partial_and_after_eviction(self, column):
        pool = BufferPool()
        stats = QueryStats()
        pool.get(column, 0, stats)
        pool.get(column, 3, stats)
        assert pool.resident_fraction(column) == 2 / column.n_blocks
        # Per-path counts track evictions too: squeeze the pool and check
        # the counter agrees with the actual cache contents.
        block_size = len(column.read_payload(0))
        small = BufferPool(capacity_bytes=2 * block_size)
        for i in range(column.n_blocks):
            small.get(column, i, stats)
        assert small.resident_fraction(column) == len(small) / column.n_blocks

    def test_resident_fraction_distinguishes_paths(self, column, tmp_path):
        other = write_column(
            tmp_path / "d.col",
            np.arange(50_000, dtype=np.int32),
            INT32,
            encoding_by_name("uncompressed"),
        )
        pool = BufferPool()
        stats = QueryStats()
        for i in range(column.n_blocks):
            pool.get(column, i, stats)
        assert pool.resident_fraction(column) == 1.0
        assert pool.resident_fraction(other) == 0.0

    def test_contains_does_not_touch_lru(self, column):
        block_size = len(column.read_payload(0))
        pool = BufferPool(capacity_bytes=2 * block_size)
        stats = QueryStats()
        pool.get(column, 0, stats)
        pool.get(column, 1, stats)
        assert pool.contains(str(column.path), 0)
        assert not pool.contains(str(column.path), 5)
        # contains() must not refresh block 0, so block 0 (LRU-first) is
        # still the one evicted when block 2 arrives.
        pool.get(column, 2, stats)
        assert not pool.contains(str(column.path), 0)
        assert pool.contains(str(column.path), 1)
