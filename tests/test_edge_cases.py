"""Edge-case tests across modules: boundaries, degenerate inputs, LRU order."""

import numpy as np
import pytest

from repro import Database, Predicate, SelectQuery, Strategy
from repro.buffer import BufferPool, DiskModel
from repro.dtypes import INT32, ColumnSchema
from repro.metrics import QueryStats
from repro.positions import (
    BitmapPositions,
    ListedPositions,
    RangePositions,
    from_mask,
)
from repro.storage import encoding_by_name, write_column


class TestBitmapWordBoundaries:
    @pytest.mark.parametrize("nbits", [1, 63, 64, 65, 127, 128, 129])
    def test_roundtrip_at_word_edges(self, nbits):
        rng = np.random.default_rng(nbits)
        mask = rng.random(nbits) < 0.5
        bm = BitmapPositions.from_mask(0, mask)
        assert np.array_equal(bm.local_mask(), mask)
        assert bm.count() == int(mask.sum())

    @pytest.mark.parametrize("nbits", [63, 64, 65])
    def test_last_bit_set(self, nbits):
        mask = np.zeros(nbits, dtype=bool)
        mask[-1] = True
        bm = BitmapPositions.from_mask(10, mask)
        assert bm.to_array().tolist() == [10 + nbits - 1]
        assert bm.contains(10 + nbits - 1)
        assert not bm.contains(10 + nbits)

    def test_intersection_at_word_edge(self):
        a = BitmapPositions.from_mask(0, np.ones(65, dtype=bool))
        mask = np.zeros(65, dtype=bool)
        mask[64] = True
        b = BitmapPositions.from_mask(0, mask)
        assert a.intersect(b).to_array().tolist() == [64]


class TestPositionDegenerates:
    def test_empty_range_operations(self):
        empty = RangePositions.empty()
        assert empty.intersect(RangePositions(0, 10)).is_empty()
        assert empty.union(RangePositions(3, 5)).to_array().tolist() == [3, 4]
        assert list(empty.runs()) == []
        assert empty.to_mask(0, 4).tolist() == [False] * 4

    def test_empty_listed(self):
        empty = ListedPositions.empty()
        assert empty.bounds() is None
        assert empty.restrict(0, 100).is_empty()
        assert not empty.contains(0)

    def test_single_position_everywhere(self):
        for ps in (
            RangePositions(5, 6),
            ListedPositions(np.array([5])),
            BitmapPositions.from_mask(5, np.array([True])),
        ):
            assert ps.count() == 1
            assert ps.bounds() == (5, 5)
            assert list(ps.runs()) == [(5, 6)]

    def test_from_mask_all_true(self):
        out = from_mask(7, np.ones(100, dtype=bool))
        assert isinstance(out, RangePositions)
        assert (out.start, out.stop) == (7, 107)


class TestBufferPoolLRU:
    @pytest.fixture
    def column(self, tmp_path):
        values = np.arange(100_000, dtype=np.int32)  # 7 blocks
        return write_column(
            tmp_path / "c.col", values, INT32, encoding_by_name("uncompressed")
        )

    def test_recency_protects_blocks(self, column):
        block = len(column.read_payload(0))
        pool = BufferPool(capacity_bytes=3 * block)
        stats = QueryStats()
        pool.get(column, 0, stats)
        pool.get(column, 1, stats)
        pool.get(column, 2, stats)
        pool.get(column, 0, stats)  # refresh block 0
        pool.get(column, 3, stats)  # evicts LRU = block 1
        reads_before = stats.block_reads
        pool.get(column, 0, stats)  # still resident
        assert stats.block_reads == reads_before
        pool.get(column, 1, stats)  # was evicted
        assert stats.block_reads == reads_before + 1

    def test_prefetch_stops_at_file_end(self, column):
        pool = BufferPool(disk=DiskModel(prefetch_blocks=100))
        stats = QueryStats()
        pool.get(column, column.n_blocks - 2, stats)
        assert stats.block_reads == 2  # only 2 blocks remained

    def test_pool_never_evicts_below_one_block(self, column):
        block = len(column.read_payload(0))
        pool = BufferPool(capacity_bytes=block // 2)
        stats = QueryStats()
        payload = pool.get(column, 0, stats)
        assert len(payload) == block
        assert len(pool) == 1


class TestDegenerateProjections:
    def test_single_row_projection(self, tmp_path):
        db = Database(tmp_path / "db")
        db.catalog.create_projection(
            "one",
            {"v": np.array([42], dtype=np.int32)},
            schemas={"v": ColumnSchema("v", INT32)},
            sort_keys=["v"],
            encodings={"v": ["rle", "uncompressed", "bitvector"]},
        )
        for strategy in Strategy:
            r = db.query(
                SelectQuery(
                    projection="one",
                    select=("v",),
                    predicates=(Predicate("v", "=", 42),),
                ),
                strategy=strategy,
                cold=True,
            )
            assert r.rows() == [(42,)]

    def test_all_identical_values(self, tmp_path):
        db = Database(tmp_path / "db")
        db.catalog.create_projection(
            "same",
            {"v": np.full(50_000, 9, dtype=np.int32)},
            schemas={"v": ColumnSchema("v", INT32)},
            sort_keys=["v"],
            encodings={"v": ["rle", "bitvector", "dictionary", "for"]},
        )
        for encoding in ("rle", "bitvector", "dictionary", "for"):
            r = db.query(
                SelectQuery(
                    projection="same",
                    select=("v",),
                    predicates=(Predicate("v", "=", 9),),
                    encodings=(("v", encoding),),
                ),
                strategy="lm-parallel",
                cold=True,
            )
            assert r.n_rows == 50_000

    def test_extreme_values(self, tmp_path):
        from repro.dtypes import INT64

        db = Database(tmp_path / "db")
        lo, hi = np.iinfo(np.int64).min + 1, np.iinfo(np.int64).max - 1
        db.catalog.create_projection(
            "extreme",
            {"v": np.array([lo, 0, hi], dtype=np.int64)},
            schemas={"v": ColumnSchema("v", INT64)},
            sort_keys=["v"],
            encodings={"v": ["uncompressed"]},
        )
        r = db.query(
            SelectQuery(
                projection="extreme",
                select=("v",),
                predicates=(Predicate("v", ">", 0),),
            ),
            strategy="em-parallel",
        )
        assert r.rows() == [(hi,)]


class TestStrategiesEnum:
    def test_from_name_variants(self):
        assert Strategy.from_name("LM_PARALLEL") is Strategy.LM_PARALLEL
        assert Strategy.from_name(" em-pipelined ") is Strategy.EM_PIPELINED

    def test_bad_name(self):
        with pytest.raises(ValueError):
            Strategy.from_name("middle-out")


class TestEngineMisc:
    def test_resident_fraction_used_for_auto(self, tpch_db):
        query = SelectQuery(
            projection="lineitem",
            select=("linenum",),
            predicates=(Predicate("linenum", "<", 3),),
        )
        # Warm then auto: should not raise and should pick something valid.
        tpch_db.query(query, strategy="em-parallel")
        r = tpch_db.query(query, strategy="auto")
        assert r.strategy in {s.value for s in Strategy}

    def test_stats_are_per_query(self, tpch_db):
        a = tpch_db.sql("SELECT linenum FROM lineitem WHERE linenum = 1")
        b = tpch_db.sql("SELECT linenum FROM lineitem WHERE linenum = 1")
        assert a.stats is not b.stats

    def test_query_result_repr_fields(self, tpch_db):
        r = tpch_db.sql("SELECT linenum FROM lineitem LIMIT 1")
        assert r.n_rows == 1
        assert isinstance(r.simulated_ms, float)
        assert r.tuples.columns == ("linenum",)
