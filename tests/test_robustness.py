"""Robustness: pinned payloads vs pool eviction, catalog ops, dtype edges."""

import numpy as np
import pytest

from repro import Database, Predicate, SelectQuery, Strategy
from repro.dtypes import INT32, UINT8, ColumnSchema
from repro.errors import EncodingError
from repro.storage.block import BLOCK_SIZE

from .reference import canonical, reference_select


class TestPinnedPayloadsSurviveEviction:
    def test_lm_correct_with_pool_smaller_than_column(self, tmp_path):
        """Mini-columns hold payload references, so LM extraction stays
        correct even when the buffer pool has evicted every block between
        the scan and the extraction."""
        rng = np.random.default_rng(17)
        n = 300_000  # ~19 uncompressed int32 blocks
        a = np.sort(rng.integers(0, 1000, size=n)).astype(np.int32)
        b = rng.integers(0, 50, size=n).astype(np.int32)
        db = Database(tmp_path / "db", pool_capacity_bytes=2 * BLOCK_SIZE)
        db.catalog.create_projection(
            "big",
            {"a": a, "b": b},
            schemas={
                "a": ColumnSchema("a", INT32),
                "b": ColumnSchema("b", INT32),
            },
            sort_keys=["a"],
            encodings={"a": ["uncompressed"], "b": ["uncompressed"]},
            presorted=True,
        )
        db.use_indexes = False  # force the scan + pin path
        query = SelectQuery(
            projection="big",
            select=("a", "b"),
            predicates=(Predicate("a", "<", 500), Predicate("b", "<", 25)),
        )
        result = db.query(query, strategy=Strategy.LM_PARALLEL, cold=True)
        expected = reference_select(
            db.projection("big"), ["a", "b"], list(query.predicates)
        )
        assert np.array_equal(canonical(result.tuples.data), canonical(expected))
        # The pool really was under pressure.
        assert db.pool.resident_bytes <= 3 * BLOCK_SIZE

    def test_all_strategies_under_pool_pressure(self, tpch_db, tmp_path):
        db = Database(
            tpch_db.catalog.root, pool_capacity_bytes=1 * BLOCK_SIZE
        )
        query = SelectQuery(
            projection="lineitem",
            select=("shipdate", "linenum"),
            predicates=(
                Predicate("shipdate", "<", 9000),
                Predicate("linenum", "<", 7),
            ),
        )
        expected = reference_select(
            db.projection("lineitem"),
            ["shipdate", "linenum"],
            list(query.predicates),
        )
        for strategy in Strategy:
            result = db.query(query, strategy=strategy, cold=True)
            assert np.array_equal(
                canonical(result.tuples.data), canonical(expected)
            ), strategy


class TestCatalogOps:
    def test_names_and_contains(self, tpch_db):
        names = tpch_db.catalog.names()
        assert names == sorted(names)
        assert "lineitem" in tpch_db.catalog
        assert "nope" not in tpch_db.catalog


class TestDtypeEdges:
    def test_non_contiguous_input_accepted(self, tmp_path):
        db = Database(tmp_path / "db")
        strided = np.arange(200, dtype=np.int32)[::2]  # non-contiguous view
        db.catalog.create_projection(
            "t",
            {"v": strided},
            {"v": ColumnSchema("v", INT32)},
            sort_keys=["v"],
            encodings={"v": ["uncompressed"]},
        )
        assert db.projection("t").n_rows == 100

    def test_uint8_overflow_rejected(self):
        with pytest.raises(EncodingError):
            UINT8.validate(np.array([300], dtype=np.int64))

    def test_negative_into_uint8_rejected(self):
        with pytest.raises(EncodingError):
            UINT8.validate(np.array([-1], dtype=np.int64))
