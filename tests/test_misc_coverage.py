"""Targeted tests for small code paths not covered elsewhere."""

import numpy as np
import pytest

from repro import Database, Predicate, SelectQuery
from repro.dtypes import INT32, ColumnSchema
from repro.errors import CatalogError
from repro.model import PAPER_CONSTANTS
from repro.model.cost import output_cost, price
from repro.operators.and_op import and_groups
from repro.operators.base import position_groups
from repro.positions import BitmapPositions, ListedPositions, RangePositions
from repro.planner.projection_choice import resolve_projection


class TestPositionGroupAccounting:
    def test_range_is_one_group(self):
        assert position_groups(RangePositions(0, 1000)) == 1
        assert position_groups(RangePositions.empty()) == 0

    def test_listed_is_per_position(self):
        assert position_groups(ListedPositions(np.array([1, 5, 9]))) == 3

    def test_bitmap_jumps_per_position_but_ands_per_word(self):
        mask = np.ones(640, dtype=bool)
        bm = BitmapPositions.from_mask(0, mask)
        assert position_groups(bm) == 640  # DS3 jumps
        assert and_groups(bm) == 10  # AND: 640 bits / 64-bit words

    def test_and_groups_range(self):
        assert and_groups(RangePositions(5, 500)) == 1


class TestOutputCost:
    def test_scales_with_tuples(self):
        assert price(output_cost(0), PAPER_CONSTANTS) == (0.0, 0.0)
        assert price(output_cost(2000), PAPER_CONSTANTS)[0] == pytest.approx(
            2000 * PAPER_CONSTANTS.tictup
        )


class TestProjectionChoiceFallback:
    @pytest.fixture()
    def db(self, tmp_path):
        database = Database(tmp_path / "db")
        rng = np.random.default_rng(5)
        base = {
            "a": np.sort(rng.integers(0, 50, 20_000)).astype(np.int32),
            "b": rng.integers(0, 9, 20_000).astype(np.int32),
        }
        schemas = {
            "a": ColumnSchema("a", INT32),
            "b": ColumnSchema("b", INT32),
        }
        database.catalog.create_projection(
            "wide",
            base,
            schemas=schemas,
            sort_keys=["a"],
            encodings={"a": ["rle"], "b": ["uncompressed"]},
            presorted=True,
            anchor="tbl",
        )
        database.catalog.create_projection(
            "narrow",
            {"a": base["a"]},
            schemas={"a": schemas["a"]},
            sort_keys=["a"],
            encodings={"a": ["rle"]},
            presorted=True,
            anchor="tbl",
        )
        return database

    def test_only_covering_candidate_wins(self, db):
        query = SelectQuery(
            projection="tbl",
            select=("a", "b"),
            predicates=(Predicate("b", "=", 3),),
        )
        chosen = resolve_projection(db.catalog, query)
        assert chosen.name == "wide"  # narrow lacks column b

    def test_encoding_override_falls_back(self, db):
        # Neither candidate stores 'a' as bitvector: every prediction fails,
        # so the first covering candidate is returned rather than crashing.
        query = SelectQuery(
            projection="tbl",
            select=("a",),
            predicates=(Predicate("a", "<", 10),),
            encodings=(("a", "bitvector"),),
        )
        chosen = resolve_projection(db.catalog, query)
        assert chosen.anchor == "tbl"
        # Executing it still surfaces a clean catalog error.
        with pytest.raises(CatalogError):
            db.query(query, strategy="lm-parallel")

    def test_queries_route_per_predicate(self, db):
        r = db.sql("SELECT a FROM tbl WHERE a < 5")
        assert r.n_rows > 0


class TestStatsExtras:
    def test_index_lookup_counts_accumulate(self, tpch_db):
        query = SelectQuery(
            projection="lineitem",
            select=("returnflag", "quantity"),
            predicates=(Predicate("returnflag", "=", 0),),
        )
        r = tpch_db.query(query, strategy="lm-parallel", cold=True)
        assert r.stats.extra["index_lookups"] == 1
        # The predicate column was never scanned (index-derived positions);
        # values_scanned counts predicate application only.
        assert r.stats.values_scanned == 0
        assert r.stats.tuples_output == r.n_rows > 0

    def test_str_of_stats_readable(self, tpch_db):
        r = tpch_db.sql("SELECT linenum FROM lineitem WHERE linenum < 2")
        text = str(r.stats)
        assert "tuples_output" in text


class TestSmallPublicSurfaces:
    def test_delta_store_tables(self, tmp_path):
        from datetime import date

        from repro import load_tpch

        db = Database(tmp_path / "db")
        load_tpch(db.catalog, scale=0.001, seed=1)
        assert db.delta.tables() == []
        db.insert("orders", [{"shipdate": date(1999, 1, 1), "custkey": 1}])
        assert db.delta.tables() == ["orders"]
        db.merge("orders")
        assert db.delta.tables() == []
