"""Unit tests for the DS1-DS4 and SPC data-source operators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.buffer import BufferPool, DecodedBlockCache
from repro.dtypes import INT32
from repro.errors import UnsupportedOperationError
from repro.metrics import QueryStats
from repro.operators import (
    ExecutionContext,
    ds1_scan,
    ds2_scan,
    ds3_filter,
    ds3_gather,
    ds4_extend,
    gather_values,
    spc_scan,
)
from repro.multicolumn import MiniColumn
from repro.operators.base import repeat_by_run
from repro.positions import BitmapPositions, ListedPositions, RangePositions
from repro.predicates import Predicate
from repro.storage import encoding_by_name, write_column


@pytest.fixture
def ctx():
    return ExecutionContext(pool=BufferPool(), stats=QueryStats())


@pytest.fixture
def columns(tmp_path):
    """Two 80k-row columns: 'a' sorted+RLE, 'b' uncompressed values 0..9."""
    rng = np.random.default_rng(41)
    a = np.sort(rng.integers(0, 50, size=80_000)).astype(np.int32)
    b = rng.integers(0, 10, size=80_000).astype(np.int32)
    cf_a = write_column(
        tmp_path / "a.col", a, INT32, encoding_by_name("rle"), column_name="a"
    )
    cf_b = write_column(
        tmp_path / "b.col",
        b,
        INT32,
        encoding_by_name("uncompressed"),
        column_name="b",
    )
    return a, b, cf_a, cf_b


class TestDS1:
    def test_positions_match_reference(self, ctx, columns):
        a, _b, cf_a, _cf_b = columns
        positions, _mini = ds1_scan(ctx, cf_a, Predicate("a", "<", 25))
        assert np.array_equal(positions.to_array(), np.nonzero(a < 25)[0])

    def test_minicolumn_pinned(self, ctx, columns):
        _a, _b, cf_a, _cf_b = columns
        _positions, mini = ds1_scan(ctx, cf_a, Predicate("a", "<", 25))
        assert mini is not None
        assert mini.block_count() > 0

    def test_multicolumns_disabled(self, columns):
        _a, _b, cf_a, _cf_b = columns
        ctx = ExecutionContext(pool=BufferPool(), use_multicolumns=False)
        _positions, mini = ds1_scan(ctx, cf_a, Predicate("a", "<", 25))
        assert mini is None

    def test_block_skipping_on_sorted_column(self, ctx, columns):
        a, _b, cf_a, _cf_b = columns
        # An impossible predicate: every block skipped, nothing read.
        positions, _mini = ds1_scan(ctx, cf_a, Predicate("a", ">", 10_000))
        assert positions.is_empty()
        assert ctx.stats.blocks_skipped == cf_a.n_blocks
        assert ctx.stats.block_reads == 0

    def test_uncompressed_scan(self, ctx, columns):
        _a, b, _cf_a, cf_b = columns
        positions, _mini = ds1_scan(ctx, cf_b, Predicate("b", "=", 4))
        assert np.array_equal(positions.to_array(), np.nonzero(b == 4)[0])
        assert ctx.stats.values_scanned == len(b)


class TestDS2:
    def test_pairs_match_reference(self, ctx, columns):
        a, _b, cf_a, _cf_b = columns
        tuples = ds2_scan(ctx, cf_a, Predicate("a", "<", 10))
        expected_pos = np.nonzero(a < 10)[0]
        assert np.array_equal(tuples.positions, expected_pos)
        assert np.array_equal(tuples.column("a"), a[expected_pos])

    def test_none_predicate_returns_everything(self, ctx, columns):
        _a, b, _cf_a, cf_b = columns
        tuples = ds2_scan(ctx, cf_b, None)
        assert tuples.n_tuples == len(b)

    def test_counts_tuple_iterations(self, ctx, columns):
        a, _b, cf_a, _cf_b = columns
        ds2_scan(ctx, cf_a, Predicate("a", "<", 10))
        assert ctx.stats.tuple_iterations >= int((a < 10).sum())
        assert ctx.stats.tuples_constructed == int((a < 10).sum())


class TestDS3:
    def test_gather_matches_reference(self, ctx, columns):
        _a, b, _cf_a, cf_b = columns
        picks = ListedPositions(np.array([5, 77, 30_000, 79_999]))
        values = ds3_gather(ctx, cf_b, picks)
        assert np.array_equal(values, b[picks.to_array()])

    def test_gather_skips_uncovered_blocks(self, ctx, columns):
        _a, b, _cf_a, cf_b = columns
        picks = RangePositions(0, 10)  # everything in block 0
        ds3_gather(ctx, cf_b, picks)
        assert ctx.stats.block_reads == 1
        assert ctx.stats.blocks_skipped == 0  # early-exit before later blocks

    def test_gather_with_predicate_filters(self, ctx, columns):
        _a, b, _cf_a, cf_b = columns
        picks = RangePositions(0, 1000)
        positions = ds3_filter(ctx, cf_b, picks, Predicate("b", "<", 5))
        expected = np.nonzero(b[:1000] < 5)[0]
        assert np.array_equal(positions.to_array(), expected)

    def test_gather_via_minicolumn_avoids_pool(self, ctx, columns):
        a, _b, cf_a, _cf_b = columns
        positions, mini = ds1_scan(ctx, cf_a, Predicate("a", "<", 25))
        reads_before = ctx.stats.block_reads + ctx.stats.buffer_hits
        values = ds3_gather(ctx, cf_a, positions, mini)
        assert ctx.stats.block_reads + ctx.stats.buffer_hits == reads_before
        assert np.array_equal(values, a[positions.to_array()])

    def test_bitvector_position_filtering_rejected(self, ctx, tmp_path):
        values = np.zeros(100, dtype=np.int32)
        cf = write_column(
            tmp_path / "bv.col", values, INT32, encoding_by_name("bitvector")
        )
        with pytest.raises(UnsupportedOperationError):
            ds3_filter(ctx, cf, RangePositions(0, 10), Predicate("v", "<", 1))

    def test_bitvector_plain_gather_allowed(self, ctx, tmp_path):
        rng = np.random.default_rng(5)
        values = rng.integers(0, 5, size=1000).astype(np.int32)
        cf = write_column(
            tmp_path / "bv.col", values, INT32, encoding_by_name("bitvector")
        )
        got = ds3_gather(ctx, cf, ListedPositions(np.array([3, 500, 999])))
        assert np.array_equal(got, values[[3, 500, 999]])


class TestGatherValues:
    def test_unsorted_positions(self, ctx, columns):
        _a, b, _cf_a, cf_b = columns
        picks = np.array([79_999, 3, 40_000, 7, 3], dtype=np.int64)
        got = gather_values(ctx, cf_b, picks)
        assert np.array_equal(got, b[picks])
        # The positional re-join keeps its sort: charged at n log n.
        n = len(picks)
        assert ctx.stats.function_calls == int(n * np.log2(n))
        assert ctx.stats.extra["out_of_order_gathers"] == n

    def test_sorted_positions_no_penalty(self, ctx, columns):
        _a, b, _cf_a, cf_b = columns
        picks = np.array([3, 7, 40_000], dtype=np.int64)
        gather_values(ctx, cf_b, picks)
        assert "out_of_order_gathers" not in ctx.stats.extra

    def test_empty_positions(self, ctx, columns):
        _a, _b, _cf_a, cf_b = columns
        got = gather_values(ctx, cf_b, np.empty(0, dtype=np.int64))
        assert len(got) == 0


class TestDS4:
    def test_extends_and_filters(self, ctx, columns):
        a, b, cf_a, cf_b = columns
        seed = ds2_scan(ctx, cf_a, Predicate("a", "<", 10))
        out = ds4_extend(ctx, cf_b, Predicate("b", "<", 5), seed)
        mask = (a < 10) & (b < 5)
        expected_pos = np.nonzero(mask)[0]
        assert np.array_equal(out.positions, expected_pos)
        assert np.array_equal(out.column("a"), a[mask])
        assert np.array_equal(out.column("b"), b[mask])

    def test_extend_without_predicate(self, ctx, columns):
        a, b, cf_a, cf_b = columns
        seed = ds2_scan(ctx, cf_a, Predicate("a", "<", 5))
        out = ds4_extend(ctx, cf_b, None, seed)
        assert out.n_tuples == seed.n_tuples
        assert np.array_equal(out.column("b"), b[a < 5])


class TestSPC:
    def test_constructs_filtered_tuples(self, ctx, columns):
        a, b, cf_a, cf_b = columns
        out = spc_scan(
            ctx,
            {"a": cf_a, "b": cf_b},
            [Predicate("a", "<", 10), Predicate("b", "<", 5)],
        )
        mask = (a < 10) & (b < 5)
        assert np.array_equal(out.column("a"), a[mask])
        assert np.array_equal(out.column("b"), b[mask])

    def test_reads_every_block_of_every_column(self, ctx, columns):
        _a, _b, cf_a, cf_b = columns
        spc_scan(ctx, {"a": cf_a, "b": cf_b}, [Predicate("a", ">", 10_000)])
        assert ctx.stats.block_reads == cf_a.n_blocks + cf_b.n_blocks
        assert ctx.stats.blocks_skipped == 0


# ---- gather by structure


@st.composite
def run_tables_and_positions(draw):
    """A run table (absolute starts) and sorted positions inside its span."""
    lengths = draw(st.lists(st.integers(1, 12), min_size=1, max_size=40))
    base = draw(st.integers(0, 1000))
    starts = base + np.concatenate([[0], np.cumsum(lengths)[:-1]])
    end = base + int(np.sum(lengths))
    kind = draw(st.sampled_from(["dense", "sparse", "empty", "edges", "dups"]))
    if kind == "dense":
        positions = np.arange(base, end)
    elif kind == "empty":
        positions = np.empty(0, dtype=np.int64)
    elif kind == "edges":  # first/last position of the first and last run
        positions = np.unique(
            [base, starts[0] + lengths[0] - 1, starts[-1], end - 1]
        )
    else:
        positions = np.sort(
            np.array(
                draw(st.lists(st.integers(base, end - 1), max_size=60)),
                dtype=np.int64,
            )
        )
        if kind == "sparse":
            positions = np.unique(positions)
    return starts.astype(np.int64), positions.astype(np.int64)


class TestRepeatByRun:
    @given(case=run_tables_and_positions())
    @settings(max_examples=300, deadline=None)
    def test_equals_per_position_search(self, case):
        starts, positions = case
        per_run = np.arange(len(starts)) * 7 + 3
        want = per_run[np.searchsorted(starts, positions, side="right") - 1]
        got = repeat_by_run(starts, positions, per_run)
        assert got.dtype == per_run.dtype
        assert np.array_equal(got, want)

    def test_both_search_directions(self):
        starts = np.array([10, 12, 20, 21, 30], dtype=np.int64)
        per_run = np.array([5, 6, 7, 8, 9])
        few = np.array([11, 11, 29], dtype=np.int64)  # fewer than runs
        many = np.array([10, 10, 11, 12, 19, 21, 21, 30, 31], dtype=np.int64)
        assert repeat_by_run(starts, few, per_run).tolist() == [5, 5, 8]
        assert repeat_by_run(starts, many, per_run).tolist() == [
            5, 5, 5, 6, 6, 8, 8, 9, 9,
        ]


@pytest.fixture(params=["uncompressed", "rle", "bitvector", "dictionary", "for"])
def encoded_column(request, tmp_path):
    """One 100k-row low-cardinality column of short runs per encoding
    (short enough that the run-length file, too, spans several blocks)."""
    rng = np.random.default_rng(7)
    values = np.repeat(
        rng.integers(0, 9, size=30_000), rng.integers(1, 9, size=30_000)
    )[:100_000].astype(np.int32)
    assert len(values) == 100_000
    cf = write_column(
        tmp_path / "v.col",
        values,
        INT32,
        encoding_by_name(request.param),
        column_name="v",
    )
    assert cf.n_blocks > 1
    return values, cf


def _codec_ctx():
    return ExecutionContext(pool=BufferPool(), stats=QueryStats())


def _cached_ctx():
    return ExecutionContext(
        pool=BufferPool(), stats=QueryStats(), decoded=DecodedBlockCache()
    )


#: Gathers are checked both through the codecs and through the decoded cache.
GATHER_CONTEXTS = (_codec_ctx, _cached_ctx)


class TestGatherByStructure:
    RANGES = [(0, 100_000), (17, 18), (0, 1), (99_999, 100_000), (70_000, 70_000)]

    @pytest.mark.parametrize("pinned", [False, True])
    def test_range_equals_its_array(self, encoded_column, pinned):
        values, cf = encoded_column
        boundary = cf.descriptors[1].start_pos
        ranges = self.RANGES + [
            (boundary - 3, boundary + 3), (boundary, cf.descriptors[1].end_pos),
        ]
        for make_ctx in GATHER_CONTEXTS:
            for lo, hi in ranges:
                by_range, by_array = make_ctx(), make_ctx()
                minis = []
                for ctx in (by_range, by_array):
                    mini = None
                    if pinned:
                        mini = MiniColumn(cf)
                        for desc in cf.descriptors:
                            mini.pin(desc, ctx.pool.get(cf, desc.index, QueryStats()))
                    minis.append(mini)
                span = RangePositions(lo, hi)
                got = gather_values(by_range, cf, span, minicolumn=minis[0])
                want = gather_values(
                    by_array, cf, span.to_array(), minicolumn=minis[1]
                )
                assert got.dtype == want.dtype
                assert np.array_equal(got, want)
                assert np.array_equal(got, values[lo:hi])
                assert by_range.stats.as_dict() == by_array.stats.as_dict()

    def test_position_sets_equal_their_arrays(self, encoded_column):
        values, cf = encoded_column
        rng = np.random.default_rng(3)
        picks = np.unique(rng.integers(0, len(values), size=5_000))
        mask = np.zeros(len(values), dtype=bool)
        mask[picks] = True
        for make_ctx in GATHER_CONTEXTS:
            for pset in (
                ListedPositions(picks, assume_sorted=True),
                BitmapPositions.from_mask(0, mask),
            ):
                by_set, by_array = make_ctx(), make_ctx()
                got = gather_values(by_set, cf, pset)
                want = gather_values(by_array, cf, pset.to_array())
                assert np.array_equal(got, want)
                assert np.array_equal(got, values[picks])
                assert by_set.stats.as_dict() == by_array.stats.as_dict()

    def test_duplicate_positions_after_a_join(self, encoded_column):
        values, cf = encoded_column
        picks = np.array([99_999, 5, 5, 70_000, 5, 99_999, 0], dtype=np.int64)
        for make_ctx in GATHER_CONTEXTS:
            got = gather_values(make_ctx(), cf, picks)
            assert np.array_equal(got, values[picks])

    def test_ds3_over_a_range_with_predicate(self, encoded_column):
        values, cf = encoded_column
        if not cf.encoding.supports_position_filtering:
            pytest.skip("encoding cannot position-filter")
        pred = Predicate("v", "<", 4)
        for make_ctx in GATHER_CONTEXTS:
            got = ds3_filter(make_ctx(), cf, RangePositions(100, 90_000), pred)
            want = 100 + np.flatnonzero(values[100:90_000] < 4)
            assert np.array_equal(got.to_array(), want)


class TestDS2Pairs:
    def test_pairs_identical_with_and_without_decoded_cache(self, encoded_column):
        values, cf = encoded_column
        for pred in (Predicate("v", "<", 4), None):
            outs = []
            for make_ctx in GATHER_CONTEXTS:
                ctx = make_ctx()
                outs.append((ds2_scan(ctx, cf, pred), ctx.stats))
            (a, stats_a), (b, stats_b) = outs
            assert a.columns == b.columns
            assert np.array_equal(a.data, b.data)
            keep = np.flatnonzero(values < 4) if pred is not None else np.arange(
                len(values)
            )
            assert np.array_equal(a.positions, keep)
            assert np.array_equal(a.column("v"), values[keep])
            for counter in ("tuples_constructed", "tuple_iterations",
                            "function_calls", "values_scanned"):
                assert getattr(stats_a, counter) == getattr(stats_b, counter)


class TestOnTheFlyGather:
    """``gather_values(on_the_fly=True)`` over unsorted positions.

    It must charge what a block-cursor pass over the sorted positions
    charges plus one function call per position (the direct jump), and
    visit, skip and stop at blocks exactly as that pass does.
    """

    @pytest.mark.parametrize("pinned", [False, True])
    def test_unsorted_duplicates_charge_like_sorted_plus_jumps(
        self, encoded_column, pinned
    ):
        values, cf = encoded_column
        rng = np.random.default_rng(11)
        # Blocks 0 and n//2 only: blocks in between are skipped, later ones
        # are never visited. More picks than a block has runs, so a
        # run-length block expands by structure (which needs its share
        # sorted) rather than looking each position up.
        covered = sorted({0, cf.n_blocks // 2})
        picks = np.concatenate([
            rng.integers(desc.start_pos, desc.end_pos,
                         size=desc.end_pos - desc.start_pos + 400)
            for desc in (cf.descriptors[b] for b in covered)
        ])
        picks = rng.permutation(np.concatenate([picks, picks[:60]]))
        for make_ctx in GATHER_CONTEXTS:
            by_jump, by_sort = make_ctx(), make_ctx()
            minis = []
            for ctx in (by_jump, by_sort):
                mini = None
                if pinned:
                    mini = MiniColumn(cf)
                    for desc in cf.descriptors:
                        mini.pin(desc, ctx.pool.get(cf, desc.index, QueryStats()))
                minis.append(mini)
            got = gather_values(
                by_jump, cf, picks, minicolumn=minis[0], on_the_fly=True
            )
            gather_values(by_sort, cf, np.sort(picks), minicolumn=minis[1])
            by_sort.stats.function_calls += len(picks)
            assert got.dtype == values.dtype
            assert np.array_equal(got, values[picks])
            assert by_jump.stats.as_dict() == by_sort.stats.as_dict()
            assert "out_of_order_gathers" not in by_jump.stats.extra
