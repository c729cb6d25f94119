"""Property tests: compressed kernels equal the decoded reference path.

Every kernel in :mod:`repro.compressed` is an *optimisation*, never a
semantic change — so each one is tested as an equality against the decoded
reference it replaces:

* predicate kernels (RLE / dictionary / FOR) select exactly the positions
  ``from_mask(start, predicate.mask(decode(payload)))`` selects;
* the run-list position algebra matches Python set semantics, including
  mixed-representation AND;
* run/code-histogram aggregation equals the row-at-a-time reduction;
* the lattice morph operators reproduce ``Encoding.decode`` exactly.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compressed import (
    KERNEL_ENCODINGS,
    codes_to_values,
    deltas_to_values,
    runs_to_values,
    scan_block_compressed,
)
from repro.dtypes import INT32
from repro.model.morph import (
    dictionary_scan_decision,
    for_scan_decision,
    morph_scan_us,
    rle_scan_decision,
)
from repro.operators.aggregate import AggSpec, aggregate_units, aggregate_vectors
from repro.operators.base import ExecutionContext
from repro.positions import (
    BitmapPositions,
    ListedPositions,
    RangePositions,
    RunPositions,
    from_mask,
    intersect_all,
)
from repro.predicates import ColumnConjunction, InPredicate, Predicate
from repro.storage import encoding_by_name
from repro.storage.block import BlockDescriptor


class _StubColumnFile:
    """The two attributes the kernels actually read off a ColumnFile."""

    def __init__(self, encoding_name):
        self.encoding = encoding_by_name(encoding_name)
        self.dtype = INT32.numpy_dtype


def _blocks(codec, values, start_pos=0):
    out = []
    for i, blk in enumerate(
        codec.encode(values, INT32.numpy_dtype, start_pos=start_pos)
    ):
        out.append(
            (
                BlockDescriptor(
                    index=i,
                    offset=0,
                    nbytes=len(blk.payload),
                    start_pos=blk.start_pos,
                    n_values=blk.n_values,
                    min_value=blk.min_value,
                    max_value=blk.max_value,
                ),
                blk.payload,
            )
        )
    return out


def _ctx():
    return ExecutionContext(pool=None)


value_arrays = st.one_of(
    # run-heavy data (a few distinct values, long-ish runs)
    st.lists(st.integers(-5, 5), min_size=1, max_size=400).map(
        lambda xs: np.repeat(
            np.array(xs, dtype=np.int32), np.random.RandomState(0).randint(1, 4)
        )
    ),
    st.lists(st.integers(-50, 50), min_size=1, max_size=400).map(
        lambda xs: np.array(xs, dtype=np.int32)
    ),
)

predicates = st.one_of(
    st.builds(
        Predicate,
        st.just("c"),
        st.sampled_from(["<", "<=", ">", ">=", "=", "!="]),
        st.one_of(
            st.integers(-55, 55),
            # fractional constants: the FOR kernel must morph, never round
            st.floats(-55, 55).filter(lambda v: not float(v).is_integer()),
        ),
    ),
    st.builds(
        InPredicate,
        st.just("c"),
        st.lists(st.integers(-55, 55), min_size=1, max_size=4).map(tuple),
    ),
    st.builds(
        lambda lo, hi: ColumnConjunction(
            "c", (Predicate("c", ">=", lo), Predicate("c", "<", hi))
        ),
        st.integers(-55, 0),
        st.integers(0, 55),
    ),
)


@given(st.sampled_from(sorted(KERNEL_ENCODINGS)), value_arrays, predicates)
@settings(max_examples=200, deadline=None)
def test_kernel_matches_decoded_reference(codec_name, values, predicate):
    codec = encoding_by_name(codec_name)
    cf = _StubColumnFile(codec_name)
    ctx = _ctx()
    for desc, payload in _blocks(codec, values):
        got = scan_block_compressed(ctx, cf, desc, payload, predicate)
        decoded = codec.decode(payload, desc, INT32.numpy_dtype)
        expected = from_mask(desc.start_pos, predicate.mask(decoded))
        if got is None:
            # A morph is always allowed; the decoded path answers instead.
            continue
        assert np.array_equal(got.to_array(), expected.to_array())


def test_rle_kernel_fires_on_run_heavy_data():
    """Long runs must stay compressed and come back as run lists."""
    values = np.repeat(np.array([3, 7, 3, 9], dtype=np.int32), 50)
    codec = encoding_by_name("rle")
    cf = _StubColumnFile("rle")
    ctx = _ctx()
    [(desc, payload)] = _blocks(codec, values)
    got = scan_block_compressed(ctx, cf, desc, payload, Predicate("c", "=", 3))
    assert isinstance(got, RunPositions)
    assert got.n_runs == 2
    assert got.count() == 100


def test_for_kernel_morphs_on_fractional_constant():
    values = np.arange(100, 200, dtype=np.int32)
    codec = encoding_by_name("for")
    cf = _StubColumnFile("for")
    ctx = _ctx()
    [(desc, payload)] = _blocks(codec, values)
    assert (
        scan_block_compressed(
            _ctx(), cf, desc, payload, Predicate("c", "<", 150.5)
        )
        is None
    )
    got = scan_block_compressed(ctx, cf, desc, payload, Predicate("c", "<", 150))
    assert got is not None and got.count() == 50


# ---------------------------------------------------------------- positions

UNIVERSE = 300


@st.composite
def run_sets(draw):
    n = draw(st.integers(0, 8))
    edges = draw(
        st.lists(
            st.integers(0, UNIVERSE), min_size=2 * n, max_size=2 * n, unique=True
        )
    )
    edges = sorted(edges)
    starts = np.array(edges[0::2], dtype=np.int64)
    stops = np.array(edges[1::2], dtype=np.int64)
    return RunPositions(starts, stops)


@st.composite
def other_sets(draw):
    kind = draw(st.sampled_from(["range", "listed", "bitmap"]))
    if kind == "range":
        a = draw(st.integers(0, UNIVERSE))
        b = draw(st.integers(0, UNIVERSE))
        return RangePositions(min(a, b), max(a, b))
    members = draw(
        st.lists(st.integers(0, UNIVERSE - 1), max_size=60, unique=True)
    )
    if kind == "listed":
        return ListedPositions(np.array(sorted(members), dtype=np.int64))
    mask = np.zeros(UNIVERSE, dtype=bool)
    mask[np.array(members, dtype=np.int64)] = True
    return BitmapPositions.from_mask(0, mask)


def as_set(ps):
    return set(int(p) for p in ps.to_array())


@given(run_sets(), run_sets())
@settings(max_examples=150, deadline=None)
def test_run_intersection_stays_in_run_space(a, b):
    result = a.intersect(b)
    assert as_set(result) == as_set(a) & as_set(b)
    assert isinstance(result, (RunPositions, RangePositions))


@given(run_sets(), other_sets())
@settings(max_examples=150, deadline=None)
def test_run_intersection_mixed_representations(a, b):
    assert as_set(a.intersect(b)) == as_set(a) & as_set(b)
    assert as_set(b.intersect(a)) == as_set(a) & as_set(b)


@given(run_sets(), st.one_of(run_sets(), other_sets()))
@settings(max_examples=150, deadline=None)
def test_run_union_matches_set_semantics(a, b):
    assert as_set(a.union(b)) == as_set(a) | as_set(b)


@given(run_sets(), st.integers(0, UNIVERSE), st.integers(0, UNIVERSE))
@settings(max_examples=100, deadline=None)
def test_run_restrict_and_mask_roundtrip(a, lo, hi):
    lo, hi = min(lo, hi), max(lo, hi)
    assert as_set(a.restrict(lo, hi)) == {
        p for p in as_set(a) if lo <= p < hi
    }
    if hi > lo:
        mask = a.to_mask(lo, hi)
        assert {lo + i for i in np.nonzero(mask)[0]} == as_set(
            a.restrict(lo, hi)
        )


@given(st.lists(st.one_of(run_sets(), other_sets()), min_size=1, max_size=4))
@settings(max_examples=100, deadline=None)
def test_intersect_all_with_run_lists(sets):
    expected = as_set(sets[0])
    for s in sets[1:]:
        expected &= as_set(s)
    assert as_set(intersect_all(sets)) == expected


# -------------------------------------------------------------- aggregation


@given(
    st.lists(st.integers(0, 5), min_size=1, max_size=300),
    st.sampled_from(["sum", "count", "min", "max", "avg"]),
)
@settings(max_examples=120, deadline=None)
def test_run_aggregation_matches_row_path(group_list, func):
    groups = np.array(group_list, dtype=np.int32)
    rng = np.random.RandomState(len(group_list))
    measure = rng.randint(-100, 100, size=groups.size).astype(np.int32)
    # Factor the group column into (run value, run id per row) exactly the
    # way repro.compressed.group_ids does.
    change = np.concatenate(([True], groups[1:] != groups[:-1]))
    run_values = groups[change]
    run_ids = np.cumsum(change) - 1
    spec = AggSpec(func, "m")
    row = aggregate_vectors(_ctx(), {"g": groups}, {"m": measure}, [spec])
    runs = aggregate_units(_ctx(), "g", run_values, run_ids, {"m": measure}, [spec])
    assert sorted(row.rows()) == sorted(runs.rows())


# ------------------------------------------------------------------ lattice


@given(value_arrays)
@settings(max_examples=100, deadline=None)
def test_morph_operators_reproduce_decode(values):
    rle = encoding_by_name("rle")
    for desc, payload in _blocks(rle, values):
        vals, _starts, lengths = rle.runs(payload, desc, INT32.numpy_dtype)
        assert np.array_equal(
            runs_to_values(vals, lengths),
            rle.decode(payload, desc, INT32.numpy_dtype),
        )
    dictionary = encoding_by_name("dictionary")
    for desc, payload in _blocks(dictionary, values):
        distinct, codes = dictionary.code_table(payload)
        assert np.array_equal(
            codes_to_values(distinct, codes, INT32.numpy_dtype),
            dictionary.decode(payload, desc, INT32.numpy_dtype),
        )
    forenc = encoding_by_name("for")
    for desc, payload in _blocks(forenc, values):
        span = forenc.parse_span(payload)
        assert np.array_equal(
            deltas_to_values(span.reference, span.offsets, INT32.numpy_dtype),
            forenc.decode(payload, desc, INT32.numpy_dtype),
        )


# ---------------------------------------------------------------- decisions


def test_morph_decisions_have_sane_shape():
    from repro.model.constants import PAPER_CONSTANTS as K

    # Long runs stay; run-per-value data morphs.
    assert rle_scan_decision(1000, 10, K).stay
    assert not rle_scan_decision(1000, 1000, K).stay
    # Dictionary codes are always narrower than decoded values.
    assert dictionary_scan_decision(1000, 4, 1, K).stay
    # FOR stays only when the predicate translates to offset space.
    assert for_scan_decision(1000, 16, True, K).stay
    assert not for_scan_decision(1000, 16, False, K).stay
    assert morph_scan_us(0, K) == 0.0


def test_decompress_eagerly_forces_compressed_off():
    ctx = ExecutionContext(pool=None, decompress_eagerly=True)
    assert ctx.compressed is False
    assert ctx.leaf().compressed is False
