"""Property-based tests: every codec round-trips and scans correctly, and
the write-time histogram equals the algorithm it replaced."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dtypes import INT32
from repro.predicates import Predicate
from repro.storage import encoding_by_name
from repro.storage.block import BlockDescriptor
from repro.storage.stats import ColumnHistogram

from .reference import reference_histogram_json


def _blocks(codec, values):
    out = []
    for i, blk in enumerate(codec.encode(values, INT32.numpy_dtype)):
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


value_arrays = st.lists(
    st.integers(-50, 50), min_size=1, max_size=500
).map(lambda xs: np.array(xs, dtype=np.int32))

codecs = st.sampled_from(
    ["uncompressed", "rle", "bitvector", "dictionary", "for"]
)

predicates = st.builds(
    Predicate,
    st.just("c"),
    st.sampled_from(["<", "<=", ">", ">=", "=", "!="]),
    st.integers(-55, 55),
)


@given(codecs, value_arrays)
@settings(max_examples=120, deadline=None)
def test_encode_decode_roundtrip(codec_name, values):
    codec = encoding_by_name(codec_name)
    decoded = np.concatenate(
        [codec.decode(p, d, INT32.numpy_dtype) for d, p in _blocks(codec, values)]
    )
    assert np.array_equal(decoded, values)


@given(codecs, value_arrays, predicates)
@settings(max_examples=120, deadline=None)
def test_scan_positions_matches_mask(codec_name, values, pred):
    codec = encoding_by_name(codec_name)
    expected = np.nonzero(pred.mask(values))[0]
    got = []
    for desc, payload in _blocks(codec, values):
        got.append(
            codec.scan_positions(payload, desc, INT32.numpy_dtype, pred).to_array()
        )
    got = np.concatenate(got) if got else np.empty(0, dtype=np.int64)
    assert np.array_equal(got, expected)


@given(codecs, value_arrays, st.data())
@settings(max_examples=120, deadline=None)
def test_gather_matches_indexing(codec_name, values, data):
    codec = encoding_by_name(codec_name)
    blocks = _blocks(codec, values)
    desc, payload = blocks[0]
    indices = data.draw(
        st.lists(
            st.integers(desc.start_pos, desc.end_pos - 1),
            min_size=1,
            max_size=30,
        ).map(sorted)
    )
    picks = np.array(indices, dtype=np.int64)
    got = codec.gather(payload, desc, INT32.numpy_dtype, picks)
    assert np.array_equal(got, values[picks])


@given(codecs, value_arrays)
@settings(max_examples=80, deadline=None)
def test_descriptor_minmax_bounds_content(codec_name, values):
    codec = encoding_by_name(codec_name)
    for desc, payload in _blocks(codec, values):
        chunk = values[desc.start_pos : desc.end_pos]
        assert desc.min_value == chunk.min()
        assert desc.max_value == chunk.max()


@st.composite
def histogram_inputs(draw):
    """Value arrays across the histogram's two counting paths: narrow
    ranges (bincount) and ranges of 2**40 and more (sort), with heavy
    hitters, negatives and uint8/int32/int64."""
    dtype = draw(st.sampled_from([np.uint8, np.int32, np.int64]))
    info = np.iinfo(dtype)
    shape = draw(st.sampled_from(["narrow", "wide", "hitters", "mixed"]))
    if shape == "wide" and dtype == np.int64:
        lo = draw(st.integers(info.min, info.max - 2**40))
        hi = draw(st.integers(lo + 2**40, info.max))
    else:
        lo = draw(st.integers(int(info.min), int(info.max)))
        hi = min(lo + draw(st.integers(0, 300)), int(info.max))
    values = st.integers(lo, hi)
    if shape == "hitters":  # only a few values, each heavy
        values = st.sampled_from(sorted({lo, hi, (lo + hi) // 2}))
    elif shape == "mixed":  # a few heavy values over a spread residual
        values = st.one_of(st.sampled_from([lo, hi]), values)
    return np.array(draw(st.lists(values, max_size=400)), dtype=dtype)


@given(histogram_inputs())
@settings(max_examples=300, deadline=None)
def test_histogram_matches_reference_algorithm(values):
    assert ColumnHistogram.build(values).to_json() == \
        reference_histogram_json(values)


@given(st.sampled_from([np.uint8, np.int32, np.int64]),
       st.integers(-(2**40), 2**40), st.integers(1, 500))
@settings(max_examples=60, deadline=None)
def test_histogram_of_a_single_value_matches_reference(dtype, value, n):
    info = np.iinfo(dtype)
    values = np.full(n, min(max(value, info.min), info.max), dtype=dtype)
    assert ColumnHistogram.build(values).to_json() == \
        reference_histogram_json(values)
    empty = np.empty(0, dtype=dtype)
    assert ColumnHistogram.build(empty).to_json() == \
        reference_histogram_json(empty)
