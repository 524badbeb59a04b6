"""Segment geometry, masking, reassembly, and the wire format."""

import struct

import numpy as np
import pytest
from hypothesis import given
import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st

from gossipseg.errors import SerializationError, ShapeMismatchError
from gossipseg.model import (
    ModelParams,
    SegmentSpec,
    canonical_bytes,
    gather,
    mask_to_segment,
    params_from_bytes,
    segment_boundaries,
    segment_coords,
    split_over,
)


def make_params(rng, input_dim=5, hidden=4, classes=6):
    w1 = rng.normal(size=(input_dim, hidden))
    b1 = rng.normal(size=hidden)
    w2 = rng.normal(size=(classes, hidden))
    b2 = rng.normal(size=classes)
    return ModelParams(lower_layers=[w1, b1], last_layer_weights=w2, last_layer_bias=b2)


def test_segment_boundaries_frozen_example():
    specs = segment_boundaries(10, 3)
    assert [(s.start, s.end) for s in specs] == [(0, 3), (4, 6), (7, 9)]
    assert [s.cluster_id for s in specs] == [0, 1, 2]


def boundaries_oracle(num_units, num_segments):
    """Counting reference: hand out one unit at a time, round-robin stops early."""
    base = num_units // num_segments
    extra = num_units % num_segments
    sizes = [base + (1 if i < extra else 0) for i in range(num_segments)]
    out = []
    cursor = 0
    for size in sizes:
        out.append((cursor, cursor + size - 1))
        cursor += size
    return out


@given(
    num_units=st.integers(min_value=1, max_value=200),
    num_segments=st.integers(min_value=1, max_value=20),
)
def test_segment_boundaries_match_counting_oracle(num_units, num_segments):
    if num_segments > num_units:
        with pytest.raises(Exception):
            segment_boundaries(num_units, num_segments)
        return
    specs = segment_boundaries(num_units, num_segments)
    assert [(s.start, s.end) for s in specs] == boundaries_oracle(num_units, num_segments)
    # contiguous disjoint cover, sizes differ by at most one, big ones first
    assert specs[0].start == 0
    assert specs[-1].end == num_units - 1
    for a, b in zip(specs, specs[1:]):
        assert b.start == a.end + 1
    sizes = [s.size for s in specs]
    assert max(sizes) - min(sizes) <= 1
    assert sizes == sorted(sizes, reverse=True)


def test_segment_spec_is_inclusive():
    spec = SegmentSpec(cluster_id=0, start=2, end=4)
    assert spec.size == 3
    assert list(np.arange(10)[spec.rows()]) == [2, 3, 4]


def test_mask_to_segment_zeroes_only_foreign_rows(rng):
    params = make_params(rng)
    spec = SegmentSpec(cluster_id=1, start=2, end=3)
    masked = mask_to_segment(params, [spec])
    for row in range(params.shapes[-1][0]):
        if spec.start <= row <= spec.end:
            assert np.array_equal(masked.last_layer_weights[row], params.last_layer_weights[row])
            assert masked.last_layer_bias[row] == params.last_layer_bias[row]
        else:
            assert not masked.last_layer_weights[row].any()
            assert masked.last_layer_bias[row] == 0.0
    for ours, theirs in zip(masked.lower_layers, params.lower_layers):
        assert np.array_equal(ours, theirs)
    # original untouched
    assert params.last_layer_weights.any()


@given(st.integers(min_value=1, max_value=9), st.integers(min_value=1, max_value=9))
def test_with_buf_roundtrip(input_dim, hidden):
    rng = np.random.default_rng(input_dim * 100 + hidden)
    params = make_params(rng, input_dim=input_dim, hidden=hidden, classes=4)
    assert params.buf.ndim == 1
    assert np.array_equal(params.buf, np.concatenate([t.ravel() for t in params.tensors()]))
    back = params.with_buf(params.buf.copy())
    assert back.shapes == params.shapes
    assert canonical_bytes(back) == canonical_bytes(params)


def test_with_buf_rejects_wrong_length(rng):
    params = make_params(rng)
    with pytest.raises(ShapeMismatchError):
        params.with_buf(np.zeros(3))


def indices(ranges):
    """The coordinates a tuple of ranges covers, in order."""
    return np.concatenate([np.arange(r.start, r.stop) for r in ranges])


def test_segment_coordinate_mask_counts(rng):
    params = make_params(rng, input_dim=5, hidden=4, classes=6)
    spec = SegmentSpec(cluster_id=0, start=1, end=3)
    coords = segment_coords(params, spec)
    owned, foreign = indices(coords.owned), indices(coords.foreign)
    lower_size = sum(t.size for t in params.lower_layers)
    hidden = params.last_layer_weights.shape[1]
    assert owned.size == lower_size + spec.size * (hidden + 1)
    assert owned.size + foreign.size == params.buf.size
    # masked delta has zero support outside the owned coordinates
    flat = mask_to_segment(params, [spec]).buf
    assert not flat[foreign].any()
    assert np.array_equal(flat[owned], params.buf[owned])
    # built once per geometry and spec, and callers cannot corrupt the cached copy
    assert segment_coords(make_params(rng), spec) is coords
    assert all(
        isinstance(ranges, tuple) and all(isinstance(r, slice) for r in ranges)
        for ranges in vars(coords).values()
    )


def test_segment_coords_index_what_the_segment_owns(rng):
    params = make_params(rng, input_dim=5, hidden=4, classes=6)
    spec = SegmentSpec(cluster_id=1, start=2, end=3)
    coords = segment_coords(params, spec)
    # oracle: tag each coordinate with its tensor and, in the final layer, its row
    tensor_of = np.concatenate([np.full(t.size, i) for i, t in enumerate(params.tensors())])
    row_of = np.concatenate(
        [np.full(t.size, -1) for t in params.lower_layers]
        + [np.repeat(np.arange(6), 4), np.arange(6)]
    )
    final = tensor_of >= len(params.lower_layers)
    inside = (row_of >= spec.start) & (row_of <= spec.end)
    assert indices(coords.owned).tolist() == np.flatnonzero(~final | inside).tolist()
    # the lower layers are the first owned range; the segment's rows follow
    assert indices(coords.owned[1:]).tolist() == np.flatnonzero(final & inside).tolist()
    assert indices(coords.foreign).tolist() == np.flatnonzero(final & ~inside).tolist()


@pytest.mark.parametrize("start, end", [(0, 1), (2, 3), (4, 5), (0, 5)])
def test_gather_and_split_over_match_index_arrays(rng, start, end):
    params = make_params(rng, input_dim=5, hidden=4, classes=6)
    coords = segment_coords(params, SegmentSpec(cluster_id=0, start=start, end=end))
    for ranges in vars(coords).values():
        picked = gather(params.buf, ranges)
        assert picked.tobytes() == params.buf[indices(ranges)].tobytes()
        # split_over is the inverse: writing the parts back restores the picks
        buf = np.zeros_like(params.buf)
        for r, part in split_over(picked, ranges):
            buf[r] = part
        assert buf[indices(ranges)].tobytes() == picked.tobytes()


def test_segment_outside_the_final_layer_is_rejected(rng):
    params = make_params(rng, classes=6)
    spec = SegmentSpec(cluster_id=0, start=4, end=6)
    with pytest.raises(ShapeMismatchError):
        segment_coords(params, spec)
    with pytest.raises(ShapeMismatchError):
        mask_to_segment(params, [spec])


def test_canonical_bytes_roundtrip_bitwise(rng):
    params = make_params(rng)
    blob = canonical_bytes(params)
    assert blob.startswith(b"GSM1")
    back = params_from_bytes(blob)
    assert back.buf.tobytes() == params.buf.tobytes()
    assert canonical_bytes(back) == blob


def reference_encode(tensors):
    """Per-tensor GSM1 encoder: header of ranks and dims, then each tensor."""
    out = [b"GSM1", struct.pack("<HH", 1, len(tensors))]
    for t in tensors:
        out.append(struct.pack("<B", t.ndim))
        out.append(struct.pack(f"<{t.ndim}I", *t.shape))
    for t in tensors:
        out.append(np.ascontiguousarray(t, dtype="<f8").tobytes())
    return b"".join(out)


def reference_decode(blob):
    """Per-tensor GSM1 decoder for well-formed input."""
    (count,) = struct.unpack_from("<H", blob, 6)
    offset = 8
    shapes = []
    for _ in range(count):
        (rank,) = struct.unpack_from("<B", blob, offset)
        shapes.append(struct.unpack_from(f"<{rank}I", blob, offset + 1))
        offset += 1 + 4 * rank
    tensors = []
    for shape in shapes:
        size = int(np.prod(shape))
        tensors.append(np.frombuffer(blob, "<f8", size, offset).reshape(shape))
        offset += 8 * size
    return tensors


# finite values with signed zeros and subnormals drawn on purpose
_values = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072e-308, -1e-310]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def geometries(draw):
    lower = draw(
        st.lists(st.lists(st.integers(0, 4), min_size=0, max_size=3).map(tuple), max_size=3)
    )
    units, hidden = draw(st.integers(1, 5)), draw(st.integers(0, 5))
    shapes = [*lower, (units, hidden), (units,)]
    return [draw(hnp.arrays(np.float64, shape, elements=_values)) for shape in shapes]


@given(geometries())
def test_codec_matches_per_tensor_reference(tensors):
    params = ModelParams(tensors[:-2], tensors[-2], tensors[-1])
    blob = canonical_bytes(params)
    assert blob == reference_encode(tensors)
    back = params_from_bytes(blob)
    assert back.shapes == tuple(t.shape for t in tensors)
    assert back.buf.tobytes() == params.buf.tobytes()
    for got, want in zip(back.tensors(), reference_decode(blob)):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    # every tensor is a view into the one buffer, in canonical order
    for decoded in (params, back):
        views = decoded.tensors()
        assert all(np.shares_memory(v, decoded.buf) or v.size == 0 for v in views)
        assert decoded.buf.tobytes() == b"".join(v.tobytes() for v in views)
    # the decoded buffer is a read-only view of the bytes; through a copy's
    # tensor views, a write reaches the copy's buffer
    assert not back.buf.flags.writeable
    if back.buf.size:
        owned = back.copy()
        owned.tensors()[-1][0] = 1.5
        assert owned.buf[owned.buf.size - owned.shapes[-1][0]] == 1.5


def test_params_from_bytes_rejects_malformed_geometry():
    w1, b1 = np.zeros((4, 3)), np.zeros(3)
    for tensors in (
        [w1, b1, np.zeros((3, 3)), np.zeros(2)],  # bias shorter than the weight rows
        [w1, b1, np.zeros((3, 3, 1)), np.zeros(3)],  # final weights not a matrix
        [w1, b1, np.zeros((3, 3)), np.zeros((3, 1))],  # bias not a vector
    ):
        with pytest.raises(SerializationError):
            params_from_bytes(reference_encode(tensors))
    good = reference_encode([w1, b1, np.zeros((3, 3)), np.zeros(3)])
    for blob in (good + b"\x00", good[:-1], good[:12]):
        with pytest.raises(SerializationError):
            params_from_bytes(blob)


def test_canonical_bytes_rejects_non_finite(rng):
    params = make_params(rng)
    params.last_layer_bias[0] = np.nan
    with pytest.raises(SerializationError):
        canonical_bytes(params)


def test_params_from_bytes_rejects_garbage():
    with pytest.raises(SerializationError):
        params_from_bytes(b"not a model")
    with pytest.raises(SerializationError):
        params_from_bytes(b"GSM1" + b"\x00" * 3)


def test_params_arithmetic(rng):
    a = make_params(rng)
    b = make_params(rng)
    total = a.with_buf(a.buf + b.buf)
    assert np.array_equal(total.last_layer_weights, a.last_layer_weights + b.last_layer_weights)
    diff = total.with_buf(total.buf - b.buf)
    assert np.allclose(diff.buf, a.buf, atol=1e-12)
    z = a.with_buf(np.zeros_like(a.buf))
    assert not any(t.any() for t in z.tensors())
    # adding exact zeros is bitwise-neutral
    assert canonical_bytes(a.with_buf(a.buf + z.buf)) == canonical_bytes(a)
