"""Model parameter container, last-layer segmentation, and canonical byte encoding.

The trainable model is a stack of shared lower-layer tensors plus one final
dense layer whose output neurons are split into contiguous per-cluster
segments.  Only the final layer is ever masked; lower layers are common to
every peer.

Parameters live in one contiguous float64 vector in canonical tensor order
(lower layers, final weights, final bias); each tensor is a view into it.
Several models of one geometry can be stacked as the rows of a 2-D
``(models, size)`` buffer; every tensor view then carries that leading axis.
The wire encoding is a shape header followed by that vector's bytes.
Which coordinates of the vector a segment owns is recorded once per
(geometry, segment) as :class:`SegmentCoords`.
"""
from __future__ import annotations

import functools
import itertools
import math
import struct
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, SerializationError, ShapeMismatchError

_MAGIC = b"GSM1"
_VERSION = 1


@dataclass(frozen=True)
class SegmentSpec:
    """Contiguous range of final-layer output units, both endpoints inclusive."""

    cluster_id: int
    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.end < self.start:
            raise ConfigurationError(
                f"bad segment range [{self.start}, {self.end}]"
            )

    @property
    def size(self) -> int:
        return self.end - self.start + 1

    def rows(self) -> slice:
        return slice(self.start, self.end + 1)


@dataclass(frozen=True, eq=False)
class SegmentCoords:
    """The coordinates of ``buf`` one segment owns, as ranges in buffer order.

    ``owned`` is the lower layers, then the segment's rows of the final
    weights and its bias entries; ``foreign`` is every other coordinate, all
    in the final layer.  Some ranges may be empty.
    """

    owned: tuple[slice, ...]
    foreign: tuple[slice, ...]


def gather(buf: np.ndarray, ranges: tuple[slice, ...]) -> np.ndarray:
    """The entries of ``buf`` in ``ranges``, concatenated in order."""
    return np.concatenate([buf[r] for r in ranges])


def split_over(
    values: np.ndarray, ranges: tuple[slice, ...]
) -> Iterator[tuple[slice, np.ndarray]]:
    """Each range with the consecutive part of ``values`` that fills it;
    the inverse of :func:`gather`."""
    offset = 0
    for r in ranges:
        end = offset + r.stop - r.start
        yield r, values[offset:end]
        offset = end


class _Layout:
    """Where each tensor sits in the flat vector; computed once per geometry."""

    def __init__(self, shapes: tuple[tuple[int, ...], ...]) -> None:
        sizes = [math.prod(shape) for shape in shapes]
        ends = list(itertools.accumulate(sizes))
        self.shapes = shapes
        self.slices = [slice(end - size, end) for size, end in zip(sizes, ends)]
        self.size = ends[-1]
        # the final layer (weights, then bias) is the tail buf[final:]
        self.final = self.slices[-2].start
        self.header = b"".join(
            [_MAGIC, struct.pack("<HH", _VERSION, len(shapes))]
            + [struct.pack(f"<B{len(s)}I", len(s), *s) for s in shapes]
        )
        self.segments: dict[SegmentSpec, SegmentCoords] = {}


@functools.lru_cache(maxsize=64)
def _layout(shapes: tuple[tuple[int, ...], ...]) -> _Layout:
    return _Layout(shapes)


class ModelParams:
    """Ordered lower-layer tensors plus the segmented final dense layer.

    ``buf`` holds every parameter and is fixed at construction;
    ``lower_layers``, ``last_layer_weights`` and ``last_layer_bias`` are
    views into it, so writing through a view writes ``buf``.
    """

    def __init__(
        self,
        lower_layers: list[np.ndarray],
        last_layer_weights: np.ndarray,
        last_layer_bias: np.ndarray,
    ) -> None:
        tensors = [
            np.asarray(t, dtype=np.float64)
            for t in (*lower_layers, last_layer_weights, last_layer_bias)
        ]
        if tensors[-2].ndim != 2:
            raise ShapeMismatchError("final layer weights must be rank 2")
        if tensors[-1].ndim != 1:
            raise ShapeMismatchError("final layer bias must be rank 1")
        if tensors[-1].shape[0] != tensors[-2].shape[0]:
            raise ShapeMismatchError("final layer bias length must match weight rows")
        self.buf = np.concatenate([t.ravel() for t in tensors])
        self._layout = _layout(tuple(t.shape for t in tensors))

    @classmethod
    def _over(cls, buf: np.ndarray, layout: _Layout) -> "ModelParams":
        params = cls.__new__(cls)
        params.buf = buf
        params._layout = layout
        return params

    @functools.cached_property
    def _views(self) -> list[np.ndarray]:
        layout, lead = self._layout, self.buf.shape[:-1]
        return [
            self.buf[..., s].reshape(lead + shape)
            for s, shape in zip(layout.slices, layout.shapes)
        ]

    @property
    def shapes(self) -> tuple[tuple[int, ...], ...]:
        return self._layout.shapes

    @property
    def lower_layers(self) -> list[np.ndarray]:
        return self._views[:-2]

    @property
    def last_layer_weights(self) -> np.ndarray:
        return self._views[-2]

    @property
    def last_layer_bias(self) -> np.ndarray:
        return self._views[-1]

    @property
    def lower_size(self) -> int:
        """Entries of ``buf`` held by the lower layers; the final layer follows."""
        return self._layout.final

    def tensors(self) -> list[np.ndarray]:
        return list(self._views)

    def with_buf(self, buf: np.ndarray) -> "ModelParams":
        """Parameters of this geometry over ``buf``: one float64 vector, or
        a stack of them as the rows of a 2-D array."""
        if buf.ndim not in (1, 2) or buf.shape[-1] != self._layout.size:
            raise ShapeMismatchError(f"flat vector must have {self._layout.size} entries")
        return ModelParams._over(buf, self._layout)

    def unstacked(self) -> list["ModelParams"]:
        """One model per row of a stacked buffer, each a view of its row."""
        return [ModelParams._over(row, self._layout) for row in self.buf]

    def copy(self) -> "ModelParams":
        return ModelParams._over(self.buf.copy(), self._layout)


def segment_boundaries(num_units: int, num_segments: int) -> list[SegmentSpec]:
    """Split ``num_units`` output rows into contiguous segments.

    Sizes differ by at most one; the remainder goes to the lowest-indexed
    segments.
    """
    if num_units < 1:
        raise ConfigurationError("num_units must be >= 1")
    if not 1 <= num_segments <= num_units:
        raise ConfigurationError(
            f"num_segments must lie in [1, {num_units}], got {num_segments}"
        )
    base, extra = divmod(num_units, num_segments)
    specs = []
    start = 0
    for k in range(num_segments):
        size = base + (1 if k < extra else 0)
        specs.append(SegmentSpec(cluster_id=k, start=start, end=start + size - 1))
        start += size
    return specs


def mask_to_segment(update: ModelParams, segs: Sequence[SegmentSpec]) -> ModelParams:
    """Zero all final-layer rows outside each model's segment; lower layers
    pass through.

    ``segs`` holds one segment per model of ``update``, in row order: one
    for a single model.
    """
    masked = update.copy()
    for row, spec in zip(masked.buf.reshape(-1, masked.buf.shape[-1]), segs, strict=True):
        for r in segment_coords(update, spec).foreign:
            row[r] = 0.0
    return masked


def segment_coords(template: ModelParams, seg: SegmentSpec) -> SegmentCoords:
    """What ``seg`` owns in ``template``'s geometry; built once per pair."""
    layout = template._layout
    if seg not in layout.segments:
        units, width = layout.shapes[-2]
        if seg.end >= units:
            raise ShapeMismatchError(f"segment end {seg.end} outside {units} output units")
        weights, bias = layout.slices[-2].start, layout.slices[-1].start
        rows = (
            slice(weights + seg.start * width, weights + (seg.end + 1) * width),
            slice(bias + seg.start, bias + seg.end + 1),
        )
        layout.segments[seg] = SegmentCoords(
            owned=(slice(0, layout.final), *rows),
            foreign=(
                slice(weights, rows[0].start),
                slice(rows[0].stop, rows[1].start),
                slice(rows[1].stop, layout.size),
            ),
        )
    return layout.segments[seg]


def canonical_bytes(params: ModelParams) -> bytes:
    """Versioned, byte-deterministic encoding of all tensors as float64 LE."""
    if not np.isfinite(params.buf).all():
        raise SerializationError("non-finite parameter value")
    return params._layout.header + params.buf.astype("<f8", copy=False).tobytes()


def params_from_bytes(blob: bytes | memoryview) -> ModelParams:
    """Decode :func:`canonical_bytes` output; exact round trip.

    The returned ``buf`` is a read-only view of ``blob``'s payload, copied
    only on a big-endian host.  Every malformed encoding, including a
    geometry no model can have, raises :class:`SerializationError`.
    """
    if len(blob) < 8 or blob[:4] != _MAGIC:
        raise SerializationError("bad magic")
    version, count = struct.unpack_from("<HH", blob, 4)
    if version != _VERSION:
        raise SerializationError(f"unsupported version {version}")
    if count < 2:
        raise SerializationError("encoding must hold at least the final layer")
    offset = 8
    shapes: list[tuple[int, ...]] = []
    try:
        for _ in range(count):
            (rank,) = struct.unpack_from("<B", blob, offset)
            shapes.append(struct.unpack_from(f"<{rank}I", blob, offset + 1))
            offset += 1 + 4 * rank
    except struct.error as exc:
        raise SerializationError("truncated header") from exc
    weights, bias = shapes[-2:]
    if len(weights) != 2 or len(bias) != 1 or bias[0] != weights[0]:
        raise SerializationError("final two tensors must be a matrix and its bias")
    layout = _layout(tuple(shapes))
    if len(blob) - offset != 8 * layout.size:
        raise SerializationError("payload length does not match the header")
    buf = np.frombuffer(blob, dtype="<f8", offset=offset).astype(np.float64, copy=False)
    buf.flags.writeable = False
    return ModelParams._over(buf, layout)
