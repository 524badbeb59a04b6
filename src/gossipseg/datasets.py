"""Synthetic data generation, IDX loading, and Dirichlet non-IID partitioning."""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, InvalidInputError, SerializationError


@dataclass
class LabeledDataset:
    """Feature matrix with integer class labels in ``[0, num_classes)``."""

    features: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2 or self.labels.ndim != 1:
            raise InvalidInputError("features must be (n, d), labels (n,)")
        if len(self.features) == 0:
            raise InvalidInputError("dataset is empty")
        if len(self.features) != len(self.labels):
            raise InvalidInputError("feature and label counts differ")
        if self.num_classes < 1:
            raise InvalidInputError("num_classes must be >= 1")
        if self.labels.min() < 0 or self.labels.max() >= self.num_classes:
            raise InvalidInputError("labels outside [0, num_classes)")

    def __len__(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class LabelDistribution:
    """Per-class sample frequencies of one shard; sums to one."""

    probs: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "probs", np.asarray(self.probs, dtype=np.float64))
        if self.probs.ndim != 1:
            raise InvalidInputError("distribution must be a vector")
        if np.any(self.probs < 0) or abs(float(self.probs.sum()) - 1.0) > 1e-9:
            raise InvalidInputError("distribution must be non-negative and sum to 1")


def synthetic_blobs(
    num_classes: int,
    samples_per_class: int,
    input_dim: int,
    rng: np.random.Generator,
    center_scale: float = 3.0,
    spread: float = 0.6,
) -> LabeledDataset:
    """Well-separated Gaussian blobs, one blob per class."""
    if num_classes < 1 or samples_per_class < 1 or input_dim < 1:
        raise ConfigurationError("blob dimensions must be positive")
    centers = rng.normal(0.0, center_scale, size=(num_classes, input_dim))
    feats = []
    labels = []
    for k in range(num_classes):
        feats.append(rng.normal(centers[k], spread, size=(samples_per_class, input_dim)))
        labels.append(np.full(samples_per_class, k, dtype=np.int64))
    return LabeledDataset(np.concatenate(feats), np.concatenate(labels), num_classes)


def load_idx_array(path: str | Path) -> np.ndarray:
    """Parse one IDX file (big-endian magic, dims, then raw values).

    A file that cannot be read is a rejected input; a header cut short, or a
    payload that is not exactly the values its dims give, does not parse.
    """
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise ConfigurationError(f"cannot read {path}: {exc}") from exc
    if len(raw) < 4:
        raise SerializationError("IDX file too short")
    zero1, zero2, dtype_code, ndim = struct.unpack_from(">BBBB", raw, 0)
    if zero1 != 0 or zero2 != 0:
        raise SerializationError("bad IDX magic")
    dtypes = {0x08: np.uint8, 0x09: np.int8, 0x0B: ">i2", 0x0C: ">i4", 0x0D: ">f4", 0x0E: ">f8"}
    if dtype_code not in dtypes:
        raise SerializationError(f"unsupported IDX dtype 0x{dtype_code:02x}")
    offset = 4
    dims = []
    for _ in range(ndim):
        if len(raw) < offset + 4:
            raise SerializationError("IDX header shorter than its dims")
        (d,) = struct.unpack_from(">I", raw, offset)
        dims.append(d)
        offset += 4
    dtype = np.dtype(dtypes[dtype_code])
    expected = math.prod(dims)
    if len(raw) - offset != expected * dtype.itemsize:
        raise SerializationError("IDX payload size does not match dims")
    return np.frombuffer(raw, dtype=dtype, offset=offset).reshape(dims).copy()


def load_idx_dataset(
    images_path: str | Path,
    labels_path: str | Path,
    num_classes: int,
) -> LabeledDataset:
    """Build a dataset from an IDX image file and an IDX label file.

    Images whose largest value is above 1 are divided by 255. Labels must be
    whole class indices, in a float label file too.
    """
    images = load_idx_array(images_path).astype(np.float64)
    labels = load_idx_array(labels_path)
    # checked before the cast, which would truncate 0.9 to 0; NaN fails every test
    if not np.all((labels == np.floor(labels)) & (labels >= 0) & (labels < num_classes)):
        raise InvalidInputError("IDX labels must be whole numbers in [0, num_classes)")
    labels = labels.astype(np.int64)
    if images.ndim < 2 or images.size == 0:
        raise SerializationError("image array must have at least 2 dims and one value")
    images = images.reshape(images.shape[0], -1)
    if images.max() > 1.0:
        images = images / 255.0
    return LabeledDataset(images, labels, num_classes)


def dirichlet_partition(
    data: LabeledDataset,
    num_clients: int,
    beta: float,
    seed: int,
) -> list[np.ndarray]:
    """Split sample indices into ``num_clients`` disjoint, covering shards.

    For every class, per-client proportions are drawn from a symmetric
    Dirichlet with concentration ``beta``, realized by normalized Gamma
    draws.  Counts are floored per client; leftover samples are assigned to
    uniformly random clients.  Clients left empty are re-fed a single sample,
    cycling across classes and taking from the richest shard for that class;
    one (clients x classes) count matrix, updated on each move, finds it.
    """
    if num_clients < 1:
        raise ConfigurationError("num_clients must be >= 1")
    if beta <= 0:
        raise ConfigurationError("beta must be positive")
    if num_clients > len(data):
        raise ConfigurationError("more clients than samples")
    rng = np.random.default_rng(seed)
    shards: list[list[int]] = [[] for _ in range(num_clients)]
    for k in range(data.num_classes):
        class_idx = np.flatnonzero(data.labels == k)
        if class_idx.size == 0:
            continue
        class_idx = rng.permutation(class_idx)
        weights = rng.gamma(beta, 1.0, size=num_clients)
        total = weights.sum()
        props = weights / total if total > 0 else np.full(num_clients, 1.0 / num_clients)
        counts = np.floor(props * class_idx.size).astype(int)
        offset = 0
        for client, count in enumerate(counts):
            shards[client].extend(class_idx[offset : offset + count].tolist())
            offset += count
        for sample in class_idx[offset:]:
            shards[int(rng.integers(num_clients))].append(int(sample))

    # Re-feed empty shards: one sample makes a shard non-empty. The donor is
    # the first client with the strictly largest count of the class among
    # those that keep at least one sample of their own.
    label_counts = np.array(
        [np.bincount(data.labels[s], minlength=data.num_classes) for s in shards]
    )
    class_cycle = 0
    for client in range(num_clients):
        while not shards[client]:
            k = class_cycle % data.num_classes
            class_cycle += 1
            donors = np.where(label_counts.sum(axis=1) >= 2, label_counts[:, k], 0)
            donor = int(donors.argmax())
            if donors[donor] == 0:
                continue
            candidates = [i for i in shards[donor] if data.labels[i] == k]
            pick = candidates[int(rng.integers(len(candidates)))]
            shards[donor].remove(pick)
            shards[client].append(pick)
            label_counts[donor, k] -= 1
            label_counts[client, k] += 1
    return [np.array(sorted(s), dtype=np.int64) for s in shards]


def label_distribution(shard: np.ndarray, data: LabeledDataset) -> LabelDistribution:
    """Class frequency vector of one shard."""
    shard = np.asarray(shard, dtype=np.int64)
    if shard.size == 0:
        raise InvalidInputError("shard is empty")
    counts = np.bincount(data.labels[shard], minlength=data.num_classes).astype(np.float64)
    return LabelDistribution(counts / counts.sum())
