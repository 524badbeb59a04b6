"""Blob generation, Dirichlet sharding, label histograms, IDX parsing."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from conftest import write_idx
from gossipseg.datasets import (
    LabeledDataset,
    dirichlet_partition,
    load_idx_array,
    load_idx_dataset,
    synthetic_blobs,
)
from gossipseg.errors import ConfigurationError, InvalidInputError, SerializationError


def test_blobs_shapes_and_label_counts(rng):
    data = synthetic_blobs(num_classes=3, samples_per_class=40, input_dim=5, rng=rng)
    assert data.features.shape == (120, 5)
    assert data.labels.shape == (120,)
    counts = np.bincount(data.labels, minlength=3)
    assert counts.tolist() == [40, 40, 40]


def test_blobs_classes_are_separated(rng):
    data = synthetic_blobs(num_classes=4, samples_per_class=50, input_dim=8, rng=rng)
    centers = np.stack([data.features[data.labels == k].mean(axis=0) for k in range(4)])
    within = max(
        np.linalg.norm(data.features[data.labels == k] - centers[k], axis=1).mean()
        for k in range(4)
    )
    between = min(
        np.linalg.norm(centers[i] - centers[j])
        for i in range(4)
        for j in range(i + 1, 4)
    )
    assert between > within


def test_dataset_validation():
    with pytest.raises(InvalidInputError):
        LabeledDataset(np.zeros((3, 2)), np.array([0, 1]), 2)
    with pytest.raises(InvalidInputError):
        LabeledDataset(np.zeros((2, 2)), np.array([0, 5]), 2)
    with pytest.raises(InvalidInputError):
        LabeledDataset(np.zeros((0, 2)), np.array([], dtype=int), 2)


@settings(max_examples=40)
@given(
    num_clients=st.integers(min_value=1, max_value=12),
    beta=st.sampled_from([0.1, 0.5, 1.0, 10.0]),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_partition_is_exact_cover(num_clients, beta, seed):
    rng = np.random.default_rng(0)
    data = synthetic_blobs(num_classes=3, samples_per_class=30, input_dim=2, rng=rng)
    shards, _ = dirichlet_partition(data, num_clients, beta, seed)
    assert len(shards) == num_clients
    assert all(len(s) > 0 for s in shards)
    merged = np.concatenate(shards)
    # disjoint and covering: sorted union is exactly 0..n-1
    assert np.array_equal(np.sort(merged), np.arange(len(data)))


def test_partition_deterministic():
    rng = np.random.default_rng(0)
    data = synthetic_blobs(num_classes=2, samples_per_class=50, input_dim=2, rng=rng)
    a, _ = dirichlet_partition(data, 5, 0.5, seed=77)
    b, _ = dirichlet_partition(data, 5, 0.5, seed=77)
    c, _ = dirichlet_partition(data, 5, 0.5, seed=78)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert any(not np.array_equal(x, y) for x, y in zip(a, c))


def test_small_beta_is_more_skewed_than_large_beta():
    rng = np.random.default_rng(1)
    data = synthetic_blobs(num_classes=4, samples_per_class=100, input_dim=2, rng=rng)

    def mean_max_share(beta):
        shares = []
        for seed in range(20):
            _, counts = dirichlet_partition(data, 6, beta, seed)
            shares.extend(counts.max(axis=1) / counts.sum(axis=1))
        return float(np.mean(shares))

    assert mean_max_share(0.1) > mean_max_share(10.0) + 0.1


def _reference_partition(data, num_clients, beta, seed):
    """The partition with a re-feed that re-counts every other shard per
    attempt; also returns how many shards started empty and how many classes
    the re-feed skipped for want of a donor."""
    rng = np.random.default_rng(seed)
    shards = [[] for _ in range(num_clients)]
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
    empty = sum(1 for shard in shards if not shard)
    skipped = 0
    class_cycle = 0
    for client in range(num_clients):
        while not shards[client]:
            k = class_cycle % data.num_classes
            class_cycle += 1
            donor = -1
            donor_count = 0
            for other in range(num_clients):
                if other == client or len(shards[other]) < 2:
                    continue
                count = sum(1 for i in shards[other] if data.labels[i] == k)
                if count > donor_count:
                    donor, donor_count = other, count
            if donor < 0:
                skipped += 1
                continue
            candidates = [i for i in shards[donor] if data.labels[i] == k]
            pick = candidates[int(rng.integers(len(candidates)))]
            shards[donor].remove(pick)
            shards[client].append(pick)
    return [np.array(sorted(s), dtype=np.int64) for s in shards], empty, skipped


def _class_blocks(num_classes, samples_per_class):
    labels = np.repeat(np.arange(num_classes), samples_per_class)
    return LabeledDataset(np.zeros((len(labels), 1)), labels, num_classes)


def _assert_same_shards(data, num_clients, beta, seed):
    want, empty, skipped = _reference_partition(data, num_clients, beta, seed)
    got, counts = dirichlet_partition(data, num_clients, beta, seed)
    assert len(got) == len(want)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    # the count matrix, kept up to date through the re-feed, is each shard's recount
    recount = [np.bincount(data.labels[shard], minlength=data.num_classes) for shard in got]
    assert np.array_equal(counts, np.array(recount))
    return empty, skipped


@settings(deadline=None)
@given(
    num_classes=st.sampled_from([2, 4, 8]),
    samples_per_class=st.integers(min_value=1, max_value=100),
    num_clients=st.integers(min_value=1, max_value=256),
    beta=st.sampled_from([0.01, 0.1, 0.5, 10.0]),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_count_matrix_refeed_matches_reference(num_classes, samples_per_class, num_clients,
                                               beta, seed):
    data = _class_blocks(num_classes, samples_per_class)
    _assert_same_shards(data, min(num_clients, len(data)), beta, seed)


@pytest.mark.parametrize("num_classes, samples_per_class, num_clients, beta, seed", [
    (4, 3, 12, 0.1, 2), (4, 10, 40, 0.01, 1), (8, 5, 40, 0.01, 1), (8, 10, 80, 0.01, 1),
])
def test_count_matrix_refeed_cycles_and_skips_classes(num_classes, samples_per_class,
                                                      num_clients, beta, seed):
    # more than half the shards start empty, and some class has no donor
    data = _class_blocks(num_classes, samples_per_class)
    empty, skipped = _assert_same_shards(data, num_clients, beta, seed)
    assert 2 * empty > num_clients
    assert skipped > 0


def test_partition_guards():
    rng = np.random.default_rng(2)
    data = synthetic_blobs(num_classes=2, samples_per_class=3, input_dim=2, rng=rng)
    with pytest.raises(ConfigurationError):
        dirichlet_partition(data, 0, 0.5, 1)
    with pytest.raises(ConfigurationError):
        dirichlet_partition(data, 5, 0.0, 1)
    with pytest.raises(ConfigurationError):
        dirichlet_partition(data, 7, 0.5, 1)


def test_partition_counts_match_manual_count(rng):
    data = synthetic_blobs(num_classes=3, samples_per_class=20, input_dim=2, rng=rng)
    shards, counts = dirichlet_partition(data, 4, 0.5, seed=3)
    want = np.zeros((4, 3), dtype=np.int64)
    for client, shard in enumerate(shards):
        for idx in shard:
            want[client, data.labels[idx]] += 1
    assert counts.shape == (4, 3)
    assert np.array_equal(counts, want)
    assert counts.sum() == len(data)


def test_idx_array_roundtrip(tmp_path):
    values = np.arange(24, dtype=np.uint8).reshape(2, 3, 4)
    p = tmp_path / "images.idx"
    write_idx(p, 0x08, values.shape, values.tobytes())
    back = load_idx_array(p)
    assert back.dtype == np.uint8
    assert np.array_equal(back, values)


def test_idx_rejects_bad_magic_and_size(tmp_path):
    p = tmp_path / "bad.idx"
    p.write_bytes(b"\x01\x00\x08\x01" + struct.pack(">I", 1) + b"\x00")
    with pytest.raises(SerializationError):
        load_idx_array(p)
    write_idx(p, 0x08, (4,), b"\x00\x01")  # dims claim 4, payload has 2
    with pytest.raises(SerializationError):
        load_idx_array(p)
    write_idx(p, 0x77, (1,), b"\x00")
    with pytest.raises(SerializationError):
        load_idx_array(p)
    # a header cut inside its dims, a payload that is not whole elements,
    # and a zero-dim file without its one value
    malformed = [
        b"\x00\x00\x08\x02" + struct.pack(">I", 2) + b"\x00\x01",
        struct.pack(">BBBBI", 0, 0, 0x0C, 1, 2) + b"\x00" * 7,
        b"\x00\x00\x08\x00",
    ]
    for raw in malformed:
        p.write_bytes(raw)
        with pytest.raises(SerializationError):
            load_idx_array(p)
    # a missing file and a directory are rejected inputs, not crashes
    for unreadable in (tmp_path / "missing.idx", tmp_path):
        with pytest.raises(ConfigurationError):
            load_idx_array(unreadable)
    # images without a sample, or without a feature, hold no value to load
    labels = tmp_path / "labels.idx"
    for dims in ((0, 4), (3, 0)):
        write_idx(p, 0x08, dims, b"")
        write_idx(labels, 0x08, dims[:1], bytes(dims[0]))
        with pytest.raises(SerializationError):
            load_idx_dataset(p, labels, num_classes=2)
    # float labels that are not whole class indices are rejected, not truncated
    write_idx(p, 0x08, (3, 2), bytes(6))
    for bad in ([0.9, 1.7, -0.5], [0.0, np.nan, 1.0], [0.0, np.inf, 1.0]):
        write_idx(labels, 0x0D, (3,), np.array(bad, dtype=">f4").tobytes())
        with pytest.raises(InvalidInputError):
            load_idx_dataset(p, labels, num_classes=2)
    # float labels that are whole numbers still load
    write_idx(labels, 0x0D, (3,), np.array([0.0, 1.0, 2.0], dtype=">f4").tobytes())
    assert load_idx_dataset(p, labels, num_classes=3).labels.tolist() == [0, 1, 2]


def test_idx_dataset_flattens_and_normalizes(tmp_path):
    images = np.full((5, 2, 2), 255, dtype=np.uint8)
    labels = np.array([0, 1, 0, 1, 1], dtype=np.uint8)
    ip, lp = tmp_path / "img.idx", tmp_path / "lab.idx"
    write_idx(ip, 0x08, images.shape, images.tobytes())
    write_idx(lp, 0x08, labels.shape, labels.tobytes())
    data = load_idx_dataset(ip, lp, num_classes=2)
    assert data.features.shape == (5, 4)
    assert data.features.max() == 1.0
    assert np.array_equal(data.labels, labels)
    # float images already in [0, 1] load unscaled
    unit = np.linspace(0.0, 1.0, 20, dtype=">f4").reshape(5, 2, 2)
    write_idx(ip, 0x0D, unit.shape, unit.tobytes())
    data = load_idx_dataset(ip, lp, num_classes=2)
    assert np.array_equal(data.features, unit.reshape(5, 4).astype(np.float64))
