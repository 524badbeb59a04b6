"""Seeding, nearest-centroid assignment, and the single clustering pass."""

import random
import warnings

import numpy as np
import pytest

from gossipseg import paillier
from gossipseg.clustering import assign_to_nearest, kmeanspp_seed, one_shot_cluster
from gossipseg.errors import ConfigurationError


def two_clump_points():
    left = np.array([[0.0, 0.0], [0.1, 0.0], [0.0, 0.1]])
    right = left + np.array([100.0, 0.0])
    return np.vstack([left, right])


def test_seeds_are_input_rows(rng):
    points = rng.normal(size=(20, 3))
    seeds = kmeanspp_seed(points, 4, rng)
    assert seeds.shape == (4, 3)
    for seed in seeds:
        assert any(np.array_equal(seed, p) for p in points)


def test_squared_distance_sampling_separates_clumps():
    # with clumps 100 apart and radius 0.1, the second seed lands in the
    # other clump with probability ~ 30000 / 30000.03; allow a wide margin
    points = two_clump_points()
    hits = 0
    for trial in range(200):
        rng = np.random.default_rng(trial)
        seeds = kmeanspp_seed(points, 2, rng)
        sides = {float(s[0]) > 50.0 for s in seeds}
        hits += len(sides) == 2
    assert hits >= 195


def test_degenerate_points_fall_back_to_uniform():
    points = np.zeros((4, 2))
    rng = np.random.default_rng(0)
    seeds = kmeanspp_seed(points, 3, rng)
    assert seeds.shape == (3, 2)
    assert not seeds.any()


def test_seed_guards(rng):
    with pytest.raises(ConfigurationError):
        kmeanspp_seed(np.zeros((3, 2)), 4, rng)
    with pytest.raises(ConfigurationError):
        kmeanspp_seed(np.zeros((3, 2)), 0, rng)


def test_seed_rejects_overflowing_distances(rng):
    # squared distances of 1e160-scale points overflow to inf; the draw's
    # probabilities would be NaN
    points = np.array([[0.0, 0.0], [1e160, 0.0], [0.0, -1e160]])
    with pytest.raises(ConfigurationError, match="overflow"):
        kmeanspp_seed(points, 2, rng)
    # one seed draws nothing by distance
    assert kmeanspp_seed(points, 1, rng).shape == (1, 2)


def assign_oracle(points, centroids):
    """Double loop with explicit lowest-index tie break."""
    out = []
    for p in points:
        best, best_d = 0, None
        for j, c in enumerate(centroids):
            d = float(((p - c) ** 2).sum())
            if best_d is None or d < best_d:
                best, best_d = j, d
        out.append(best)
    return np.array(out)


def test_assignment_matches_brute_force(rng):
    points = rng.normal(size=(30, 4))
    centroids = rng.normal(size=(5, 4))
    got = assign_to_nearest(points, centroids)
    assert np.array_equal(got, assign_oracle(points, centroids))


def test_assignment_tie_goes_to_lowest_index():
    centroids = np.array([[0.0], [2.0]])
    points = np.array([[1.0]])  # exactly halfway
    assert assign_to_nearest(points, centroids)[0] == 0


def uniformish_distributions(rng, peers, classes=4):
    w = rng.random((peers, classes)) + 0.1
    return w / w.sum(axis=1, keepdims=True)


def grouped_distributions():
    # peers 0-2 concentrated on class 0, peers 3-5 on class 2
    return np.array([
        [0.9, 0.05, 0.03, 0.02],
        [0.85, 0.1, 0.03, 0.02],
        [0.88, 0.07, 0.03, 0.02],
        [0.02, 0.03, 0.9, 0.05],
        [0.02, 0.03, 0.85, 0.1],
        [0.03, 0.02, 0.88, 0.07],
    ])


def test_one_shot_groups_similar_peers(small_keypair):
    result = one_shot_cluster(
        grouped_distributions(), 2, np.random.default_rng(4), small_keypair, random.Random(11)
    )
    assignment = result.assignment
    assert set(assignment) == set(range(6))
    first_group = {assignment[p] for p in (0, 1, 2)}
    second_group = {assignment[p] for p in (3, 4, 5)}
    assert len(first_group) == 1 and len(second_group) == 1
    assert first_group != second_group


def test_one_shot_centroids_match_plaintext_means(small_keypair):
    dists = grouped_distributions()
    result = one_shot_cluster(dists, 2, np.random.default_rng(4), small_keypair, random.Random(12))
    for cid, centroid in enumerate(result.centroids):
        members = [p for p, c in result.assignment.items() if c == cid]
        assert members
        want = dists[members].mean(axis=0)
        # each component carries at most the fixed-point rounding error
        assert np.max(np.abs(centroid - want)) <= 1.0 / paillier.SCALE


def test_one_shot_repairs_empty_clusters(small_keypair):
    dists = np.full((3, 4), 0.25)
    result = one_shot_cluster(dists, 2, np.random.default_rng(0), small_keypair, random.Random(13))
    sizes = np.bincount(list(result.assignment.values()), minlength=2)
    assert (sizes >= 1).all()
    assert sizes.sum() == 3


def test_one_shot_deterministic(small_keypair):
    dists = grouped_distributions()
    runs = []
    for _ in range(2):
        runs.append(
            one_shot_cluster(dists, 2, np.random.default_rng(5), small_keypair, random.Random(21))
        )
    assert runs[0].assignment == runs[1].assignment
    for x, y in zip(runs[0].centroids, runs[1].centroids):
        assert np.array_equal(x, y)


def test_one_shot_noised_assignment_still_partitions(small_keypair):
    rng = np.random.default_rng(6)
    dists = uniformish_distributions(np.random.default_rng(3), 8)
    result = one_shot_cluster(
        dists, 3, rng, small_keypair, random.Random(14), assignment_sigma=0.05, assignment_clip=1.0
    )
    sizes = np.bincount(list(result.assignment.values()), minlength=3)
    assert (sizes >= 1).all()
    assert sizes.sum() == 8
    # centroids still built from the true distributions: rows stay stochastic
    for centroid in result.centroids:
        assert abs(centroid.sum() - 1.0) < 1e-3


def test_one_cluster_with_overflowing_noise_is_quiet(small_keypair):
    # noise of scale 1e160 overflows every squared distance to the one seed;
    # one cluster needs no comparison, so the pass must warn about nothing
    dists = uniformish_distributions(np.random.default_rng(3), 6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = one_shot_cluster(
            dists, 1, np.random.default_rng(8), small_keypair, random.Random(15),
            assignment_sigma=1e160, assignment_clip=1.0,
        )
    assert result.assignment == dict.fromkeys(range(6), 0)
    assert np.max(np.abs(result.centroids[0] - dists.mean(axis=0))) <= 1.0 / paillier.SCALE


def test_one_shot_needs_enough_peers(small_keypair):
    with pytest.raises(ConfigurationError):
        one_shot_cluster(
            np.array([[0.5, 0.5]]), 2, np.random.default_rng(0), small_keypair, random.Random(15)
        )
