"""One-shot clustering of peers by their label distributions.

Seeding and assignment read each peer's plaintext distribution, noised only
when ``assignment_sigma`` is positive; the centroids are decrypted sums of
Paillier encryptions, which hide nothing from the party that runs this.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from . import paillier
from .errors import ConfigurationError
from .privacy import clip_and_noise


@dataclass
class ClusterAssignment:
    """Peer-to-cluster map plus the securely aggregated cluster centroids."""

    assignment: dict[int, int]
    centroids: list[np.ndarray]


def kmeanspp_seed(
    points: np.ndarray,
    num_clusters: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Pick ``num_clusters`` seed centroids.

    The first seed is uniform over points; each further seed is drawn with
    probability proportional to the squared distance to the nearest seed so
    far.  If every point coincides with a seed the draw falls back to
    uniform.  Points so far apart that their squared distances overflow, as
    heavily noised ones can be, are a rejected input.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or len(points) == 0:
        raise ConfigurationError("points must be a non-empty (n, d) matrix")
    if not 1 <= num_clusters <= len(points):
        raise ConfigurationError(
            f"num_clusters must lie in [1, {len(points)}], got {num_clusters}"
        )
    centroids = np.empty((num_clusters, points.shape[1]), dtype=np.float64)
    first = int(rng.integers(len(points)))
    centroids[0] = points[first]
    # a squared distance, or their sum, may overflow to inf; the check on the
    # total rejects that before any draw
    with np.errstate(over="ignore"):
        min_sq = np.sum((points - centroids[0]) ** 2, axis=1)
        for k in range(1, num_clusters):
            total = float(min_sq.sum())
            if not math.isfinite(total):
                raise ConfigurationError("squared distances between points overflow")
            if total > 0.0:
                pick = int(rng.choice(len(points), p=min_sq / total))
            else:
                pick = int(rng.integers(len(points)))
            centroids[k] = points[pick]
            min_sq = np.minimum(min_sq, np.sum((points - centroids[k]) ** 2, axis=1))
    return centroids


def assign_to_nearest(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Index of the nearest centroid per point; ties go to the lowest index.

    Squared distances that overflow to inf tie with each other, so a point
    whose every distance overflows goes to centroid 0; with one centroid,
    the only case :func:`kmeanspp_seed` lets through, that is exact.
    """
    points = np.asarray(points, dtype=np.float64)
    centroids = np.asarray(centroids, dtype=np.float64)
    if points.ndim != 2 or centroids.ndim != 2:
        raise ConfigurationError("points and centroids must be matrices")
    if points.shape[1] != centroids.shape[1]:
        raise ConfigurationError("points and centroids have different widths")
    with np.errstate(over="ignore"):
        sq = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    return np.argmin(sq, axis=1)


def one_shot_cluster(
    probs: np.ndarray,
    num_clusters: int,
    rng: np.random.Generator,
    keypair: paillier.PaillierKeyPair,
    blinding: random.Random | None,
    assignment_sigma: float = 0.0,
    assignment_clip: float = 1.0,
) -> ClusterAssignment:
    """Cluster peers once by label distribution; no iterative refinement.

    Row p of the (peers x classes) matrix ``probs`` is peer p's label
    distribution.  Seeding and assignment happen in a single pass.  When
    ``assignment_sigma`` is positive, clipped Gaussian noise is added to the
    plaintext vectors used for seeding and assignment; centroid aggregation
    always uses the true distributions, one packed encryption per peer per
    chunk of slots under ``keypair``, blinded from ``blinding`` (OS entropy
    when it is None).
    Empty clusters are repaired by moving in the peer farthest from its
    assigned centroid, taken from a cluster that keeps at least one member.
    """
    if len(probs) < num_clusters:
        raise ConfigurationError("need at least num_clusters peers")
    points = probs
    if assignment_sigma > 0.0:
        points = np.stack(
            [clip_and_noise(row, assignment_clip, assignment_sigma, rng) for row in points]
        )
    seeds = kmeanspp_seed(points, num_clusters, rng)
    labels = assign_to_nearest(points, seeds)

    counts = np.bincount(labels, minlength=num_clusters)
    while np.any(counts == 0):
        empty = int(np.flatnonzero(counts == 0)[0])
        dist_to_own = np.sum((points - seeds[labels]) ** 2, axis=1)
        movable = counts[labels] >= 2
        dist_to_own[~movable] = -1.0
        candidate = int(np.argmax(dist_to_own))
        counts[labels[candidate]] -= 1
        labels[candidate] = empty
        counts[empty] += 1

    # every registered peer may share a cluster, so slots are sized for all of
    # them; the registry on the ledger gives each peer that count
    contributors = len(probs)
    centroids: list[np.ndarray] = []
    for k in range(num_clusters):
        encrypted = [
            paillier.encrypt_vector(
                probs[p],
                keypair.public,
                blinding,
                contributors=contributors,
            )
            for p in np.flatnonzero(labels == k)
        ]
        centroids.append(paillier.secure_mean(encrypted, keypair))
    assignment = dict(enumerate(labels.tolist()))
    return ClusterAssignment(assignment=assignment, centroids=centroids)
