"""k-means++ discretization and equivalence-class construction.

Numeric rows are clustered so that rows sharing a cluster count as carrying
identical categorical features; each occupied cluster then forms one
equivalence class whose conditional probability is the exact fraction of
positive-labelled members.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import RngStream

MAX_LLOYD_ITERATIONS = 100


@dataclass(frozen=True)
class Clustering:
    k: int
    centers: np.ndarray  # (k, m)
    assignments: np.ndarray  # (n,) cluster index per row

    def __post_init__(self):
        occupied = set(int(a) for a in self.assignments)
        if occupied != set(range(self.k)):
            raise ValueError("every cluster must be occupied")


@dataclass(frozen=True)
class EquivalenceClass:
    """A non-empty set of instances with the same (discretized) features."""

    members: tuple[int, ...]
    positive_count: int

    def __post_init__(self):
        if not self.members:
            raise ValueError("equivalence class cannot be empty")
        if not 0 <= self.positive_count <= len(self.members):
            raise ValueError("positive_count out of range")

    @property
    def p(self) -> float:
        """Conditional probability of the positive label within the class."""
        return self.positive_count / len(self.members)

    @property
    def size(self) -> int:
        return len(self.members)


def _nearest(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    # squared Euclidean distances; argmin breaks ties toward the lowest index
    d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    return np.argmin(d2, axis=1)


def within_sse(points: np.ndarray, centers: np.ndarray, assignments: np.ndarray) -> float:
    diff = points - centers[assignments]
    return float((diff * diff).sum())


def kmeanspp_seed(points: np.ndarray, k: int, stream: RngStream) -> np.ndarray:
    """Choose k distinct initial centers by distance-squared roulette.

    The first center is a uniformly chosen row; each subsequent center is
    drawn with probability proportional to its squared distance from the
    nearest already-chosen center.
    """
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    n_distinct = np.unique(points, axis=0).shape[0]
    if not 1 <= k <= n_distinct:
        raise ValueError(f"k must be in [1, {n_distinct} (distinct points)], got {k}")

    centers = np.empty((k, points.shape[1]), dtype=np.float64)
    centers[0] = points[stream.randrange(n)]
    d2 = ((points - centers[0]) ** 2).sum(axis=1)
    for c in range(1, k):
        total = float(d2.sum())
        u = stream.uniform(0.0, total)
        idx = int(np.searchsorted(np.cumsum(d2), u, side="right"))
        idx = min(idx, n - 1)
        centers[c] = points[idx]
        d2 = np.minimum(d2, ((points - centers[c]) ** 2).sum(axis=1))
    return centers


def _assign_with_repair(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Nearest-center assignment; empty clusters grab the farthest point."""
    k = centers.shape[0]
    assignments = _nearest(points, centers)
    for c in range(k):
        if not (assignments == c).any():
            dist = ((points - centers[assignments]) ** 2).sum(axis=1)
            far = int(np.argmax(dist))
            centers[c] = points[far]
            assignments = _nearest(points, centers)
    return assignments


def kmeans_cluster(points: np.ndarray, k: int, stream: RngStream,
                   max_iterations: int = MAX_LLOYD_ITERATIONS,
                   sse_trace: list | None = None) -> Clustering:
    """Lloyd iterations from k-means++ seeds until assignments stabilize.

    If ``sse_trace`` is a list, the within-cluster SSE after every
    assignment step is appended to it (a non-increasing sequence).
    """
    points = np.asarray(points, dtype=np.float64)
    centers = kmeanspp_seed(points, k, stream)
    assignments = _assign_with_repair(points, centers)
    if sse_trace is not None:
        sse_trace.append(within_sse(points, centers, assignments))
    for _ in range(max_iterations):
        for c in range(k):
            centers[c] = points[assignments == c].mean(axis=0)
        new_assignments = _assign_with_repair(points, centers)
        if sse_trace is not None:
            sse_trace.append(within_sse(points, centers, new_assignments))
        if np.array_equal(new_assignments, assignments):
            break
        assignments = new_assignments
    return Clustering(k, centers, assignments)


def build_equivalence_classes(members, keys, labels) -> list[EquivalenceClass]:
    """One class per distinct key, carrying exact positive fractions.

    ``keys[j]`` is the category of instance ``members[j]`` (a cluster id, or
    any hashable such as the bytes of a raw feature row), and ``labels`` is
    indexed by instance. Members are listed in ascending order within a
    class, and classes are ordered by their smallest member.
    """
    if len(members) != len(keys):
        raise ValueError("members and keys must have the same length")
    labels = np.asarray(labels)
    groups: dict = {}
    for key, i in zip(keys, members):
        groups.setdefault(key, []).append(i)
    classes = []
    for group in groups.values():
        group.sort()
        classes.append(EquivalenceClass(tuple(group), int((labels[group] == 1).sum())))
    classes.sort(key=lambda c: c.members[0])
    return classes
