"""k-means++ discretization and equivalence-class construction.

Numeric rows are clustered so that rows sharing a cluster count as carrying
identical categorical features; each occupied cluster then forms one
equivalence class whose conditional probability is the exact fraction of
positive-labelled members.

The Lloyd loop keeps Hamerly bounds (Hamerly, "Making k-means even faster",
SDM 2010) on each row's distances and computes a full distance row only for
rows the bounds cannot pin to their cluster. The bounds carry enough slack
for the rounding of the squared distances, so every assignment, center and
SSE is bit for bit that of recomputing every row on every iteration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import RngStream

MAX_LLOYD_ITERATIONS = 100
# float64 elements in one (rows, k, m) block of point-center differences, about 1 MB
_BLOCK_ELEMS = 1 << 17


@dataclass(frozen=True)
class Clustering:
    k: int
    centers: np.ndarray  # (k, m)
    assignments: np.ndarray  # (n,) cluster index per row

    def __post_init__(self):
        counts = np.bincount(self.assignments, minlength=self.k)
        if len(counts) != self.k or not counts.all():
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


def _nearest_two(points: np.ndarray, centers: np.ndarray, rows_of: np.ndarray | None = None):
    """Nearest center and the squared distances to the nearest two centers.

    Covers the rows ``rows_of`` of ``points`` (all rows when None), a block at
    a time so the temporary stays _BLOCK_ELEMS long. Each row's d2 and its
    argmin (ties toward the lowest index) are those of the one-shot (n, k, m)
    expression. The second distance is the row's smallest d2 once its nearest
    entry is left out, and inf when there is one center.
    """
    n = points.shape[0] if rows_of is None else rows_of.shape[0]
    rows = max(1, _BLOCK_ELEMS // centers.size)
    nearest = np.empty(n, dtype=np.intp)
    first = np.empty(n)
    second = np.full(n, np.inf)
    for s in range(0, n, rows):
        p = points[s:s + rows] if rows_of is None else points[rows_of[s:s + rows]]
        d2 = ((p[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        near = np.argmin(d2, axis=1)
        at = np.arange(len(p))
        nearest[s:s + rows] = near
        first[s:s + rows] = d2[at, near]
        if centers.shape[0] > 1:
            d2[at, near] = np.inf
            second[s:s + rows] = d2.min(axis=1)
    return nearest, first, second


def _nearest(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    return _nearest_two(points, centers)[0]


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
    counts = np.bincount(assignments, minlength=k)
    for c in range(k):
        if not counts[c]:
            dist = ((points - centers[assignments]) ** 2).sum(axis=1)
            far = int(np.argmax(dist))
            centers[c] = points[far]
            assignments = _nearest(points, centers)
            counts = np.bincount(assignments, minlength=k)
    return assignments


# Below about 1e-154 a squared distance is subnormal and rounds by an absolute
# amount rather than a relative one, so a bound must clear _TINY to prove anything.
_TINY = 1e-150


def _distance_slack(m: int) -> float:
    """Relative slack that makes a bound of the square root of a computed d2.

    The square root of an m-term d2 is within about (m / 2 + 2) roundings of
    the true distance, and the slack is about four times that. So such a
    distance scaled by (1 + slack) or (1 - slack) bounds the true one, and a
    row passes the proof test of ``kmeans_cluster`` only when its own
    center's d2 is strictly the smallest after rounding too: no tie and no
    other argmin.
    """
    return (m + 8) * np.finfo(np.float64).eps


def _update_centers(points: np.ndarray, assignments: np.ndarray, centers: np.ndarray) -> None:
    """Move each center to the mean of its cluster's rows, in place.

    The sorted copy of the points is freed on return, so it never shares
    the peak with the distance rows that follow.
    """
    # each cluster's rows, in ascending row order, as one contiguous slice
    order = np.argsort(assignments, kind="stable")
    grouped = points[order]
    bounds = np.searchsorted(assignments[order], np.arange(len(centers) + 1))
    for c in range(len(centers)):
        centers[c] = grouped[bounds[c]:bounds[c + 1]].mean(axis=0)


def _all_bounds(points: np.ndarray, centers: np.ndarray, tol: float):
    """Assign every row (repairing empty clusters) and rebuild its bounds."""
    assignments, first, second = _nearest_two(points, centers)
    if not np.bincount(assignments, minlength=centers.shape[0]).all():
        assignments = _assign_with_repair(points, centers)
        _, first, second = _nearest_two(points, centers)
    return assignments, np.sqrt(first) * (1 + tol), np.sqrt(second) * (1 - tol)


def kmeans_cluster(points: np.ndarray, k: int, stream: RngStream,
                   max_iterations: int = MAX_LLOYD_ITERATIONS,
                   sse_trace: list | None = None) -> Clustering:
    """Lloyd iterations from k-means++ seeds until assignments stabilize.

    If ``sse_trace`` is a list, the within-cluster SSE after every
    assignment step is appended to it (a non-increasing sequence).

    ``upper[i]`` bounds row i's distance to its own center from above and
    ``lower[i]`` its distance to every other center from below. When a center
    moves, the bounds move by the distance it moved, so a row whose upper
    bound stays below its lower bound, or below half the gap from its center
    to the nearest other center, keeps its cluster without a distance row.
    """
    points = np.asarray(points, dtype=np.float64)
    tol = _distance_slack(points.shape[1])
    centers = kmeanspp_seed(points, k, stream)
    assignments, upper, lower = _all_bounds(points, centers, tol)
    if sse_trace is not None:
        sse_trace.append(within_sse(points, centers, assignments))
    for _ in range(max_iterations):
        previous = centers.copy()
        _update_centers(points, assignments, centers)
        moved = np.sqrt(((centers - previous) ** 2).sum(axis=1)) * (1 + tol)
        # one-ulp steps keep the sums' rounding on the safe side of each bound
        upper += moved[assignments]
        np.nextafter(upper, np.inf, out=upper)
        lower -= moved.max()
        np.nextafter(lower, -np.inf, out=lower)
        half_gap = np.sqrt(_nearest_two(centers, centers)[2]) * (0.5 * (1 - tol))
        proved = upper * (1 + tol) + _TINY < np.maximum(lower, half_gap[assignments])
        redo = np.flatnonzero(~proved)
        new_assignments = assignments.copy()
        near, first, second = _nearest_two(points, centers, redo)
        new_assignments[redo] = near
        upper[redo] = np.sqrt(first) * (1 + tol)
        lower[redo] = np.sqrt(second) * (1 - tol)
        if not np.bincount(new_assignments, minlength=k).all():
            new_assignments, upper, lower = _all_bounds(points, centers, tol)
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
