"""k-means++ discretization and equivalence-class construction.

Numeric rows are clustered so that rows sharing a cluster count as carrying
identical categorical features; each occupied cluster then forms one
equivalence class whose conditional probability is the exact fraction of
positive-labelled members.

Each assignment step screens every row with one BLAS product and keeps a
row's pick only when an error bound proves that the one-shot distance
expression picks the same center; the other rows go through that expression.
So every assignment, center and SSE is bit for bit that of the one-shot
expression, for any BLAS kernel and thread count.

The screen subtracts each row's smallest value from all of its values and
certifies a row when exactly one center stays within the bound. That is the
test "the second smallest exceeds the smallest by more than the bound": the
subtraction rounds monotonically, so the smallest of the rounded differences
to the other centers is the rounded difference of the second smallest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import RngStream

MAX_LLOYD_ITERATIONS = 100
# float64 elements in one block of the screen, k values per row: 512 KB, so that the
# block and its temporaries stay in a 2 MB L2 cache
_BLOCK_ELEMS = 1 << 16


@dataclass(frozen=True)
class Clustering:
    k: int
    centers: np.ndarray  # (k, m)
    assignments: np.ndarray  # (n,) cluster index per row
    iterations: int  # Lloyd updates that ran
    converged: bool  # the loop stopped because the assignments repeated

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


def _exact_nearest(points: np.ndarray, centers: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Nearest center of each row ``points[rows]``, by the one-shot expression.

    This is the argmin, ties toward the lowest index, of the (n, k, m)
    expression ``((p - c) ** 2).sum(axis=2)``, which defines every
    assignment. It is taken a block at a time, so the temporary stays
    _BLOCK_ELEMS long.
    """
    step = max(1, _BLOCK_ELEMS // centers.size)
    nearest = np.empty(len(rows), dtype=np.intp)
    for s in range(0, len(rows), step):
        p = points[rows[s:s + step]]
        nearest[s:s + step] = np.argmin(((p[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2),
                                        axis=1)
    return nearest


def _row_norms(points: np.ndarray) -> np.ndarray:
    """Euclidean norm of every row."""
    return np.sqrt(np.einsum("ij,ij->i", points, points))


def _nearest(points: np.ndarray, centers: np.ndarray,
             point_norms: np.ndarray | None = None) -> np.ndarray:
    """Nearest center of every row, as ``_exact_nearest`` gives it.

    Blocks of _BLOCK_ELEMS // k rows are screened with ``g = (-2 c) @ p.T
    + |c|^2``, which is each d2 less the row's own |p|^2, laid out one
    center per row so that the reductions run across the block. Each row's
    g less its smallest g marks the centers within ``_distance_slack``
    times ``(|p| + max|c|)^2`` of that smallest as close. A row keeps its
    close center when it has exactly one; every other row (ties, rows
    far from the origin, and non-finite or extreme scales) takes the exact
    expression. Overflow in the screen only sends rows to that path.

    This count test certifies the rows that the gap test "smallest other g
    less the smallest exceeds the slack" certifies, with the same pick a:
    rounding is monotone, so the smallest of fl(g_c - g_a) over c != a is
    fl(min_other - g_a). A tie leaves two or more close centers, and a NaN
    or infinite smallest g leaves none.

    ``point_norms`` are the rows' norms, ``_row_norms(points)``; a caller
    that screens the same points many times computes them once.
    """
    k = centers.shape[0]
    slack = _distance_slack(points.shape[1])
    step = max(1, _BLOCK_ELEMS // k)
    if point_norms is None:
        point_norms = _row_norms(points)
    nearest = np.empty(points.shape[0], dtype=np.intp)
    certified = np.empty(points.shape[0], dtype=bool)
    # one product counts each row's close centers and sums their indices,
    # exactly: float64 holds every integer up to 2^53, so no count wraps
    tally = np.stack([np.ones(k), np.arange(k, dtype=np.float64)])
    with np.errstate(over="ignore", invalid="ignore"):
        norms2 = np.einsum("ij,ij->i", centers, centers)[:, None]
        scaled = -2.0 * centers  # a power-of-two scaling is exact
        radius = np.sqrt(norms2.max())
        for s in range(0, points.shape[0], step):
            g = scaled @ points[s:s + step].T
            g += norms2
            g -= g.min(axis=0)
            scale = (point_norms[s:s + step] + radius) ** 2
            count, pick = tally @ (g <= slack * scale)
            certified[s:s + step] = (count == 1) & (scale > _TINY) & (scale < 1 / _TINY)
            nearest[s:s + step] = pick
    redo = np.flatnonzero(~certified)
    if len(redo):
        nearest[redo] = _exact_nearest(points, centers, redo)
    return nearest


def within_sse(points: np.ndarray, centers: np.ndarray, assignments: np.ndarray) -> float:
    diff = points - centers[assignments]
    return float((diff * diff).sum())


def kmeanspp_seed(points: np.ndarray, k: int, stream: RngStream) -> np.ndarray:
    """Choose k distinct initial centers by distance-squared roulette.

    The first center is a uniformly chosen row; each subsequent center is
    drawn with probability proportional to its squared distance from the
    nearest already-chosen center. A zero total before center c is drawn
    means that every row equals one of the c centers already chosen, or
    lies so close to one that its squared distance underflows, so the k
    centers cannot all be distinct.
    """
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    if k < 1 or n == 0:
        raise ValueError(f"k must be at least 1 and the points non-empty, got k = {k} "
                         f"for {n} points")

    chosen = [stream.randrange(n)]
    d2 = ((points - points[chosen[0]]) ** 2).sum(axis=1)
    for c in range(1, k):
        total = float(d2.sum())
        if total == 0.0:
            raise ValueError(f"k must be in [1, {c} (distinct points)], got {k}")
        u = stream.uniform(0.0, total)
        idx = int(np.searchsorted(np.cumsum(d2), u, side="right"))
        chosen.append(min(idx, n - 1))
        d2 = np.minimum(d2, ((points - points[chosen[-1]]) ** 2).sum(axis=1))
    return points[chosen]


def _assign_with_repair(points: np.ndarray, centers: np.ndarray,
                        point_norms: np.ndarray) -> np.ndarray:
    """Nearest-center assignment; empty clusters grab the farthest point."""
    k = centers.shape[0]
    assignments = _nearest(points, centers, point_norms)
    counts = np.bincount(assignments, minlength=k)
    for c in range(k):
        if not counts[c]:
            dist = ((points - centers[assignments]) ** 2).sum(axis=1)
            far = int(np.argmax(dist))
            centers[c] = points[far]
            assignments = _nearest(points, centers, point_norms)
            counts = np.bincount(assignments, minlength=k)
    return assignments


# The screen certifies only rows whose scale (|p| + max|c|)^2 lies in
# (_TINY, 1 / _TINY): below, squares go subnormal and round by an absolute
# amount rather than a relative one; above, the screen's products may overflow.
_TINY = 1e-150


def _distance_slack(m: int) -> float:
    """Relative slack of the screen in ``_nearest``, for m features.

    With u = eps / 2, gamma_j = j u / (1 - j u) and R = |p| + max|c|, any
    m-term dot product is within gamma_m of the sum of its terms' absolute
    values, in any summation order and with or without FMA, so for every
    BLAS kernel and thread count each screen value g_j is within
    gamma_(m+1) R^2 of its true value d_j - |p|^2. Each one-shot d2 is a
    sum of m non-negative rounded squares of rounded differences, within
    gamma_(m+2) d_j of d_j, and d_j <= R^2. So when the screen's gap from
    its pick a to every other g exceeds 2 (gamma_(m+1) + gamma_(m+2)) R^2,
    about (2m + 3) eps R^2, the one-shot d2 of a is strictly the smallest
    after rounding: no tie and no other argmin. The slack is twice that
    and more, which covers the rounding of the gap and of the computed
    R^2, and, in the scale window of _TINY, the absolute rounding of
    subnormal terms.
    """
    return (4 * m + 16) * np.finfo(np.float64).eps


def _update_centers(points: np.ndarray, assignments: np.ndarray, centers: np.ndarray) -> None:
    """Move each center to the mean of its cluster's rows, in place.

    The sorted copy of the points is freed on return, so it never shares
    the peak with the distance rows that follow.
    """
    # each cluster's rows, in ascending row order, as one contiguous slice;
    # numpy sorts 16-bit keys stably by radix, and stability makes the
    # permutation the same for any key type
    keys = assignments.astype(np.uint16) if len(centers) <= 1 << 16 else assignments
    order = np.argsort(keys, kind="stable")
    grouped = np.take(points, order, axis=0)
    bounds = np.searchsorted(assignments[order], np.arange(len(centers) + 1))
    for c in range(len(centers)):
        centers[c] = grouped[bounds[c]:bounds[c + 1]].mean(axis=0)


def kmeans_cluster(points: np.ndarray, k: int, stream: RngStream,
                   max_iterations: int = MAX_LLOYD_ITERATIONS,
                   sse_trace: list | None = None) -> Clustering:
    """Lloyd iterations from k-means++ seeds until assignments stabilize.

    If ``sse_trace`` is a list, the within-cluster SSE after every
    assignment step is appended to it (a non-increasing sequence).
    """
    points = np.asarray(points, dtype=np.float64)
    norms = _row_norms(points)
    centers = kmeanspp_seed(points, k, stream)
    assignments = _assign_with_repair(points, centers, norms)
    if sse_trace is not None:
        sse_trace.append(within_sse(points, centers, assignments))
    iterations, converged = 0, False
    while iterations < max_iterations and not converged:
        iterations += 1
        _update_centers(points, assignments, centers)
        new_assignments = _assign_with_repair(points, centers, norms)
        if sse_trace is not None:
            sse_trace.append(within_sse(points, centers, new_assignments))
        converged = np.array_equal(new_assignments, assignments)
        assignments = new_assignments
    return Clustering(k, centers, assignments, iterations, converged)


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
