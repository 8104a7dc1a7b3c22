"""k-means++ discretization and equivalence-class construction.

Numeric rows are clustered so that rows sharing a cluster count as carrying
identical categorical features; each occupied cluster then forms one
equivalence class whose conditional probability is the exact fraction of
positive-labelled members.

Each assignment step screens every row and keeps a row's pick only when an
error bound proves that the one-shot distance expression picks the same
center; the other rows go through that expression. So every assignment,
center and SSE is bit for bit that of the one-shot expression, for any BLAS
kernel and thread count.

The screen, ``_screen``, runs in float32. It multiplies the centers' operand
``[-2c, |c|^2]`` by the rows ``[x, 1]``, so each product value
``g = |c|^2 - 2 c.x`` is the squared distance ``d = |x - c|^2`` less the row's
own ``|x|^2``. A center is close when its g is at most the row's smallest g
plus ``s R^2``, with ``R = |x| + max|c|`` and the slack
``s = (4m + 16) eps = (8m + 32) u`` of float32 (u = eps / 2 = 2^-24). A row is
certified when exactly one center is close.

Why a certified pick is the one-shot argmin, with no tie to break. Let
gamma_j = j u / (1 - j u); every d and every |g| is at most R^2.

- The operands. float32 rounds x, -2c and |c|^2 (computed in float64), each
  to within u of itself, so the exact product of the rounded operands is
  within (2u + u^2) 2|c||x| + 2u |c|^2 <= 3u R^2 of g.
- The product. An (m+1)-term dot product, summed in any order, with or
  without FMA, is within gamma_(m+1) of the sum of its terms' absolute
  values (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
  section 3.1), here at most (1 + 3u) R^2. So for every BLAS kernel and
  thread count each computed g is within e R^2 of its true value, with e
  about (m + 4) u.
- The threshold. The row's one close center a holds its smallest g, since
  a center whose g equals it would be close too. The threshold sum
  fl(g_a + fl(s R^2)) rounds by at most u (1 + e + s) R^2, and the computed
  R^2 is within a relative (m + 6) u of float64 of R^2. So each other g_j exceeds g_a by
  more than about (s - (1 + 2s + e) u) R^2, and its true value exceeds a's by
  that less 2 e R^2.
- The one-shot expression. Each float64 one-shot d is a sum of m rounded
  squares of rounded differences, within gamma_(m+2) d of d. So it picks a
  strictly when the true d_j - d_a exceeds 2 gamma_(m+2) R^2 (float64's u).

A certified row therefore needs s above about 2e + u + 2 gamma_(m+2), about
(2m + 9) u: the last term is in float64's u, 2^-29 of float32's.
s = (8m + 32) u exceeds it, and its spare of (6m + 23) u covers the
second-order terms and the absolute rounding of subnormal values. The screen
certifies only rows whose scale R^2 lies in its window (``_TINY``,
1 / ``_TINY``) = (1e-30, 1e30). There every operand, product and sum is
finite, and a value that is subnormal or underflows rounds by at most
2^-150, at most (m + 2) 1e-15 R^2 over a row's g. A row outside the window,
or one whose values overflow or are not finite, is not certified, so
overflow and NaN only send rows to the one-shot expression.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import RngStream

MAX_LLOYD_ITERATIONS = 100
# elements in one block of the screen, k values per row, and of the exact path's
# temporary: a block's float32 close marks take 256 KB, so that the block and
# its temporaries stay in a 2 MB L2 cache
_BLOCK_ELEMS = 1 << 16
# the screen certifies only rows whose scale (|x| + max|c|)^2 lies in
# (_TINY, 1 / _TINY); see the module docstring
_TINY = 1e-30
# up to this many features the center update sums with one bincount per
# feature, each over a strided column; at 16 one gather of each cluster's rows
# is faster (0.30 against 0.22 ms on 3800 x 16, k = 2, on a 2-CPU Xeon VM),
# and the crossover between 8 and 16 was not measured
_BINCOUNT_FEATURES = 8


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


def _augmented(points: np.ndarray) -> np.ndarray:
    """The float32 rows ``[x, 1]`` of ``points``, one per column: the screen's
    right operand, whose blocks BLAS reads as contiguous rows."""
    rows = np.empty((points.shape[1] + 1, points.shape[0]), dtype=np.float32)
    with np.errstate(over="ignore"):  # a row beyond float32's range fails the window
        rows[:-1] = points.T
    rows[-1] = 1.0
    return rows


def _screen(rows: np.ndarray, norms: np.ndarray,
            centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The float32 screen of ``rows``, laid out by ``_augmented``.

    ``norms`` are the rows' norms |x|, in float64. Blocks of _BLOCK_ELEMS // k
    rows are screened with ``g = [-2c, |c|^2] @ [x, 1]``, laid out one center
    per row so that the reductions run across the block. Returns each row's
    pick and whether it is certified; the pick of a row that is not certified
    means nothing.
    """
    k, m = centers.shape
    n = rows.shape[1]
    step = max(1, _BLOCK_ELEMS // k)
    nearest = np.empty(n, dtype=np.intp)
    certified = np.empty(n, dtype=bool)
    # one product counts each row's close centers and sums their indices. A
    # count and a lone pick are integers below k, exact in any summation order
    # in float32 while k < 2^24, so the screen marks and tallies in float32
    # below that; the sum of two or more picks may round, but certifies nothing
    marks_dtype = np.float32 if k < 1 << 24 else np.float64
    tally = np.stack([np.ones(k), np.arange(k, dtype=np.float64)]).astype(marks_dtype)
    close = np.empty((k, min(step, n)), dtype=marks_dtype)
    with np.errstate(over="ignore", invalid="ignore"):
        norms2 = np.einsum("ij,ij->i", centers, centers)
        operand = np.empty((k, m + 1), dtype=np.float32)
        operand[:, :-1] = -2.0 * centers  # a power-of-two scaling is exact
        operand[:, -1] = norms2
        scale = (norms + np.sqrt(norms2.max())) ** 2
        window = (scale > _TINY) & (scale < 1 / _TINY)
        limit = ((4 * m + 16) * np.finfo(np.float32).eps * scale).astype(np.float32)
        for s in range(0, n, step):
            g = operand @ rows[:, s:s + step]
            bound = g.min(axis=0)
            bound += limit[s:s + step]
            marks = close[:, :g.shape[1]]
            np.less_equal(g, bound, out=marks)
            count, pick = tally @ marks
            certified[s:s + step] = (count == 1) & window[s:s + step]
            nearest[s:s + step] = pick
    return nearest, certified


def _nearest(points: np.ndarray, centers: np.ndarray, point_norms: np.ndarray | None = None,
             screen_rows: np.ndarray | None = None) -> np.ndarray:
    """Nearest center of every row, as ``_exact_nearest`` gives it.

    The float32 screen takes every row, and ``_exact_nearest`` the rows it
    leaves: near ties, rows far from the origin relative to the gaps between
    centers, and rows at extreme or non-finite scales.

    ``point_norms`` are the rows' norms, ``_row_norms(points)``, and
    ``screen_rows`` their float32 rows, ``_augmented(points)``; a caller that
    screens the same points many times makes them once.
    """
    if point_norms is None:
        point_norms = _row_norms(points)
    if screen_rows is None:
        screen_rows = _augmented(points)
    nearest, certified = _screen(screen_rows, point_norms, centers)
    redo = np.flatnonzero(~certified)
    if len(redo):
        nearest[redo] = _exact_nearest(points, centers, redo)
    return nearest


def within_sse(points: np.ndarray, centers: np.ndarray, assignments: np.ndarray) -> float:
    diff = points - centers[assignments]
    return float((diff * diff).sum())


def _pairwise_sum(terms: np.ndarray) -> np.ndarray:
    """``terms.T.sum(axis=1)`` bit for bit, summed in place into ``terms[0]``,
    for terms that are not -0.0.

    numpy sums a contiguous run of fewer than 8 values one by one, a run of
    up to 128 in 8 interleaved partial sums joined pairwise, and a longer run
    as two halves, the first a multiple of 8 long. Here each value is a row,
    so the row sums of an (n, m) matrix take about m vector adds of n, where
    numpy makes n reductions of m.
    """
    m = len(terms)
    if m == 0:
        return np.zeros(terms.shape[1])
    if m < 8:
        for j in range(1, m):
            terms[0] += terms[j]
        return terms[0]
    if m > 128:
        half = m // 2 - m // 2 % 8
        _pairwise_sum(terms[:half])
        terms[0] += _pairwise_sum(terms[half:])
        return terms[0]
    tail = m - m % 8
    for j in range(8, tail, 8):
        terms[:8] += terms[j:j + 8]
    terms[0:8:2] += terms[1:8:2]
    terms[0:8:4] += terms[2:8:4]
    terms[0] += terms[4]
    for j in range(tail, m):
        terms[0] += terms[j]
    return terms[0]


def kmeanspp_seed(points: np.ndarray, k: int, stream: RngStream) -> np.ndarray:
    """Choose at most k distinct initial centers by distance-squared roulette.

    The first center is a uniformly chosen row; each subsequent center is
    drawn with probability proportional to its squared distance from the
    nearest already-chosen center. The drawing stops early when that total
    is 0: every row then equals a chosen center, or lies so close to one
    that its squared distance underflows, and the centers chosen so far are
    returned. So the rows give k centers, or one per distinct row when they
    hold fewer; as in ``np.unique``, -0.0 and 0.0 are one value, and a row
    whose squared distance to a center underflows counts as that center.
    A k below 1 or no points raise ValueError.
    """
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    if k < 1 or n == 0:
        raise ValueError(f"k must be at least 1 and the points non-empty, got k = {k} "
                         f"for {n} points")

    chosen = [stream.randrange(n)]
    # one (m, n) buffer of differences, one feature per row, serves every
    # draw, so each step is one long vector operation; its rows are summed in
    # numpy's order, so each squared distance is ((x - c) ** 2).sum() bit for bit
    diff = np.empty((points.shape[1], n))

    def squared_distances(center):
        np.subtract(points.T, center[:, None], out=diff)
        return _pairwise_sum(np.square(diff, out=diff))

    d2 = squared_distances(points[chosen[0]]).copy()
    for _ in range(1, k):
        total = float(d2.sum())
        if total == 0.0:
            break
        u = stream.uniform(0.0, total)
        idx = int(np.searchsorted(np.cumsum(d2), u, side="right"))
        # a draw past the cumulative sum's end, by rounding, takes the last
        # row of positive weight, never one that lies on a chosen center
        chosen.append(idx if idx < n else int(np.flatnonzero(d2)[-1]))
        np.minimum(d2, squared_distances(points[chosen[-1]]), out=d2)
    return points[chosen]


def _assign_with_repair(points: np.ndarray, centers: np.ndarray, point_norms: np.ndarray,
                        screen_rows: np.ndarray) -> np.ndarray:
    """Nearest-center assignment; empty clusters grab the farthest point."""
    k = centers.shape[0]
    assignments = _nearest(points, centers, point_norms, screen_rows)
    counts = np.bincount(assignments, minlength=k)
    for c in range(k):
        if not counts[c]:
            dist = ((points - centers[assignments]) ** 2).sum(axis=1)
            far = int(np.argmax(dist))
            centers[c] = points[far]
            assignments = _nearest(points, centers, point_norms, screen_rows)
            counts = np.bincount(assignments, minlength=k)
    return assignments


def _update_centers(points: np.ndarray, assignments: np.ndarray, centers: np.ndarray) -> None:
    """Move each center to the mean of its cluster's rows, in place.

    Each center is ``.mean(axis=0)`` of its rows in ascending row order:
    the same sums in the same order, and one division for all.
    """
    k, m = centers.shape
    counts = np.bincount(assignments, minlength=k)
    if 1 < m <= _BINCOUNT_FEATURES:
        # numpy sums an (n, m > 1) array's rows one by one from 0.0, in row
        # order, and so does bincount, one feature at a time
        for j in range(m):
            centers[:, j] = np.bincount(assignments, weights=points[:, j], minlength=k)
    else:
        # a single column is summed pairwise, and many features make bincount's
        # strided columns slow: each cluster's rows are gathered on their own,
        # in ascending row order; numpy sorts 16-bit keys stably by radix, and
        # stability makes the permutation the same for any key type
        keys = assignments.astype(np.uint16) if k <= 1 << 16 else assignments
        order = np.argsort(keys, kind="stable")
        bounds = np.concatenate([[0], np.cumsum(counts)])
        for c in range(k):
            np.add.reduce(np.take(points, order[bounds[c]:bounds[c + 1]], axis=0), axis=0,
                          out=centers[c])
    centers /= counts[:, None]


def kmeans_cluster(points: np.ndarray, k: int, stream: RngStream,
                   max_iterations: int = MAX_LLOYD_ITERATIONS,
                   sse_trace: list | None = None) -> Clustering:
    """Lloyd iterations from k-means++ seeds until assignments stabilize.

    ``k`` caps the clusters: the clustering's k is the number of centers
    ``kmeanspp_seed`` draws, which is fewer than ``k`` when the rows run out
    of distinct values (``min(k, len(np.unique(points, axis=0)))`` unless two
    rows' squared distance underflows).

    If ``sse_trace`` is a list, the within-cluster SSE after every
    assignment step is appended to it (a non-increasing sequence).
    """
    points = np.asarray(points, dtype=np.float64)
    norms, screen_rows = _row_norms(points), _augmented(points)
    centers = kmeanspp_seed(points, k, stream)
    assignments = _assign_with_repair(points, centers, norms, screen_rows)
    if sse_trace is not None:
        sse_trace.append(within_sse(points, centers, assignments))
    iterations, converged = 0, False
    while iterations < max_iterations and not converged:
        iterations += 1
        _update_centers(points, assignments, centers)
        new_assignments = _assign_with_repair(points, centers, norms, screen_rows)
        if sse_trace is not None:
            sse_trace.append(within_sse(points, centers, new_assignments))
        converged = np.array_equal(new_assignments, assignments)
        assignments = new_assignments
    return Clustering(len(centers), centers, assignments, iterations, converged)


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
