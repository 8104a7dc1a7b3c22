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

The screen is one blocked routine, ``_screen``, run in two precisions. The
first stage screens every row in float32; the rows it leaves go to the same
routine in float64; the rows that stage leaves take the one-shot expression.
A stage multiplies the centers' operand ``[-2c, |c|^2]`` by the rows ``[x, 1]``,
so each product value ``g = |c|^2 - 2 c.x`` is the squared distance
``d = |x - c|^2`` less the row's own ``|x|^2``. A center is close when its g is
at most the row's smallest g plus ``s R^2``, with ``R = |x| + max|c|`` and the
slack ``s = (4m + 16) eps = (8m + 32) u`` of the stage's dtype (u = eps / 2).
A row is certified when exactly one center is close.

Why a certified pick is the one-shot argmin, with no tie to break. Let
gamma_j = j u / (1 - j u); every d and every |g| is at most R^2.

- The operands. float32 rounds x, -2c and |c|^2 (computed in float64), each
  to within u of itself, so the exact product of the rounded operands is
  within (2u + u^2) 2|c||x| + 2u |c|^2 <= 3u R^2 of g. In float64, x and -2c
  are exact and |c|^2 is within gamma_m |c|^2.
- The product. An (m+1)-term dot product, summed in any order, with or
  without FMA, is within gamma_(m+1) of the sum of its terms' absolute
  values (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
  section 3.1), here at most (1 + 3u) R^2. So for every BLAS kernel and
  thread count each computed g is within e R^2 of its true value, with e
  about (m + 4) u in float32 and (2m + 1) u in float64.
- The threshold. The row's one close center a holds its smallest g, since
  a center whose g equals it would be close too. The threshold sum
  fl(g_a + fl(s R^2)) rounds by at most u (1 + e + s) R^2, and the computed
  R^2 is within a relative (m + 6) u of float64 of R^2. So each other g_j exceeds g_a by
  more than about (s - (1 + 2s + e) u) R^2, and its true value exceeds a's by
  that less 2 e R^2.
- The one-shot expression. Each float64 one-shot d is a sum of m rounded
  squares of rounded differences, within gamma_(m+2) d of d. So it picks a
  strictly when the true d_j - d_a exceeds 2 gamma_(m+2) R^2 (float64's u).

A certified row therefore needs s above about 2e + u + 2 gamma_(m+2): about
(2m + 9) u in float32 and (6m + 7) u in float64. s = (8m + 32) u exceeds
both, and its spare of at least (2m + 25) u covers the second-order terms
and the absolute rounding of subnormal values. A stage certifies only rows
whose scale R^2 lies in its window (tiny, 1 / tiny), ``_TINY``: (1e-30, 1e30)
for float32 and (1e-150, 1e150) for float64. There every operand, product
and sum of the stage is finite, and a value that is subnormal or underflows
rounds by at most 2^-150 (float32) or 2^-1075 (float64), at most
(m + 2) 1e-15 R^2 over a row's g in float32 and far less in float64. A row
outside the window, or one whose values overflow or are not finite, is not
certified, so overflow and NaN only move rows on to the next stage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import RngStream

MAX_LLOYD_ITERATIONS = 100
# elements in one block of the screen, k values per row, and of the exact path's
# temporary: a block's float64 close marks take 512 KB, so that the block and its
# temporaries stay in a 2 MB L2 cache
_BLOCK_ELEMS = 1 << 16
# each stage of the screen certifies only rows whose scale (|x| + max|c|)^2
# lies in (tiny, 1 / tiny) of its dtype; see the module docstring
_TINY = {np.dtype(np.float32): 1e-30, np.dtype(np.float64): 1e-150}


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


def _augmented(points: np.ndarray, dtype) -> np.ndarray:
    """The rows ``[x, 1]`` of ``points`` in ``dtype``, one per column: a screen
    stage's right operand, whose blocks BLAS reads as contiguous rows."""
    rows = np.empty((points.shape[1] + 1, points.shape[0]), dtype=dtype)
    with np.errstate(over="ignore"):  # a row beyond float32's range fails the window
        rows[:-1] = points.T
    rows[-1] = 1.0
    return rows


def _screen(rows: np.ndarray, norms: np.ndarray,
            centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One stage of the screen, in the dtype of ``rows`` (``_augmented``).

    ``norms`` are the rows' norms |x|, in float64. Blocks of _BLOCK_ELEMS // k
    rows are screened with ``g = [-2c, |c|^2] @ [x, 1]``, laid out one center
    per row so that the reductions run across the block. Returns each row's
    pick and whether it is certified; the pick of a row that is not certified
    means nothing.
    """
    k, m = centers.shape
    n = rows.shape[1]
    tiny = _TINY[rows.dtype]
    step = max(1, _BLOCK_ELEMS // k)
    nearest = np.empty(n, dtype=np.intp)
    certified = np.empty(n, dtype=bool)
    # one product counts each row's close centers and sums their indices,
    # exactly: float64 holds every integer up to 2^53, so no count wraps
    tally = np.stack([np.ones(k), np.arange(k, dtype=np.float64)])
    close = np.empty((k, min(step, n)))
    with np.errstate(over="ignore", invalid="ignore"):
        norms2 = np.einsum("ij,ij->i", centers, centers)
        operand = np.empty((k, m + 1), dtype=rows.dtype)
        operand[:, :-1] = -2.0 * centers  # a power-of-two scaling is exact
        operand[:, -1] = norms2
        scale = (norms + np.sqrt(norms2.max())) ** 2
        window = (scale > tiny) & (scale < 1 / tiny)
        limit = ((4 * m + 16) * np.finfo(rows.dtype).eps * scale).astype(rows.dtype)
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

    The float32 stage of the screen takes every row, the float64 stage the
    rows it leaves, and ``_exact_nearest`` the rows that stage leaves: ties,
    rows far from the origin, and rows at extreme or non-finite scales.

    ``point_norms`` are the rows' norms, ``_row_norms(points)``, and
    ``screen_rows`` their float32 rows, ``_augmented(points, np.float32)``; a
    caller that screens the same points many times makes them once.
    """
    if point_norms is None:
        point_norms = _row_norms(points)
    if screen_rows is None:
        screen_rows = _augmented(points, np.float32)
    nearest, certified = _screen(screen_rows, point_norms, centers)
    redo = np.flatnonzero(~certified)
    if len(redo):
        picks, certified = _screen(_augmented(points[redo], np.float64), point_norms[redo],
                                   centers)
        nearest[redo] = picks
        redo = redo[~certified]
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
    # one (n, m) difference buffer, squared in place, serves every draw
    diff = np.subtract(points, points[chosen[0]])
    d2 = np.square(diff, out=diff).sum(axis=1)
    near = np.empty(n)
    for c in range(1, k):
        total = float(d2.sum())
        if total == 0.0:
            raise ValueError(f"k must be in [1, {c} (distinct points)], got {k}")
        u = stream.uniform(0.0, total)
        idx = int(np.searchsorted(np.cumsum(d2), u, side="right"))
        chosen.append(min(idx, n - 1))
        np.subtract(points, points[chosen[-1]], out=diff)
        np.minimum(d2, np.square(diff, out=diff).sum(axis=1, out=near), out=d2)
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
    # the reduction and the divisor of .mean(axis=0), one division for all
    for c in range(len(centers)):
        np.add.reduce(grouped[bounds[c]:bounds[c + 1]], axis=0, out=centers[c])
    centers /= np.diff(bounds)[:, None]


def kmeans_cluster(points: np.ndarray, k: int, stream: RngStream,
                   max_iterations: int = MAX_LLOYD_ITERATIONS,
                   sse_trace: list | None = None) -> Clustering:
    """Lloyd iterations from k-means++ seeds until assignments stabilize.

    If ``sse_trace`` is a list, the within-cluster SSE after every
    assignment step is appended to it (a non-increasing sequence).
    """
    points = np.asarray(points, dtype=np.float64)
    norms, screen_rows = _row_norms(points), _augmented(points, np.float32)
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
