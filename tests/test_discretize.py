import hashlib
import itertools
import os
from fractions import Fraction
from pathlib import Path
import subprocess
import sys
import textwrap
import tracemalloc
import warnings

import numpy as np
import pytest

from trisect import (
    EquivalenceClass,
    RngStream,
    build_equivalence_classes,
    kmeans_cluster,
    kmeanspp_seed,
)
from trisect import discretize
from trisect.discretize import (
    _BLOCK_ELEMS,
    _exact_nearest,
    _nearest,
    within_sse,
)

from conftest import TOY_FEATURES, TOY_LABELS


def _partition(assignments):
    return frozenset(
        frozenset(int(i) for i in np.where(assignments == c)[0])
        for c in set(assignments)
    )


def _lloyd_fixed_point(points, centers):
    """Independent plain-Lloyd oracle run to convergence from given centers."""
    centers = centers.copy()
    prev = None
    for _ in range(200):
        d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        assign = np.argmin(d2, axis=1)
        if prev is not None and np.array_equal(assign, prev):
            break
        for c in range(centers.shape[0]):
            members = points[assign == c]
            if len(members):
                centers[c] = members.mean(axis=0)
        prev = assign
    return within_sse(points, centers, assign)


class TestSeeding:
    def test_exhaustive_k_returns_permutation(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [2.0, 2.0]])
        centers = kmeanspp_seed(pts, 4, RngStream(3, "seed"))
        assert {tuple(c) for c in centers} == {tuple(p) for p in pts}

    def test_k1_picks_one_point(self):
        pts = np.array([[1.0, 2.0], [3.0, 4.0]])
        centers = kmeanspp_seed(pts, 1, RngStream(0, "seed"))
        assert any(np.array_equal(centers[0], p) for p in pts)

    def test_deterministic(self):
        pts = np.arange(20, dtype=float).reshape(10, 2)
        a = kmeanspp_seed(pts, 3, RngStream(8, "seed"))
        b = kmeanspp_seed(pts, 3, RngStream(8, "seed"))
        assert np.array_equal(a, b)

    def test_k_above_distinct_points_rejected(self):
        pts = np.array([[1.0, 1.0], [1.0, 1.0], [2.0, 2.0]])
        with pytest.raises(ValueError):
            kmeanspp_seed(pts, 3, RngStream(0, "seed"))

    def test_the_rejection_names_the_distinct_points_found(self):
        pts = np.array([[1.0, 1.0], [2.0, 2.0], [1.0, 1.0], [2.0, 2.0], [3.0, 0.5]])
        with pytest.raises(ValueError, match=r"k must be in \[1, 3 \(distinct points\)\], got 4"):
            kmeanspp_seed(pts, 4, RngStream(0, "seed"))
        for points, k in ((pts, 0), (np.empty((0, 2)), 1)):
            with pytest.raises(ValueError, match="at least 1 and the points non-empty"):
                kmeanspp_seed(points, k, RngStream(0, "seed"))

    def test_distinct_rows_whose_squared_distance_underflows_are_too_few(self):
        # (1e-200)^2 is 0 in float64, so the roulette has nothing to draw from
        pts = np.array([[0.0], [1e-200]])
        with pytest.raises(ValueError, match=r"\[1, 1 \(distinct points\)\], got 2"):
            kmeanspp_seed(pts, 2, RngStream(0, "seed"))


class TestLloyd:
    def test_toy_misclassified_partition(self):
        # rows x1, x4, x5; the two Lloyd fixed points are {{x1},{x4,x5}}
        # and {{x4},{x1,x5}}, and the first is reached whenever x1 seeds
        pts = TOY_FEATURES[[0, 3, 4]]
        allowed = {
            frozenset({frozenset({0}), frozenset({1, 2})}),
            frozenset({frozenset({1}), frozenset({0, 2})}),
        }
        seen = set()
        for seed in range(20):
            cl = kmeans_cluster(pts, 2, RngStream(seed, "kmeans-level-1"))
            part = _partition(cl.assignments)
            assert part in allowed
            seen.add(part)
        assert frozenset({frozenset({0}), frozenset({1, 2})}) in seen

    def test_toy_input_converges(self):
        trace: list = []
        cl = kmeans_cluster(TOY_FEATURES[[0, 3, 4]], 2, RngStream(0, "kmeans-level-1"),
                            sse_trace=trace)
        assert cl.converged
        assert 1 <= cl.iterations == len(trace) - 1

    def test_iteration_cap_is_recorded(self):
        pts = np.random.default_rng(5).random((300, 2))
        full = kmeans_cluster(pts, 6, RngStream(5, "k"))
        assert full.converged and full.iterations > 2
        capped = kmeans_cluster(pts, 6, RngStream(5, "k"), max_iterations=1)
        assert capped.iterations == 1 and not capped.converged
        # assignments that repeat on the last allowed update still converge
        last = kmeans_cluster(pts, 6, RngStream(5, "k"), max_iterations=full.iterations)
        assert last.iterations == full.iterations and last.converged
        assert last.assignments.tobytes() == full.assignments.tobytes()
        short = kmeans_cluster(pts, 6, RngStream(5, "k"), max_iterations=full.iterations - 1)
        assert short.iterations == full.iterations - 1 and not short.converged
        none = kmeans_cluster(pts, 6, RngStream(5, "k"), max_iterations=0)
        assert none.iterations == 0 and not none.converged

    def test_degenerate_single_cluster(self):
        pts = np.ones((4, 3)) * 0.7
        cl = kmeans_cluster(pts, 1, RngStream(0, "k"))
        assert cl.assignments.tolist() == [0, 0, 0, 0]
        assert cl.centers[0] == pytest.approx([0.7, 0.7, 0.7])

    def test_final_sse_not_above_seeding_sse(self):
        for seed in range(10):
            stream = RngStream(seed, "pts")
            pts = np.array([[stream.uniform() for _ in range(3)] for _ in range(12)])
            seed_centers = kmeanspp_seed(pts, 3, RngStream(seed, "k"))
            d2 = ((pts[:, None, :] - seed_centers[None, :, :]) ** 2).sum(axis=2)
            seed_sse = within_sse(pts, seed_centers, np.argmin(d2, axis=1))
            cl = kmeans_cluster(pts, 3, RngStream(seed, "k"))
            assert within_sse(pts, cl.centers, cl.assignments) <= seed_sse + 1e-12

    def test_sse_monotone_non_increasing(self):
        for seed in range(10):
            stream = RngStream(seed, "mono")
            pts = np.array([[stream.uniform() for _ in range(2)] for _ in range(30)])
            trace: list = []
            kmeans_cluster(pts, 4, RngStream(seed, "k"), sse_trace=trace)
            assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))

    def test_nearest_center_invariant(self):
        for seed in range(10):
            stream = RngStream(seed, "nc")
            pts = np.array([[stream.uniform() for _ in range(3)] for _ in range(25)])
            cl = kmeans_cluster(pts, 3, RngStream(seed, "k"))
            d2 = ((pts[:, None, :] - cl.centers[None, :, :]) ** 2).sum(axis=2)
            assert np.array_equal(np.argmin(d2, axis=1), cl.assignments)

    def test_no_empty_cluster(self):
        for seed in range(10):
            stream = RngStream(seed, "ne")
            pts = np.array([[stream.uniform() for _ in range(2)] for _ in range(9)])
            cl = kmeans_cluster(pts, 4, RngStream(seed, "k"))
            assert set(cl.assignments) == set(range(4))

    def test_sse_is_a_lloyd_fixed_point_small_cases(self):
        # brute force over every initial center pair for n <= 8, k = 2
        for seed in range(6):
            stream = RngStream(seed, "bf")
            n = 5 + seed % 4
            pts = np.array([[stream.uniform() for _ in range(2)] for _ in range(n)])
            fixed_point_sses = {
                round(_lloyd_fixed_point(pts, pts[list(pair)].copy()), 9)
                for pair in itertools.combinations(range(n), 2)
            }
            cl = kmeans_cluster(pts, 2, RngStream(seed, "k"))
            got = round(within_sse(pts, cl.centers, cl.assignments), 9)
            assert any(abs(got - s) <= 1e-9 for s in fixed_point_sses)


class TestBlockedAssignment:
    """``_nearest`` works in row blocks; its result is the one-shot formula's."""

    @staticmethod
    def _one_shot(points, centers):
        return np.argmin(((points[:, None] - centers[None]) ** 2).sum(2), 1)

    # far from the origin, a rewrite as |x|^2 - 2x.c + |c|^2 loses the gaps
    # between distances to cancellation and changes many argmins
    @pytest.mark.parametrize("offset", [0.0, 1e7])
    @pytest.mark.parametrize("k, m", [(32, 8), (5, 3), (40, 40)])
    def test_equals_one_shot_at_block_edges(self, k, m, offset):
        rng = np.random.default_rng(k * 100 + m)
        centers = rng.random((k, m)) + offset
        rows = max(1, _BLOCK_ELEMS // centers.size)
        for n in (1, rows - 1, rows, rows + 1, 3 * rows + 5):
            points = rng.random((n, m)) + offset
            got = _nearest(points, centers)
            assert got.dtype == np.intp
            assert np.array_equal(got, self._one_shot(points, centers)), n
            # the exact path on a subset of the rows, taken in any order
            rows_of = rng.permutation(n)[:max(1, 2 * n // 3)]
            got = _exact_nearest(points, centers, rows_of)
            assert np.array_equal(got, self._one_shot(points[rows_of], centers))

    def test_duplicate_centers_tie_to_the_lowest_index(self):
        rng = np.random.default_rng(1)
        # a coarse grid makes exact ties between distinct centers common too
        base = np.round(rng.random((8, 8)) * 4) / 4
        centers = np.concatenate([base, base[::-1], base])
        rows = max(1, _BLOCK_ELEMS // centers.size)
        points = np.round(rng.random((2 * rows + 3, 8)) * 4) / 4
        got = _nearest(points, centers)
        assert np.array_equal(got, self._one_shot(points, centers))
        assert got.max() < 8  # every row's best center has a copy among the first 8

    def test_single_center(self):
        rows = _BLOCK_ELEMS // 4
        points = np.random.default_rng(2).random((3 * rows + 5, 4))
        got = _nearest(points, np.full((1, 4), 0.5))
        assert np.array_equal(got, np.zeros(len(points), dtype=np.intp))

    def test_pinned_clustering_bytes(self):
        cl = kmeans_cluster(np.random.default_rng(0).random((6000, 8)), 32,
                            RngStream(7, "kmeans-level-1"))
        digest = hashlib.sha256(cl.assignments.astype("<i8").tobytes()
                                + cl.centers.astype("<f8").tobytes()).hexdigest()
        assert digest == "d48858c1f024554686bd07c832d78c6a6dbc1003c53ea80870ae9f966505a614"

    def test_memory_does_not_grow_with_n_times_k(self):
        # the one-shot (n, k, m) difference tensor alone would be 41 MB here
        points = np.random.default_rng(0).random((20000, 8))
        tracemalloc.start()
        try:
            kmeans_cluster(points, 32, RngStream(7, "kmeans-level-1"), max_iterations=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8e6, f"peak {peak / 1e6:.1f} MB"


class TestCenterUpdate:
    """The center update's sort key is 16-bit up to k = 2^16 and the
    assignments beyond; either way each center is the mask mean."""

    # the key type does not depend on m, nor the mean on the key type, so
    # three cases cover both sides of the cutoff and both mean paths
    @pytest.mark.parametrize("k, m", [(1 << 16, 1), (1 << 16, 3), ((1 << 16) + 1, 1)])
    def test_each_center_is_its_rows_mean_bitwise(self, k, m):
        rng = np.random.default_rng(k + m)
        # every cluster occupied, most by one row; cluster 7 by 300 rows,
        # where a (rows, 1) mean sums pairwise and not in row order, and a
        # per-feature running sum (np.bincount's) would differ
        assignments = rng.permutation(np.concatenate([np.arange(k), np.full(299, 7),
                                                      rng.integers(0, k, 500)]))
        points = rng.standard_normal((len(assignments), m)) * 10.0 ** rng.integers(
            -8, 9, (len(assignments), 1))
        # in row order, every term after the first 1.0 rounds away
        rows = np.flatnonzero(assignments == 7)
        points[rows] = rng.random((len(rows), m)) * 1e-16
        points[rows[0]] = 1.0
        centers = np.empty((k, m))
        discretize._update_centers(points, assignments, centers)
        # the rows of ``assignments == c``, in ascending order, for every c
        groups: dict = {}
        for row, c in enumerate(assignments.tolist()):
            groups.setdefault(c, []).append(row)
        want = np.array([points[groups[c]].mean(axis=0) for c in range(k)])
        assert centers.tobytes() == want.tobytes()
        big = points[assignments == 7]
        assert centers[7].tobytes() == big.mean(axis=0).tobytes()
        if m == 1:  # the data tells pairwise from in-order summation apart
            assert big.sum(axis=0)[0] != big.cumsum(axis=0)[-1, 0]


def _reference_lloyd(points, centers, max_iterations=discretize.MAX_LLOYD_ITERATIONS):
    """The Lloyd loop with a full one-shot d2 on every iteration.

    Starts from ``centers`` (updated in place) and returns the assignments
    and the SSE trace.
    """
    k = centers.shape[0]

    def nearest():
        return np.argmin(((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2), axis=1)

    def assign_with_repair():
        assignments = nearest()
        for c in range(k):
            if not (assignments == c).any():
                dist = ((points - centers[assignments]) ** 2).sum(axis=1)
                far = int(np.argmax(dist))
                centers[c] = points[far]
                assignments = nearest()
        return assignments

    assignments = assign_with_repair()
    trace = [within_sse(points, centers, assignments)]
    for _ in range(max_iterations):
        order = np.argsort(assignments, kind="stable")
        grouped = points[order]
        bounds = np.searchsorted(assignments[order], np.arange(k + 1))
        for c in range(k):
            centers[c] = grouped[bounds[c]:bounds[c + 1]].mean(axis=0)
        new_assignments = assign_with_repair()
        trace.append(within_sse(points, centers, new_assignments))
        if np.array_equal(new_assignments, assignments):
            break
        assignments = new_assignments
    return assignments, trace


def _fuzz_points(case):
    rng = np.random.default_rng(case)
    kind = case % 5
    m = 1 + (case // 5) % 40
    n = int(rng.integers(1, 120))
    if kind == 0:
        return rng.random((n, m))
    if kind == 1:  # a coarse grid: equal rows and exact distance ties
        return np.round(rng.random((n, m)) * 3) / 3
    if kind == 2:
        return (rng.random((n, m)) * 2 - 1) * 5e3
    if kind == 3:
        return rng.random((n, m)) + 1e7
    clumps = rng.random((3, m))
    points = clumps[rng.integers(0, 3, n)] + 1e-3 * rng.standard_normal((n, m))
    points[:1 + n // 20] += 1e3 * rng.standard_normal((1 + n // 20, m))
    return points


class _RowCounter:
    """Counts, for the watched points, the ``_nearest`` calls and the rows
    that each call sends to the exact expression."""

    def __init__(self, monkeypatch, points):
        nearest, exact = discretize._nearest, discretize._exact_nearest

        def counted_nearest(points, centers, point_norms=None, screen_rows=None):
            if points is self.points:
                self.calls += 1
            return nearest(points, centers, point_norms, screen_rows)

        def counted_exact(points, centers, rows):
            if points is self.points:
                self.exact.append(rows.copy())
            return exact(points, centers, rows)

        monkeypatch.setattr(discretize, "_nearest", counted_nearest)
        monkeypatch.setattr(discretize, "_exact_nearest", counted_exact)
        self.watch(points)

    def watch(self, points):
        self.points, self.calls, self.exact = points, 0, []

    @property
    def exact_rows(self):
        return sum(len(rows) for rows in self.exact)


def _exact_d2(point, center):
    return sum((Fraction(a) - Fraction(b)) ** 2 for a, b in zip(point, center))


def _certificate_case(case, m, rng):
    """30 points and 4 centers in m features, at one of the screen's scales."""
    if case == "unit":
        return rng.random((30, m)), rng.random((4, m))
    if case == "offset":
        return rng.random((30, m)) * 1e-3 + 1e7, rng.random((4, m)) * 1e-3 + 1e7
    if case == "signed":
        return (rng.random((30, m)) * 2 - 1) * 5e3, (rng.random((4, m)) * 2 - 1) * 5e3
    if case == "subnormal":  # squared differences below 1e-308
        return rng.random((30, m)) * 1e-160, rng.random((4, m)) * 1e-160
    if case == "huge":  # |p|^2 overflows, the squared differences do not
        return (1 + 1e-3 * rng.random((30, m))) * 1e155, (1 + 1e-3 * rng.random((4, m))) * 1e155
    # near ties: points off the bisector of centers 0 and 1 by relative
    # steps from 1e-17 to 1e-8, around where the screen stops certifying
    centers = rng.random((4, m))
    centers[2:] += 3.0
    mid, axis = (centers[0] + centers[1]) / 2, centers[1] - centers[0]
    steps = np.logspace(-17, -8, 15)
    steps = np.concatenate([steps, -steps])[:, None]
    return mid + steps * axis, centers


class TestBoundedLloyd:
    """The screened loop gives the bytes of recomputing every row every time."""

    def test_equals_the_unbounded_loop(self, monkeypatch):
        certified = exact = 0
        counter = _RowCounter(monkeypatch, None)
        for case in range(250):
            points = _fuzz_points(case)
            distinct = np.unique(points, axis=0).shape[0]
            k = 1 + case % distinct
            stream_name = f"fuzz-{case}"
            counter.watch(points)
            trace: list = []
            got = kmeans_cluster(points, k, RngStream(case, stream_name), sse_trace=trace)
            centers = kmeanspp_seed(points, k, RngStream(case, stream_name))
            want, want_trace = _reference_lloyd(points, centers)
            assert got.assignments.tobytes() == want.tobytes(), case
            assert got.centers.tobytes() == centers.tobytes(), case
            assert np.array(trace).tobytes() == np.array(want_trace).tobytes(), case
            assert got.iterations == len(trace) - 1, case
            certified += counter.exact_rows < counter.calls * len(points)
            exact += counter.exact_rows > 0
        # the screen certified rows in most cases, and the exact path ran in
        # many (the 1e7 offsets and the grid ties), so the fuzz tests both
        assert certified >= 200, certified
        assert exact >= 20, exact

    def test_repair_mid_loop_equals_the_reference(self, monkeypatch):
        # the first center update empties cluster 0, and the repair moves
        # center 0 to the row farthest from its center
        points = np.array([[7.0, 7.0], [6.0, 1.0], [5.0, 6.0], [11.0, 10.0], [8.0, 10.0],
                           [0.0, 9.0], [8.0, 2.0], [4.0, 7.0], [10.0, 8.0]])
        seeds = np.array([[7.0, 4.0], [6.0, 5.0], [4.0, 1.0], [5.0, 4.0]])
        monkeypatch.setattr(discretize, "kmeanspp_seed", lambda p, k, s: seeds.copy())
        counter = _RowCounter(monkeypatch, points)
        trace: list = []
        got = kmeans_cluster(points, 4, RngStream(0, "unused"), sse_trace=trace)
        centers = seeds.copy()
        want, want_trace = _reference_lloyd(points, centers)
        assert got.assignments.tolist() == want.tolist()
        assert got.centers.tobytes() == centers.tobytes()
        assert trace == want_trace and len(trace) == 4
        # one assignment per trace entry, plus exactly one repair
        assert counter.calls == len(trace) + 1

    @pytest.mark.parametrize("case", ["unit", "offset", "signed", "subnormal", "huge",
                                      "near-tie"])
    def test_certified_rows_have_a_unique_exact_argmin(self, monkeypatch, case):
        # exact rational distances against the screen's picks
        rng = np.random.default_rng(sum(map(ord, case)))
        certified = 0
        counter = _RowCounter(monkeypatch, None)
        for m in (1, 2, 3, 8, 17, 40):
            points, centers = _certificate_case(case, m, rng)
            counter.watch(points)
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                got = _nearest(points, centers)
            exact = {int(i) for rows in counter.exact for i in rows}
            for i in set(range(len(points))) - exact:
                d2 = [_exact_d2(points[i], c) for c in centers]
                assert d2.count(min(d2)) == 1 and d2.index(min(d2)) == got[i], (m, i)
            certified += len(points) - len(exact)
        # the screen certifies at moderate scales and leaves the rest to the
        # exact expression: cancellation at 1e7, subnormal or overflowing scales
        if case in ("unit", "signed", "near-tie"):
            assert certified > 0
        else:
            assert certified == 0

    def test_most_rows_skip_the_distance_row(self, monkeypatch):
        points = np.random.default_rng(0).random((6000, 8))
        counter = _RowCounter(monkeypatch, points)
        kmeans_cluster(points, 32, RngStream(7, "kmeans-level-1"))
        assert counter.calls > 10
        assert counter.exact_rows < 0.01 * counter.calls * len(points), counter.exact_rows

    def test_bytes_do_not_depend_on_the_blas_thread_count(self):
        probe = textwrap.dedent("""\
            import hashlib, numpy as np
            from trisect import RngStream, kmeans_cluster
            points = np.random.default_rng(0).random((20000, 8))
            cl = kmeans_cluster(points, 32, RngStream(7, "kmeans-level-1"), max_iterations=5)
            print(hashlib.sha256(cl.assignments.astype("<i8").tobytes()
                                 + cl.centers.astype("<f8").tobytes()).hexdigest())
            """)
        src = str(Path(__file__).resolve().parent.parent / "src")
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                                  text=True, timeout=120)
            assert done.returncode == 0, done.stderr
            digests.append(done.stdout.strip())
        assert digests[0] == digests[1]
        # the one-shot expression's bytes on this input: a k-means change that
        # claims byte identity keeps this digest
        assert digests[0] == "f84fd234758099a8ebf6dfb9edec2d6dc8b77f6892b0572db2d9ea95dc9adbe6"


class TestScreenStages:
    """Each stage of the cascade certifies what its bound allows, and no more."""

    @staticmethod
    def _stage(points, centers, dtype):
        rows = discretize._augmented(points, dtype)
        return discretize._screen(rows, discretize._row_norms(points), centers)

    @staticmethod
    def _gap_over_slack(points, centers, m):
        """Each row's exact gap between its two smallest d2, over the float64
        stage's slack (4m + 16) eps (|x| + max|c|)^2."""
        radius = np.sqrt((centers ** 2).sum(axis=1).max())
        out = []
        for point in points:
            d2 = sorted(_exact_d2(point, c) for c in centers)
            scale = (np.sqrt((point ** 2).sum()) + radius) ** 2
            out.append(float(d2[1] - d2[0]) / ((4 * m + 16) * np.finfo(np.float64).eps * scale))
        return np.array(out)

    def test_the_float32_stage_alone_certifies_unit_scale_rows(self, monkeypatch):
        rng = np.random.default_rng(11)
        points, centers = rng.random((3000, 8)), rng.random((32, 8))
        picks, certified = self._stage(points, centers, np.float32)
        assert certified.mean() > 0.99, certified.mean()
        assert np.array_equal(picks[certified],
                              _exact_nearest(points, centers, np.flatnonzero(certified)))
        # in a clustering, the float64 stage sees the few rows that float32 leaves
        screen = discretize._screen
        seen = {np.dtype(np.float32): [0, 0], np.dtype(np.float64): [0, 0]}

        def counted_screen(rows, norms, centers):
            picks, certified = screen(rows, norms, centers)
            seen[rows.dtype][0] += rows.shape[1]
            seen[rows.dtype][1] += int(certified.sum())
            return picks, certified

        monkeypatch.setattr(discretize, "_screen", counted_screen)
        cl = kmeans_cluster(points, 32, RngStream(7, "kmeans-level-1"))
        rows32, certified32 = seen[np.dtype(np.float32)]
        assert rows32 == len(points) * (cl.iterations + 1)  # no repair on this input
        assert certified32 > 0.99 * rows32
        assert seen[np.dtype(np.float64)][0] == rows32 - certified32

    @pytest.mark.parametrize("m", [1, 2, 3, 8, 17, 40])
    def test_near_ties_pass_float32_to_the_float64_stage(self, m):
        rng = np.random.default_rng(m)
        points, centers = _certificate_case("near-tie", m, rng)
        # every near-tie row lies within float32's slack, 2^29 times float64's
        ratio = self._gap_over_slack(points, centers, m)
        assert ratio.max() < 2.0 ** 29 / 4
        assert not self._stage(points, centers, np.float32)[1].any()
        # float64 certifies every row that clears its slack twice over, none
        # that is below half of it, and so the rows at steps of 1e-11 and more
        picks, certified = self._stage(points, centers, np.float64)
        assert certified[ratio > 2].all() and not certified[ratio < 0.5].any()
        steps = np.abs(np.concatenate([np.logspace(-17, -8, 15)] * 2))
        assert certified[steps >= 1e-11].all() and not certified[steps <= 1e-15].any()
        rows = np.flatnonzero(certified)
        assert np.array_equal(picks[rows], _exact_nearest(points, centers, rows))

    @pytest.mark.parametrize("case", ["huge", "subnormal"])
    def test_extreme_scales_reach_the_exact_path_without_a_warning(self, monkeypatch, case):
        # 1e155 overflows float32 and |x|^2 in float64; 1e-160 underflows both
        rng = np.random.default_rng(5)
        counter = _RowCounter(monkeypatch, None)
        for m in (1, 8, 40):
            points, centers = _certificate_case(case, m, rng)
            counter.watch(points)
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                for dtype in (np.float32, np.float64):
                    assert not self._stage(points, centers, dtype)[1].any()
                got = _nearest(points, centers)
            assert counter.exact_rows == len(points)
            assert np.array_equal(got, _exact_nearest(points, centers, np.arange(len(points))))


class TestEquivalenceClasses:
    def test_worked_example_probabilities(self):
        # classes {x1} and {x4, x5}; the only positive among them is x4
        classes = build_equivalence_classes([0, 3, 4], [0, 1, 1], TOY_LABELS)
        assert [c.members for c in classes] == [(0,), (3, 4)]
        assert [c.p for c in classes] == [0.0, 0.5]

    def test_all_positive_class(self):
        classes = build_equivalence_classes([0, 1], [0, 0], [1, 1])
        assert classes[0].p == 1.0

    def test_counting_oracle_random_cases(self):
        stream = RngStream(77, "classes")
        for _ in range(1000):
            n = 1 + stream.randrange(12)
            assignments = [stream.randrange(4) for _ in range(n)]
            labels = [1 if stream.uniform() < 0.5 else -1 for _ in range(n)]
            classes = build_equivalence_classes(range(n), assignments, labels)
            # classes partition the members, one key each, ordered by smallest member
            assert sorted(i for c in classes for i in c.members) == list(range(n))
            assert [c.members[0] for c in classes] == sorted(c.members[0] for c in classes)
            for cls in classes:
                assert list(cls.members) == sorted(cls.members)
                assert len({assignments[i] for i in cls.members}) == 1
                positives = sum(1 for i in cls.members if labels[i] == 1)
                assert cls.positive_count == positives
                assert cls.p == positives / len(cls.members)
                assert 0.0 <= cls.p <= 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            build_equivalence_classes([0, 1], [1], [1, 1])

    def test_empty_class_rejected(self):
        with pytest.raises(ValueError):
            EquivalenceClass((), 0)
