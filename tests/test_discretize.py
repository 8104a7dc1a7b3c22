import itertools

import numpy as np
import pytest

from trisect import (
    EquivalenceClass,
    RngStream,
    build_equivalence_classes,
    kmeans_cluster,
    kmeanspp_seed,
)
from trisect.discretize import within_sse

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
