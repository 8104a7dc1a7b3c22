"""Property-based checks of the core invariants."""

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from trisect import (
    CostMatrix,
    accuracy,
    gamma_from,
    partition_three_way,
    partition_two_way,
    thresholds_from,
    weighted_f1,
)
from trisect.discretize import EquivalenceClass
from trisect.metrics import roc_auc
from trisect.network import focal_loss
from trisect.threeway import accrue_process_costs

labels = st.lists(st.sampled_from([1, -1]), min_size=1, max_size=40)
pairs = st.tuples(labels, labels).map(lambda t: (t[0], t[1][:len(t[0])] +
                                                 [1] * max(0, len(t[0]) - len(t[1]))))

gaps = st.floats(min_value=1e-3, max_value=0.3, allow_nan=False)


@st.composite
def valid_matrices(draw):
    """Valid matrix built from positive loss gaps and row offsets."""
    a, b, c, d = draw(gaps), draw(gaps), draw(gaps), draw(gaps)
    # the cross constraint is exactly beta < alpha; enforce it on the gaps
    if c * b >= a * d:
        a, c = max(a, c + 1e-3), min(c, a)
        if c * b >= a * d:
            b, d = min(b, d), max(d, b + 1e-3)
    lpp = draw(st.floats(min_value=0.0, max_value=0.35))
    lnn = draw(st.floats(min_value=0.0, max_value=0.35))
    lbp, lnp = lpp + b, lpp + b + d
    lbn, lpn = lnn + c, lnn + c + a
    # adding the offsets rounds the gaps, which can turn a strict c*b < a*d
    # into equality (b=c=a=1e-3, d one ulp above); such a matrix is invalid
    assume((lbn - lnn) * (lbp - lpp) < (lpn - lbn) * (lnp - lbp))
    return CostMatrix(lpp, lbp, lnp, lpn, lbn, lnn)


@st.composite
def class_lists(draw):
    sizes = draw(st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=8))
    classes = []
    start = 0
    for size in sizes:
        positives = draw(st.integers(min_value=0, max_value=size))
        classes.append(EquivalenceClass(tuple(range(start, start + size)), positives))
        start += size
    return classes


@given(pairs)
def test_metric_ranges_and_relabel_invariance(pair):
    truth, predicted = np.array(pair[0]), np.array(pair[1])
    for fn in (accuracy, weighted_f1):
        value = fn(truth, predicted)
        assert 0.0 <= value <= 1.0
        assert abs(fn(-truth, -predicted) - value) < 1e-12


@given(st.lists(st.tuples(st.sampled_from([1, -1]),
                          st.floats(min_value=0.0, max_value=1.0, allow_nan=False)),
                min_size=2, max_size=40))
def test_auc_invariant_under_monotone_transforms(items):
    truth = np.array([t for t, _ in items])
    if (truth == 1).all() or (truth == -1).all():
        truth[0] = -truth[0]
    # quantize so the affine map stays order-preserving in float arithmetic
    scores = np.round(np.array([s for _, s in items]), 6)
    _, auc = roc_auc(truth, scores)
    _, auc2 = roc_auc(truth, 3.0 * scores + 7.0)
    assert abs(auc - auc2) < 1e-12


@given(valid_matrices())
def test_thresholds_are_ordered_for_every_valid_matrix(mx):
    alpha, beta = thresholds_from(mx)
    gamma = gamma_from(mx)
    assert 0.0 < beta < gamma < alpha < 1.0


@given(class_lists(), st.floats(min_value=0.01, max_value=0.98),
       st.floats(min_value=0.001, max_value=0.9))
def test_three_way_partition_is_disjoint_and_exhaustive(classes, beta, width):
    alpha = min(0.99, beta + max(1e-6, width * (0.99 - beta)))
    if not beta < alpha:
        return
    regions = partition_three_way(classes, alpha, beta)
    members = [i for c in classes for i in c.members]
    split = (set(regions.indices("pos")) | set(regions.indices("bnd"))
             | set(regions.indices("neg")))
    assert split == set(members)
    assert len(regions.pos) + len(regions.bnd) + len(regions.neg) == len(classes)


@given(class_lists(), st.floats(min_value=0.01, max_value=0.99))
def test_two_way_partition_never_defers(classes, gamma):
    regions = partition_two_way(classes, gamma)
    assert regions.bnd == ()
    assert len(regions.pos) + len(regions.neg) == len(classes)


@given(st.floats(min_value=1e-6, max_value=1.0 - 1e-6))
def test_focal_reduces_to_balanced_cross_entropy(p):
    q = np.array([p])
    assert abs(focal_loss(q, np.array([1]), 0.5, 0.0)[0] - (-0.5 * np.log(p))) < 1e-12
    assert abs(focal_loss(q, np.array([-1]), 0.5, 0.0)[0] - (-0.5 * np.log(1.0 - p))) < 1e-12


@settings(max_examples=50)
@given(st.lists(st.integers(min_value=1, max_value=500), min_size=1, max_size=8),
       st.lists(st.floats(min_value=0.01, max_value=50.0), min_size=8, max_size=8))
def test_process_costs_monotone(ms, units):
    previous_test, previous_delay = 0.0, 0.0
    for m, unit in zip(ms, units):
        test, delay = accrue_process_costs((previous_test, previous_delay), m, unit, unit)
        assert test > previous_test
        assert delay >= previous_delay
        previous_test, previous_delay = test, delay
