import hashlib
import math

import numpy as np
import pytest

from trisect import (
    AdamState,
    LayeredNetwork,
    NodeParams,
    RngStream,
    TrainHyper,
    adam_step,
    classify_split,
    focal_loss,
    init_node,
    regularized_cost,
    train_node,
)
from trisect.baselines import train_fixed_topology
from trisect.network import (
    _two_column_mean,
    cost,
    cost_and_grads,
    forward_arrays,
    model_from_json,
    model_to_json,
    predict_batch,
    resolve_delta,
    train_network,
)
from trisect.numerics import ACTIVATION_KINDS, activate

from conftest import (
    NODE_1,
    NODE_2,
    TOY_FEATURES,
    TOY_LABELS,
    network_of,
    split_for,
    synthetic_dataset,
)


def _toy_net(nodes=(NODE_1,)):
    return network_of(nodes)


class TestInitNode:
    def test_shapes(self):
        node = init_node(5, "uniform", RngStream(0, "init"))
        assert node.w1.shape == (5,)
        assert isinstance(node.b1, float)
        assert node.w2.shape == (2,)
        assert node.b2.shape == (2,)

    def test_deterministic(self):
        a = init_node(4, "normal", RngStream(3, "init"))
        b = init_node(4, "normal", RngStream(3, "init"))
        assert np.array_equal(a.w1, b.w1) and a.b1 == b.b1
        assert np.array_equal(a.w2, b.w2) and np.array_equal(a.b2, b.b2)

    def test_uniform_within_documented_range(self):
        m = 9
        r = 1.0 / math.sqrt(m)
        for seed in range(20):
            node = init_node(m, "uniform", RngStream(seed, "init"))
            values = [*node.w1, node.b1, *node.w2, *node.b2]
            assert all(-r <= v < r for v in values)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            init_node(0, "uniform", RngStream(0))
        with pytest.raises(ValueError):
            init_node(3, "laplace", RngStream(0))


class TestForward:
    def test_worked_example_level1_predictions(self):
        net = _toy_net()
        labels, _ = predict_batch(net, TOY_FEATURES[:6])
        # raw labels [1, 1, 1, 2, 1, 1] with label 1 = positive
        assert labels.tolist() == [1, 1, 1, -1, 1, 1]

    def test_zero_network_ties_to_positive(self):
        node = NodeParams(np.zeros(3), 0.0, np.zeros(2), np.zeros(2))
        net = network_of([node], "relu")
        x = np.array([[0.5, 0.5, 0.5]])
        _, _, scores, _ = forward_arrays(x, *net.tensors, net.activation)
        assert scores.tolist() == [[0.0, 0.0]]
        labels, p_pos = predict_batch(net, x)
        assert labels.tolist() == [1]
        assert p_pos.tolist() == [pytest.approx(0.5)]

    def test_appending_node_preserves_first_preactivation(self):
        x = TOY_FEATURES[2]
        one = _toy_net().tensors
        two = _toy_net((NODE_1, NODE_2)).tensors
        z_one = one[0] @ x + one[1]
        z_two = two[0] @ x + two[1]
        assert z_two[0] == z_one[0]

    def test_forward_equals_per_node_contributions(self):
        net = _toy_net((NODE_1, NODE_2))
        _, _, batch_scores, _ = forward_arrays(TOY_FEATURES, *net.tensors, net.activation)
        for x, scores in zip(TOY_FEATURES, batch_scores):
            total = NODE_2.b2.copy()
            for node in (NODE_1, NODE_2):
                total = total + node.w2 * activate("selu", float(node.w1 @ x + node.b1))
            assert np.abs(scores - total).max() <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            predict_batch(_toy_net(), np.ones((1, 3)))
        with pytest.raises(ValueError):
            predict_batch(_toy_net(), np.ones(4))  # one row must still be 2-d

    def test_empty_network_rejected(self):
        with pytest.raises(ValueError, match="no nodes"):
            predict_batch(LayeredNetwork.empty(4, "selu"), TOY_FEATURES)


def _focal(p, y, delta, theta):
    return focal_loss(np.array([p]), np.array([y]), delta, theta)[0]


class TestFocalLoss:
    def test_perfect_prediction_limit(self):
        assert _focal(1.0 - 1e-12, 1, 0.5, 2.0) == pytest.approx(0.0, abs=1e-11)

    def test_balanced_midpoint_theta_zero(self):
        assert _focal(0.5, 1, 0.5, 0.0) == pytest.approx(0.5 * math.log(2), abs=1e-6)

    def test_balanced_midpoint_theta_two(self):
        assert _focal(0.5, 1, 0.5, 2.0) == pytest.approx(0.5 * 0.25 * math.log(2), abs=1e-6)

    def test_reduces_to_balanced_cross_entropy(self):
        stream = RngStream(17, "fl")
        p, y = [], []
        for _ in range(100):
            p.append(stream.uniform(1e-6, 1.0 - 1e-6))
            y.append(1 if stream.uniform() < 0.5 else -1)
        losses = focal_loss(np.array(p), np.array(y), 0.5, 0.0)
        for pi, yi, loss in zip(p, y, losses):
            ce = -0.5 * math.log(pi) if yi == 1 else -0.5 * math.log(1.0 - pi)
            assert loss == pytest.approx(ce, rel=1e-12)

    def test_non_negative(self):
        stream = RngStream(18, "fl2")
        p = np.array([stream.uniform(1e-9, 1.0 - 1e-9) for _ in range(200)])
        assert (focal_loss(p, np.ones(200), 0.25, 2.0) >= 0.0).all()
        assert (focal_loss(p, -np.ones(200), 0.25, 2.0) >= 0.0).all()

    def test_resolve_delta_uses_negative_fraction(self):
        hyper = TrainHyper()
        assert resolve_delta(hyper, np.array([1, 1, -1, -1])) == 0.5
        assert resolve_delta(hyper, np.array([1, 1, 1, -1])) == 0.25
        # clipped away from 0/1 for single-class sets
        assert resolve_delta(hyper, np.array([1, 1])) == 0.01
        assert resolve_delta(TrainHyper(delta=0.7), np.array([1, -1])) == 0.7


class TestRegularizedCost:
    def test_zero_factor_reduces_to_mean(self):
        losses = np.array([0.2, 0.4, 0.9])
        W1 = np.ones((2, 2))
        cost = regularized_cost(losses, W1, np.ones(2), np.ones((2, 2)), np.ones(2), 0.0)
        assert cost == pytest.approx(0.5)

    def test_zero_parameters_zero_penalty(self):
        losses = np.array([1.0])
        z = np.zeros((2, 2))
        assert regularized_cost(losses, z, np.zeros(2), z, np.zeros(2), 5.0) == 1.0

    def test_all_ones_w1_contribution(self):
        losses = np.array([0.0])
        W1 = np.ones((2, 2))
        zero_m = np.zeros((2, 2))
        cost = regularized_cost(losses, W1, np.zeros(2), zero_m, np.zeros(2), 2.0)
        assert cost == pytest.approx(4.0)


@pytest.mark.parametrize("field, value", [
    ("theta", math.nan), ("theta", math.inf), ("l2", math.nan), ("l2", math.inf),
    ("learning_rate", math.nan), ("learning_rate", math.inf), ("tau", math.inf),
    ("tau", -math.inf),
])
def test_hyperparameters_must_be_finite(field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        TrainHyper(**{field: value})


class TestAdam:
    def test_zero_gradient_leaves_parameters_unchanged(self):
        hyper = TrainHyper()
        param = np.array([1.0, -2.0, 3.0])
        before = param.copy()
        assert adam_step(AdamState(param), param, np.zeros(3), hyper) is None
        assert np.array_equal(param, before)

    def test_single_step_hand_computed(self):
        hyper = TrainHyper(learning_rate=0.1, rho1=0.9, rho2=0.999, tau=1e-8)
        param = np.array([0.0])
        state = AdamState(param)
        adam_step(state, param, np.array([1.0]), hyper)
        assert state.h == 1
        assert state.V[0] == pytest.approx(0.1, abs=1e-15)
        assert state.S[0] == pytest.approx(0.001, abs=1e-15)
        expected_delta = -0.1 / (1.0 + 1e-8)
        assert param[0] == pytest.approx(expected_delta, abs=1e-12)

    def test_repeated_gradients_step_size_approaches_learning_rate(self):
        hyper = TrainHyper(learning_rate=0.05)
        param = np.array([0.0])
        state = AdamState(param)
        for _ in range(500):
            previous = param.copy()
            adam_step(state, param, np.array([1.0]), hyper)
        assert abs(abs(param[0] - previous[0]) - hyper.learning_rate) < 1e-6

    def test_reshaping_invariance(self):
        hyper = TrainHyper()
        flat = np.arange(4.0)
        square = flat.reshape(2, 2).copy()
        grad = np.array([0.5, -1.0, 2.0, 0.1])
        adam_step(AdamState(flat), flat, grad, hyper)
        adam_step(AdamState(square), square, grad.reshape(2, 2), hyper)
        assert np.array_equal(flat, square.reshape(-1))

    def test_shape_mismatch(self):
        state = AdamState(np.zeros(2))
        with pytest.raises(ValueError):
            adam_step(state, np.zeros(2), np.zeros(3), TrainHyper())


_MAX_REDRAWS = 1000


def _random_setup(stream, kind, n=6, m=3, t=2):
    """Parameter/input draw that stays clear of activation kinks.

    A draw is redrawn until both labels occur and no pre-activation sits
    near a kink, at most ``_MAX_REDRAWS`` times; one row cannot hold both
    labels, so n < 2 is rejected.
    """
    if n < 2:
        raise ValueError(f"both labels need n >= 2 rows, got n = {n}")
    for _ in range(_MAX_REDRAWS):
        X = np.array([[stream.uniform(-1, 1) for _ in range(m)] for _ in range(n)])
        y = np.array([1 if stream.uniform() < 0.5 else -1 for _ in range(n)])
        if len(set(y.tolist())) < 2:
            continue
        W1 = np.array([[stream.normal(0, 0.5) for _ in range(m)] for _ in range(t)])
        b1 = np.array([stream.normal(0, 0.3) for _ in range(t)])
        W2 = np.array([[stream.normal(0, 0.5) for _ in range(t)] for _ in range(2)])
        b2 = np.array([stream.normal(0, 0.3) for _ in range(2)])
        Z = X @ W1.T + b1
        if kind in ("relu", "leaky-relu", "selu") and np.abs(Z).min() < 1e-3:
            continue
        return X, y, W1, b1, W2, b2
    raise RuntimeError(f"no usable draw in {_MAX_REDRAWS} attempts")


def test_random_setup_rejects_a_single_row():
    with pytest.raises(ValueError):
        _random_setup(RngStream(0, "one-row"), "tanh", n=1)


@pytest.mark.parametrize("kind", ACTIVATION_KINDS)
def test_gradients_match_finite_differences(kind):
    stream = RngStream(404, f"grad-{kind}")
    delta, theta, l2 = 0.4, 2.0, 0.1
    for _ in range(10):
        X, y, W1, b1, W2, b2 = _random_setup(stream, kind)
        grads = cost_and_grads(X, y, W1, b1, W2, b2, kind, delta, theta, l2)
        tensors = [W1, b1, W2, b2]
        h = 1e-6
        for ti, tensor in enumerate(tensors):
            grad = grads[ti]
            for idx in np.ndindex(tensor.shape):
                orig = tensor[idx]
                tensor[idx] = orig + h
                up = cost(X, y, W1, b1, W2, b2, kind, delta, theta, l2)
                tensor[idx] = orig - h
                dn = cost(X, y, W1, b1, W2, b2, kind, delta, theta, l2)
                tensor[idx] = orig
                fd = (up - dn) / (2 * h)
                assert abs(grad[idx] - fd) <= 1e-5 * max(1.0, abs(grad[idx]), abs(fd)), \
                    (kind, ti, idx)


def test_gradient_bytes_are_pinned():
    """The step's gradient slices, for every kind, t in {1, 3} and first in {0, t - 1}."""
    arrays = []
    for kind in ACTIVATION_KINDS:
        stream = RngStream(406, f"grad-pin-{kind}")
        for t in (1, 3):
            for n in (2, 6, 40, 513):
                X, y, W1, b1, W2, b2 = _random_setup(stream, kind, n=n, t=t)
                for first in sorted({0, t - 1}):
                    grads = cost_and_grads(X, y, W1, b1, W2, b2, kind, 0.3, 2.0, 0.05, first)
                    assert [g.shape for g in grads] == [(t - first, 3), (t - first,),
                                                        (2, t - first), (2,)]
                    arrays.extend(grads)
    assert len(arrays) == len(ACTIVATION_KINDS) * 4 * 3 * 4
    # the bytes of the per-tensor formulas with a cost computed alongside,
    # sliced after the fact: a faster step keeps this digest
    assert _sha256(arrays) == "368c49cf79e379ad3a21f06870827c45bed1deedb56ae7d1b9597cb47d909e9b"


def _negated_pair(column):
    dS = np.empty((len(column), 2))
    dS[:, 0] = column
    np.negative(dS[:, 0], out=dS[:, 1])
    return dS


def test_two_column_mean_is_the_mean_of_the_negated_pair():
    # the db2 term: numpy's mean over axis 0 of a C-ordered (n, 2) array adds
    # the rows in order, so one cumsum of the first column gives its bits.
    # db1 keeps dZ.mean(axis=0): for t = 1 that is a (n, 1) array, which
    # numpy adds pairwise, and an in-order sum differs in the last bits.
    rng = np.random.default_rng(17)
    sizes = [1, 2, 3, 511, 512, 513] + rng.integers(1, 5000, size=40).tolist()
    for case, n in enumerate(sizes):
        exponents = rng.uniform(-300.0, 300.0, n) if case % 2 else rng.uniform(-3.0, 3.0, n)
        column = rng.choice([-1.0, 1.0], size=n) * 10.0 ** exponents
        column[rng.random(n) < 0.05] = -0.0
        dS = _negated_pair(column)
        assert _two_column_mean(dS).tobytes() == dS.mean(axis=0).tobytes(), n
    # zeros of either sign and exact cancellations, where numpy's sums give
    # +0.0 in both columns, and a sum that underflows when divided by n
    for column in ([-0.0], [0.0], [-0.0] * 512, [0.0] * 3, [0.0, -0.0], [1.0, -1.0],
                   [2.0, -1.0, -1.0], [-0.0, 1.5, -1.5], [5e-324, 0.0, 0.0], [-5e-324, -0.0]):
        dS = _negated_pair(column)
        assert _two_column_mean(dS).tobytes() == dS.mean(axis=0).tobytes(), column


def _sha256(arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


class TestPinnedTraining:
    """Trained parameter bytes on a fixed input, for the one-node and the all-node step."""

    HYPER = TrainHyper(l2=0.01, batch_size=32, max_epochs=12)

    def test_train_node_on_a_frozen_node(self):
        ds = synthetic_dataset(21, 120, 4)
        X, y = ds.features, ds.labels
        stream = RngStream(8, "pin-node")
        fresh = init_node(4, "uniform", stream)
        net = train_node(X[:96], y[:96], _toy_net(), fresh, self.HYPER, X[96:], y[96:], stream)
        assert _sha256([net.W1[1], net.b1[1:], net.W2[:, 1], net.b2]) == \
            "d4d85c42e776db058fb4b5c23aabfccba96d124467d488ac5924046d7e02c17b"

    def test_train_fixed_topology_all_nodes(self):
        ds = synthetic_dataset(21, 120, 4)
        net = train_fixed_topology(ds, split_for(ds, 21), 3, self.HYPER, "selu", "uniform",
                                   RngStream(8, "pin-all"))
        assert _sha256(net.tensors) == \
            "d4e38741764ee3f44dcdbdcd2432006da78a30a41ec829426691bb3457cd7fee"


# sha256 of train_network's returned tensors and history over theta in
# {0, 1.5, 2} and l2 in {0, 0.1}, per activation and first trained node
# of three (0: all nodes, 2: the last one)
GRID_PINS = {
    ("relu", 0): "b4bafe60d4b5413b3ee75bd7ead793fd50c765ad762a35420c70fb41374c1638",
    ("leaky-relu", 0): "07a92fc8661c0e2c3f6a12e203fad438768114f7f94fdea8a3c9e5a3a003dcd0",
    ("selu", 0): "7471bbad5abde73571de41530c83eb4d25b5439f17133699cf4f102f805a42cc",
    ("tanh", 0): "b51276979721e2aa18cbdd63ce958d77306b07f5737309fa6ea85ed6d3b62f03",
    ("sigmoid", 0): "da2e00ccc9baaf0fcc4996c258b120351927d67c897b2665cbd9e2946e54b19c",
    ("swish", 0): "f9fe0b27dd88d6675d9c0cd528bafe26af6ce3604af377d770fedc7e15556135",
    ("relu", 2): "2e4714ba56135512fd0bb31ec135b1a9889845f900fd9c69e0537f0c170f9106",
    ("leaky-relu", 2): "e0be2d79de1fc59fa4fa006d1822d5758739be19a57b12872f1147fa681bdce8",
    ("selu", 2): "3eeec378f5490b231258a696da0073780407f29f35f07681184f918813f7692d",
    ("tanh", 2): "f2db422382a7cdfabb94267fb03c961e4541031e2ad340167b8cc11876c2c13d",
    ("sigmoid", 2): "12bc15b6bf6342f6b6e49fcfe77f2bad1cf5b701c5327f38dd85a5e0485356b4",
    ("swish", 2): "61cf7fe1db0982acad911bf36a43dfc9394d3047c57fd468a2e5e0d3e6dbfdc6",
}


@pytest.mark.parametrize("first", [0, 2], ids=["all", "2"])
@pytest.mark.parametrize("kind", ACTIVATION_KINDS)
def test_pinned_training_grid(kind, first):
    # 45 training rows in batches of 16: each epoch ends on a 13-row batch
    ds = synthetic_dataset(23, 60, 3)
    X, y = ds.features, ds.labels
    h = hashlib.sha256()
    for theta in (0.0, 1.5, 2.0):
        for l2 in (0.0, 0.1):
            stream = RngStream(5, f"grid-{kind}")
            net = network_of([init_node(3, "uniform", stream) for _ in range(3)], kind)
            hyper = TrainHyper(theta=theta, l2=l2, batch_size=16, max_epochs=6)
            history: list = []
            out = train_network(net, X[:45], y[:45], hyper, X[45:], y[45:], stream,
                                first=first, history=history)
            for a in out.tensors:
                h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
            h.update(repr(history).encode())
    assert h.hexdigest() == GRID_PINS[(kind, first)]


def _pin_rows(seed, n, m):
    stream = RngStream(seed, "pin-rows")
    return np.array([[stream.uniform(-1, 1) for _ in range(m)] for _ in range(n)])


class TestPinnedPredict:
    """predict_batch bytes where the two-class softmax is at its edges."""

    def test_tied_scores(self):
        node = NodeParams(np.array([1.0, -2.0]), 0.5, np.array([3.0, 3.0]),
                          np.array([0.25, 0.25]))
        labels, p = predict_batch(network_of([node], "swish"), _pin_rows(1, 50, 2))
        assert (p == 0.5).all() and (labels == 1).all()
        assert hashlib.sha256(p.tobytes()).hexdigest() == \
            "0ce0682cae4938d9a5e89dbb42c90e1374f48d1b61aaeeda2942ee62cfb9e922"

    def test_scores_near_700(self):
        # both scores near +-700, or 700 apart: p down to a subnormal and up to 1
        stream = RngStream(2, "pin-700")
        X = _pin_rows(3, 100, 2)
        h = hashlib.sha256()
        for b2 in ((700.0, 699.0), (-700.0, -703.0), (350.0, -350.0), (-352.0, 352.0)):
            nodes = [NodeParams(np.array([stream.normal(), stream.normal()]), stream.normal(),
                                np.array([stream.normal(0, 4), stream.normal(0, 4)]),
                                np.array(b2))
                     for _ in range(2)]
            labels, p = predict_batch(network_of(nodes, "tanh"), X)
            h.update(p.tobytes())
            h.update(labels.tobytes())
        assert h.hexdigest() == \
            "6dd08290eabfd6c4c794652c4833a26e1db084a9cb661e206084ca510a244e0b"


class TestTrainNode:
    def _data(self, seed=0, n=40, m=4):
        stream = RngStream(seed, "tn")
        X = np.array([[stream.uniform() for _ in range(m)] for _ in range(n)])
        w = np.array([stream.normal() for _ in range(m)])
        y = np.where(X @ w - np.median(X @ w) >= 0, 1, -1)
        return X, y

    def test_zero_epochs_is_identity(self):
        X, y = self._data()
        fresh = init_node(4, "uniform", RngStream(1, "init"))
        out = train_node(X, y, LayeredNetwork.empty(4, "selu"), fresh,
                         TrainHyper(max_epochs=0), None, None, RngStream(1, "init"))
        assert all(np.array_equal(a, b) for a, b in zip(out.tensors, network_of([fresh]).tensors))

    def test_deterministic(self):
        X, y = self._data()
        results = []
        for _ in range(2):
            stream = RngStream(9, "train")
            fresh = init_node(4, "uniform", stream)
            net = train_node(X[:30], y[:30], LayeredNetwork.empty(4, "selu"), fresh,
                             TrainHyper(max_epochs=15), X[30:], y[30:], stream)
            results.append(net)
        assert np.array_equal(results[0].W1, results[1].W1)
        assert np.array_equal(results[0].b2, results[1].b2)

    def test_best_checkpoint_costs_non_increasing(self):
        # frozen seeded run: both the validation costs at improving
        # checkpoints (guaranteed) and the recorded training costs there
        X, y = self._data(seed=4)
        stream = RngStream(12, "train")
        fresh = init_node(4, "uniform", stream)
        history: list = []
        train_node(X[:30], y[:30], LayeredNetwork.empty(4, "selu"), fresh,
                   TrainHyper(max_epochs=40), X[30:], y[30:], stream, history=history)
        improving = [(tc, vc) for _, tc, vc, improved in history if improved]
        assert len(improving) >= 2
        val_costs = [vc for _, vc in improving]
        assert all(b < a for a, b in zip(val_costs, val_costs[1:]))
        train_costs = [tc for tc, _ in improving]
        assert all(b <= a + 1e-12 for a, b in zip(train_costs, train_costs[1:]))

    def test_earlier_nodes_stay_frozen(self):
        X, y = self._data(seed=7)
        frozen = _toy_net()
        stream = RngStream(3, "train")
        fresh = init_node(4, "uniform", stream)
        net = train_node(X, y, frozen, fresh, TrainHyper(max_epochs=5),
                         None, None, stream)
        assert np.array_equal(net.W1[0], NODE_1.w1) and net.b1[0] == NODE_1.b1
        assert np.array_equal(net.W2[:, 0], NODE_1.w2)
        assert not np.array_equal(net.W1[1], fresh.w1)  # the fresh node moved

    def test_first_trains_later_nodes_only(self):
        # first=1 on 3 nodes: node 0 stays bit-equal; every entry of nodes 1
        # and 2 and of b2 moves
        X, y = self._data(seed=5)
        stream = RngStream(6, "first-node")
        net = network_of([init_node(4, "uniform", stream) for _ in range(3)])
        out = train_network(net, X[:30], y[:30], TrainHyper(max_epochs=5), X[30:], y[30:],
                            stream, first=1)
        assert np.array_equal(out.W1[0], net.W1[0]) and out.b1[0] == net.b1[0]
        assert np.array_equal(out.W2[:, 0], net.W2[:, 0])
        for now, old in ((out.W1[1:], net.W1[1:]), (out.b1[1:], net.b1[1:]),
                         (out.W2[:, 1:], net.W2[:, 1:]), (out.b2, net.b2)):
            assert (now != old).all()

    def test_empty_active_set_rejected(self):
        with pytest.raises(ValueError):
            train_node(np.empty((0, 4)), np.empty(0), LayeredNetwork.empty(4, "selu"),
                       init_node(4, "uniform", RngStream(0)), TrainHyper(),
                       None, None, RngStream(0))


class TestClassifySplit:
    def test_worked_example_level1(self):
        net = _toy_net()
        pn, mn, nn = classify_split(net, TOY_FEATURES[:6], TOY_LABELS[:6],
                                    indices=(0, 1, 2, 3, 4, 5))
        assert pn == (1, 2, 5)
        assert mn == (0, 3, 4)
        assert nn == ()

    def test_perfect_classifier_has_no_misses(self):
        net = _toy_net()
        labels, _ = predict_batch(net, TOY_FEATURES)
        pn, mn, nn = classify_split(net, TOY_FEATURES, labels, np.arange(10))
        assert mn == ()
        assert set(pn) | set(nn) == set(range(10))

    def test_sets_partition_input(self):
        net = _toy_net((NODE_1, NODE_2))
        pn, mn, nn = classify_split(net, TOY_FEATURES, TOY_LABELS, np.arange(10))
        groups = (set(pn), set(mn), set(nn))
        assert set().union(*groups) == set(range(10))
        assert sum(len(g) for g in groups) == 10


class TestModelJson:
    def test_roundtrip_preserves_predictions(self):
        net = _toy_net((NODE_1, NODE_2))
        stats = ((0.0, 1.0), (0.0, 1.0), (0.0, 1.0), (0.0, 1.0))
        doc = model_to_json(net, "none", stats, None, {"master_seed": 0})
        again, mode, again_stats, schedule, seeds = model_from_json(doc)
        assert mode == "none" and again_stats == stats and seeds == {"master_seed": 0}
        a_labels, a_scores = predict_batch(net, TOY_FEATURES)
        b_labels, b_scores = predict_batch(again, TOY_FEATURES)
        assert np.array_equal(a_labels, b_labels)
        assert np.array_equal(a_scores, b_scores)

    def test_float_strings_have_full_precision(self):
        net = _toy_net()
        doc = model_to_json(net, "none", (), None, {})
        assert doc["W1"][0][0] == "0.8115"
        value = 1.0 / 3.0
        node = NodeParams(np.array([value]), value, np.array([value, value]),
                          np.array([value, value]))
        doc = model_to_json(network_of([node], "relu"), "none", (), None, {})
        assert float(doc["W1"][0][0]) == value
