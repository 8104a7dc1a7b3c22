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
    assemble,
    classify_split,
    focal_loss,
    init_node,
    regularized_cost,
    train_node,
)
from trisect.network import (
    cost_and_grads,
    forward_arrays,
    model_from_json,
    model_to_json,
    predict_batch,
    resolve_delta,
)
from trisect.numerics import ACTIVATION_KINDS, activate

from conftest import NODE_1, NODE_2, TOY_FEATURES, TOY_LABELS


def _toy_net(nodes=(NODE_1,)):
    return LayeredNetwork(list(nodes), "selu")


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
        net = LayeredNetwork([node], "relu")
        x = np.array([[0.5, 0.5, 0.5]])
        _, _, scores, _ = forward_arrays(x, *net.assembled(), net.activation)
        assert scores.tolist() == [[0.0, 0.0]]
        labels, p_pos = predict_batch(net, x)
        assert labels.tolist() == [1]
        assert p_pos.tolist() == [pytest.approx(0.5)]

    def test_appending_node_preserves_first_preactivation(self):
        x = TOY_FEATURES[2]
        one = assemble([NODE_1])
        two = assemble([NODE_1, NODE_2])
        z_one = one[0] @ x + one[1]
        z_two = two[0] @ x + two[1]
        assert z_two[0] == z_one[0]

    def test_forward_equals_per_node_contributions(self):
        net = _toy_net((NODE_1, NODE_2))
        _, _, batch_scores, _ = forward_arrays(TOY_FEATURES, *net.assembled(), net.activation)
        for x, scores in zip(TOY_FEATURES, batch_scores):
            total = NODE_2.b2.copy()
            for node in net.nodes:
                total = total + node.w2 * activate("selu", float(node.w1 @ x + node.b1))
            assert np.abs(scores - total).max() <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            predict_batch(_toy_net(), np.ones((1, 3)))
        with pytest.raises(ValueError):
            predict_batch(_toy_net(), np.ones(4))  # one row must still be 2-d


class TestFocalLoss:
    def test_perfect_prediction_limit(self):
        assert focal_loss(1.0 - 1e-12, 1, 0.5, 2.0) == pytest.approx(0.0, abs=1e-11)

    def test_balanced_midpoint_theta_zero(self):
        assert focal_loss(0.5, 1, 0.5, 0.0) == pytest.approx(0.5 * math.log(2), abs=1e-6)

    def test_balanced_midpoint_theta_two(self):
        assert focal_loss(0.5, 1, 0.5, 2.0) == pytest.approx(0.5 * 0.25 * math.log(2), abs=1e-6)

    def test_reduces_to_balanced_cross_entropy(self):
        stream = RngStream(17, "fl")
        for _ in range(100):
            p = stream.uniform(1e-6, 1.0 - 1e-6)
            y = 1 if stream.uniform() < 0.5 else -1
            ce = -0.5 * math.log(p) if y == 1 else -0.5 * math.log(1.0 - p)
            assert focal_loss(p, y, 0.5, 0.0) == pytest.approx(ce, rel=1e-12)

    def test_non_negative(self):
        stream = RngStream(18, "fl2")
        for _ in range(200):
            p = stream.uniform(1e-9, 1.0 - 1e-9)
            assert focal_loss(p, 1, 0.25, 2.0) >= 0.0
            assert focal_loss(p, -1, 0.25, 2.0) >= 0.0

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


class TestAdam:
    def test_zero_gradient_leaves_parameters_unchanged(self):
        hyper = TrainHyper()
        params = [np.array([1.0, -2.0]), np.array([[3.0]])]
        state = AdamState(params)
        _, updated = adam_step(state, params, [np.zeros(2), np.zeros((1, 1))], hyper)
        assert np.array_equal(updated[0], params[0])
        assert np.array_equal(updated[1], params[1])

    def test_single_step_hand_computed(self):
        hyper = TrainHyper(learning_rate=0.1, rho1=0.9, rho2=0.999, tau=1e-8)
        state = AdamState([np.array([0.0])])
        new_state, updated = adam_step(state, [np.array([0.0])], [np.array([1.0])], hyper)
        assert new_state.V[0][0] == pytest.approx(0.1, abs=1e-15)
        assert new_state.S[0][0] == pytest.approx(0.001, abs=1e-15)
        expected_delta = -0.1 / (1.0 + 1e-8)
        assert updated[0][0] == pytest.approx(expected_delta, abs=1e-12)

    def test_repeated_gradients_step_size_approaches_learning_rate(self):
        hyper = TrainHyper(learning_rate=0.05)
        param = np.array([0.0])
        state = AdamState([param])
        for _ in range(500):
            previous = param.copy()
            state, (param,) = adam_step(state, [param], [np.array([1.0])], hyper)
        assert abs(abs(param[0] - previous[0]) - hyper.learning_rate) < 1e-6

    def test_reshaping_invariance(self):
        hyper = TrainHyper()
        flat = np.arange(4.0)
        grad = np.array([0.5, -1.0, 2.0, 0.1])
        state_a = AdamState([flat])
        _, (out_flat,) = adam_step(state_a, [flat], [grad], hyper)
        state_b = AdamState([flat.reshape(2, 2)])
        _, (out_sq,) = adam_step(state_b, [flat.reshape(2, 2)], [grad.reshape(2, 2)], hyper)
        assert np.array_equal(out_flat, out_sq.reshape(-1))

    def test_shape_mismatch(self):
        state = AdamState([np.zeros(2)])
        with pytest.raises(ValueError):
            adam_step(state, [np.zeros(2)], [np.zeros(3)], TrainHyper())


def _random_setup(stream, kind, n=6, m=3, t=2):
    """Parameter/input draw that stays clear of activation kinks."""
    while True:
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


@pytest.mark.parametrize("kind", ACTIVATION_KINDS)
def test_gradients_match_finite_differences(kind):
    stream = RngStream(404, f"grad-{kind}")
    delta, theta, l2 = 0.4, 2.0, 0.1
    for _ in range(10):
        X, y, W1, b1, W2, b2 = _random_setup(stream, kind)
        cost, grads = cost_and_grads(X, y, W1, b1, W2, b2, kind, delta, theta, l2)
        tensors = [W1, b1, W2, b2]
        h = 1e-6
        for ti, tensor in enumerate(tensors):
            grad = grads[ti]
            for idx in np.ndindex(tensor.shape):
                orig = tensor[idx]
                tensor[idx] = orig + h
                up, _ = cost_and_grads(X, y, W1, b1, W2, b2, kind, delta, theta, l2)
                tensor[idx] = orig - h
                dn, _ = cost_and_grads(X, y, W1, b1, W2, b2, kind, delta, theta, l2)
                tensor[idx] = orig
                fd = (up - dn) / (2 * h)
                assert abs(grad[idx] - fd) <= 1e-5 * max(1.0, abs(grad[idx]), abs(fd)), \
                    (kind, ti, idx)


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
        out = train_node(X, y, LayeredNetwork([], "selu"), fresh,
                         TrainHyper(max_epochs=0), None, None, RngStream(1, "init"))
        assert out is fresh

    def test_deterministic(self):
        X, y = self._data()
        results = []
        for _ in range(2):
            stream = RngStream(9, "train")
            fresh = init_node(4, "uniform", stream)
            node = train_node(X[:30], y[:30], LayeredNetwork([], "selu"), fresh,
                              TrainHyper(max_epochs=15), X[30:], y[30:], stream)
            results.append(node)
        assert np.array_equal(results[0].w1, results[1].w1)
        assert np.array_equal(results[0].b2, results[1].b2)

    def test_best_checkpoint_costs_non_increasing(self):
        # frozen seeded run: both the validation costs at improving
        # checkpoints (guaranteed) and the recorded training costs there
        X, y = self._data(seed=4)
        stream = RngStream(12, "train")
        fresh = init_node(4, "uniform", stream)
        history: list = []
        train_node(X[:30], y[:30], LayeredNetwork([], "selu"), fresh,
                   TrainHyper(max_epochs=40), X[30:], y[30:], stream, history=history)
        improving = [(tc, vc) for _, tc, vc, improved in history if improved]
        assert len(improving) >= 2
        val_costs = [vc for _, vc in improving]
        assert all(b < a for a, b in zip(val_costs, val_costs[1:]))
        train_costs = [tc for tc, _ in improving]
        assert all(b <= a + 1e-12 for a, b in zip(train_costs, train_costs[1:]))

    def test_earlier_nodes_stay_frozen(self):
        X, y = self._data(seed=7)
        frozen = LayeredNetwork([NODE_1], "selu")
        stream = RngStream(3, "train")
        fresh = init_node(4, "uniform", stream)
        node = train_node(X, y, frozen, fresh, TrainHyper(max_epochs=5),
                          None, None, stream)
        assert np.array_equal(frozen.nodes[0].w1, NODE_1.w1)
        assert frozen.nodes[0].b1 == NODE_1.b1
        assert not np.array_equal(node.w1, fresh.w1)  # the fresh node moved

    def test_empty_active_set_rejected(self):
        with pytest.raises(ValueError):
            train_node(np.empty((0, 4)), np.empty(0), LayeredNetwork([], "selu"),
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
        doc = model_to_json(LayeredNetwork([node], "relu"), "none", (), None, {})
        assert float(doc["W1"][0][0]) == value
