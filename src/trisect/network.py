"""Single-hidden-layer network grown one node at a time.

A network is an ordered list of per-node parameter records. Assembly stacks
node i's input weights as row i of W1 and its output weights as column i of
W2; the output bias of the whole network is always the newest node's b2.
Training minimizes mean focal loss plus an L2 penalty over all four
assembled tensors, with hand-derived gradients and Adam updates. When a
fresh node is trained on top of existing ones, only the fresh node's
parameters and the shared output bias move.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import RngStream, _f2s, activate, activate_derivative, ACTIVATION_KINDS

PROB_CLAMP = 1e-12
INIT_DISTRIBUTIONS = ("uniform", "normal")


@dataclass(frozen=True)
class NodeParams:
    """Parameters contributed by one hidden node."""

    w1: np.ndarray  # (m,) input -> node
    b1: float
    w2: np.ndarray  # (2,) node -> outputs
    b2: np.ndarray  # (2,) output bias learned alongside this node

    def __post_init__(self):
        w1 = np.asarray(self.w1, dtype=np.float64)
        w2 = np.asarray(self.w2, dtype=np.float64)
        b2 = np.asarray(self.b2, dtype=np.float64)
        object.__setattr__(self, "w1", w1)
        object.__setattr__(self, "w2", w2)
        object.__setattr__(self, "b2", b2)
        if w2.shape != (2,) or b2.shape != (2,):
            raise ValueError("w2 and b2 must have shape (2,)")
        if not (np.isfinite(w1).all() and np.isfinite(self.b1)
                and np.isfinite(w2).all() and np.isfinite(b2).all()):
            raise ValueError("node parameters must be finite")


@dataclass(frozen=True)
class TrainHyper:
    """Optimization settings shared by every training call.

    ``delta`` is the focal balance factor; None means "use the fraction of
    negative-labelled instances in the current training set".
    """

    delta: float | None = None
    theta: float = 2.0
    l2: float = 0.1
    learning_rate: float = 0.1
    rho1: float = 0.9
    rho2: float = 0.999
    tau: float = 1e-8
    batch_size: int = 512
    max_epochs: int = 100
    patience: int = 5

    def __post_init__(self):
        if self.delta is not None and not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if self.theta < 0:
            raise ValueError("theta must be non-negative")
        if self.l2 < 0:
            raise ValueError("l2 factor must be non-negative")
        if not self.learning_rate > 0:
            raise ValueError("learning rate must be positive")
        if not (0.0 < self.rho1 < 1.0 and 0.0 < self.rho2 < 1.0):
            raise ValueError("rho1 and rho2 must lie in (0, 1)")
        if not self.tau > 0:
            raise ValueError("tau must be positive")
        if self.batch_size < 1 or self.max_epochs < 0 or self.patience < 1:
            raise ValueError("batch_size >= 1, max_epochs >= 0, patience >= 1 required")


def resolve_delta(hyper: TrainHyper, y: np.ndarray) -> float:
    """Focal balance factor for a concrete label vector."""
    if hyper.delta is not None:
        return hyper.delta
    neg_fraction = float((np.asarray(y) == -1).mean())
    # single-class sets would zero out the loss entirely; keep a margin
    return float(np.clip(neg_fraction, 0.01, 0.99))


class LayeredNetwork:
    """Ordered stack of optimized nodes plus the activation they share."""

    def __init__(self, nodes, activation: str):
        if activation not in ACTIVATION_KINDS:
            raise ValueError(f"unknown activation kind: {activation!r}")
        self.nodes = list(nodes)
        self.activation = activation

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_features(self) -> int:
        if not self.nodes:
            raise ValueError("empty network")
        return self.nodes[0].w1.shape[0]

    def assembled(self):
        return assemble(self.nodes)

    def with_node(self, node: NodeParams) -> "LayeredNetwork":
        return LayeredNetwork(self.nodes + [node], self.activation)


def assemble(nodes):
    """Stack per-node parameters into (W1, b1, W2, b2).

    Row/column i belongs to node i; b2 comes from the last node only.
    """
    nodes = list(nodes)
    if not nodes:
        raise ValueError("cannot assemble an empty node list")
    W1 = np.stack([n.w1 for n in nodes])
    b1 = np.array([n.b1 for n in nodes], dtype=np.float64)
    W2 = np.stack([n.w2 for n in nodes], axis=1)
    b2 = nodes[-1].b2.copy()
    return W1, b1, W2, b2


def init_node(m: int, dist: str, stream: RngStream) -> NodeParams:
    """Draw a fresh node's parameters.

    Uniform mode draws from [-1/sqrt(m), 1/sqrt(m)); normal mode from
    N(0, 1/sqrt(m)). Draw order is w1 entries, b1, w2 entries, b2 entries.
    """
    if m < 1:
        raise ValueError("need at least one input feature")
    if dist not in INIT_DISTRIBUTIONS:
        raise ValueError(f"init distribution must be one of {INIT_DISTRIBUTIONS}")
    r = 1.0 / np.sqrt(m)
    if dist == "uniform":
        draw = lambda: stream.uniform(-r, r)
    else:
        draw = lambda: stream.normal(0.0, r)
    w1 = np.array([draw() for _ in range(m)])
    b1 = draw()
    w2 = np.array([draw(), draw()])
    b2 = np.array([draw(), draw()])
    return NodeParams(w1, b1, w2, b2)


def _softmax_pos(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e[:, 0] / e.sum(axis=1)


def forward_arrays(X, W1, b1, W2, b2, activation):
    """Batch forward pass; returns (Z, A, scores, p_pos)."""
    Z = X @ W1.T + b1
    A = activate(activation, Z)
    scores = A @ W2.T + b2
    return Z, A, scores, _softmax_pos(scores)


def predict_batch(net: LayeredNetwork, X):
    """(labels, p_pos) for a batch of rows; label ties go to +1."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != net.n_features:
        raise ValueError(f"expected (n, {net.n_features}) input, got {X.shape}")
    W1, b1, W2, b2 = net.assembled()
    _, _, scores, p = forward_arrays(X, W1, b1, W2, b2, net.activation)
    labels = np.where(scores[:, 0] >= scores[:, 1], 1, -1)
    return labels, p


def focal_loss(p_pos: float, y: int, delta: float, theta: float) -> float:
    """Focal loss of one prediction; p_pos is clamped away from {0, 1}."""
    q = min(max(p_pos, PROB_CLAMP), 1.0 - PROB_CLAMP)
    if y == 1:
        return float(-delta * (1.0 - q) ** theta * np.log(q))
    return float(-(1.0 - delta) * q**theta * np.log(1.0 - q))


def focal_loss_batch(p_pos: np.ndarray, y: np.ndarray, delta: float, theta: float) -> np.ndarray:
    q = np.clip(p_pos, PROB_CLAMP, 1.0 - PROB_CLAMP)
    pos = y == 1
    out = np.empty_like(q)
    out[pos] = -delta * (1.0 - q[pos]) ** theta * np.log(q[pos])
    out[~pos] = -(1.0 - delta) * q[~pos] ** theta * np.log(1.0 - q[~pos])
    return out


def regularized_cost(losses, W1, b1, W2, b2, l2: float) -> float:
    """Mean loss plus (l2/2) times the squared norms of all four tensors."""
    if l2 < 0:
        raise ValueError("l2 factor must be non-negative")
    penalty = (np.sum(W1 * W1) + np.sum(b1 * b1) + np.sum(W2 * W2) + np.sum(b2 * b2))
    return float(np.mean(losses) + 0.5 * l2 * penalty)


class AdamState:
    """First/second moment estimates plus the step counter."""

    def __init__(self, params):
        self.V = [np.zeros_like(np.asarray(p, dtype=np.float64)) for p in params]
        self.S = [np.zeros_like(np.asarray(p, dtype=np.float64)) for p in params]
        self.h = 0


def adam_step(state: AdamState, params, grads, hyper: TrainHyper):
    """One bias-corrected Adam update; returns (state', params') copies."""
    params = [np.asarray(p, dtype=np.float64) for p in params]
    grads = [np.asarray(g, dtype=np.float64) for g in grads]
    if len(params) != len(grads) or any(p.shape != g.shape for p, g in zip(params, grads)):
        raise ValueError("parameter and gradient shapes must agree")
    new = AdamState(params)
    new.h = state.h + 1
    corr1 = 1.0 - hyper.rho1**new.h
    corr2 = 1.0 - hyper.rho2**new.h
    out = []
    for i, (p, g) in enumerate(zip(params, grads)):
        new.V[i] = hyper.rho1 * state.V[i] + (1.0 - hyper.rho1) * g
        new.S[i] = hyper.rho2 * state.S[i] + (1.0 - hyper.rho2) * g * g
        v_hat = new.V[i] / corr1
        s_hat = new.S[i] / corr2
        out.append(p - hyper.learning_rate * v_hat / (np.sqrt(s_hat) + hyper.tau))
    return new, out


def _loss_grad_wrt_q(q: np.ndarray, y: np.ndarray, delta: float, theta: float) -> np.ndarray:
    """d(focal loss)/d(p_pos) on the clamped probability."""
    q = np.clip(q, PROB_CLAMP, 1.0 - PROB_CLAMP)
    pos = y == 1
    g = np.empty_like(q)
    qa, qb = q[pos], q[~pos]
    g[pos] = delta * (theta * (1.0 - qa) ** (theta - 1.0) * np.log(qa)
                      - (1.0 - qa) ** theta / qa)
    g[~pos] = -(1.0 - delta) * (theta * qb ** (theta - 1.0) * np.log(1.0 - qb)
                                - qb**theta / (1.0 - qb))
    return g


def cost_and_grads(X, y, W1, b1, W2, b2, activation, delta, theta, l2):
    """Regularized cost and its gradients w.r.t. all four tensors."""
    n = X.shape[0]
    Z, A, scores, q = forward_arrays(X, W1, b1, W2, b2, activation)
    losses = focal_loss_batch(q, y, delta, theta)
    cost = regularized_cost(losses, W1, b1, W2, b2, l2)

    dq = _loss_grad_wrt_q(q, y, delta, theta)
    qc = np.clip(q, PROB_CLAMP, 1.0 - PROB_CLAMP)
    ds0 = dq * qc * (1.0 - qc)
    dS = np.stack([ds0, -ds0], axis=1)  # (n, 2)

    dW2 = dS.T @ A / n + l2 * W2
    db2 = dS.mean(axis=0) + l2 * b2
    dA = dS @ W2  # (n, t)
    dZ = dA * activate_derivative(activation, Z)
    dW1 = dZ.T @ X / n + l2 * W1
    db1 = dZ.mean(axis=0) + l2 * b1
    return cost, (dW1, db1, dW2, db2)


def _evaluate_cost(X, y, W1, b1, W2, b2, activation, delta, theta, l2) -> float:
    _, _, _, q = forward_arrays(X, W1, b1, W2, b2, activation)
    losses = focal_loss_batch(q, y, delta, theta)
    return regularized_cost(losses, W1, b1, W2, b2, l2)


def train_network(X, y, W1, b1, W2, b2, activation, hyper: TrainHyper,
                  X_val, y_val, stream: RngStream, trainable="all", history=None):
    """Mini-batch Adam with early stopping on validation cost.

    ``trainable`` is either "all" or the index of the single node whose
    w1 row, b1 entry, and W2 column may move (the output bias b2 always
    trains). Returns the best-validation copies of the four tensors. When
    the validation set is empty the training cost drives early stopping.
    If ``history`` is a list, (epoch, train_cost, val_cost, improved)
    tuples are appended per evaluated checkpoint.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    if X.shape[0] == 0:
        raise ValueError("training set is empty")
    W1, b1 = W1.copy(), b1.copy()
    W2, b2 = W2.copy(), b2.copy()
    delta = resolve_delta(hyper, y)
    use_val = X_val is not None and len(X_val) > 0

    def checkpoint_cost():
        if use_val:
            return _evaluate_cost(X_val, y_val, W1, b1, W2, b2,
                                  activation, delta, hyper.theta, hyper.l2)
        return _evaluate_cost(X, y, W1, b1, W2, b2, activation, delta, hyper.theta, hyper.l2)

    def snapshot():
        return W1.copy(), b1.copy(), W2.copy(), b2.copy()

    if trainable == "all":
        pick = lambda g1, gb1, g2, gb2: [g1, gb1, g2, gb2]
    else:
        i = int(trainable)
        pick = lambda g1, gb1, g2, gb2: [g1[i], np.atleast_1d(gb1[i]), g2[:, i], gb2]

    state = AdamState(pick(W1, b1, W2, b2))
    best_cost = checkpoint_cost()
    best = snapshot()
    if history is not None:
        train_cost = _evaluate_cost(X, y, W1, b1, W2, b2, activation, delta, hyper.theta, hyper.l2)
        history.append((0, train_cost, best_cost, True))
    bad_epochs = 0
    order = list(range(X.shape[0]))
    for epoch in range(1, hyper.max_epochs + 1):
        stream.shuffle(order)
        for start in range(0, len(order), hyper.batch_size):
            batch = order[start:start + hyper.batch_size]
            _, (g1, gb1, g2, gb2) = cost_and_grads(
                X[batch], y[batch], W1, b1, W2, b2,
                activation, delta, hyper.theta, hyper.l2)
            state, updated = adam_step(state, pick(W1, b1, W2, b2),
                                       pick(g1, gb1, g2, gb2), hyper)
            if trainable == "all":
                W1, b1, W2, b2 = updated
            else:
                i = int(trainable)
                W1[i], b1[i], W2[:, i], b2 = updated[0], updated[1][0], updated[2], updated[3]
        cost = checkpoint_cost()
        improved = cost < best_cost
        if improved:
            best_cost = cost
            best = snapshot()
            bad_epochs = 0
        else:
            bad_epochs += 1
        if history is not None:
            train_cost = _evaluate_cost(X, y, W1, b1, W2, b2, activation, delta,
                                        hyper.theta, hyper.l2)
            history.append((epoch, train_cost, cost, improved))
        if bad_epochs >= hyper.patience:
            break
    return best


def train_node(X_active, y_active, frozen: LayeredNetwork, fresh: NodeParams,
               hyper: TrainHyper, X_val, y_val, stream: RngStream,
               history=None) -> NodeParams:
    """Optimize one fresh node on top of a frozen stack.

    Earlier nodes keep their parameters; only the fresh node's w1/b1/w2 and
    the shared output bias are updated. Returns the optimized node.
    """
    if len(X_active) == 0:
        raise ValueError("active set is empty")
    if hyper.max_epochs == 0:
        return fresh
    nodes = frozen.nodes + [fresh]
    W1, b1, W2, b2 = assemble(nodes)
    i = len(nodes) - 1
    W1, b1, W2, b2 = train_network(X_active, y_active, W1, b1, W2, b2,
                                   frozen.activation, hyper, X_val, y_val, stream,
                                   trainable=i, history=history)
    return NodeParams(W1[i], float(b1[i]), W2[:, i], b2)


def classify_split(net: LayeredNetwork, X, y, indices):
    """Partition rows into correct positives, misclassified, correct negatives."""
    if net.n_nodes < 1:
        raise ValueError("network has no nodes")
    indices = np.asarray(indices)
    labels, _ = predict_batch(net, X)
    y = np.asarray(y)
    correct = labels == y
    pn = tuple(int(i) for i in indices[correct & (y == 1)])
    nn = tuple(int(i) for i in indices[correct & (y == -1)])
    mn = tuple(int(i) for i in indices[~correct])
    return pn, mn, nn


def model_to_json(net: LayeredNetwork, norm_mode: str, norm_stats,
                  schedule_doc: dict | None, seeds: dict) -> dict:
    """Serialize a trained model (floats as decimal strings)."""
    W1, b1, W2, b2 = net.assembled()
    return {
        "activation": net.activation,
        "normalization": {
            "mode": norm_mode,
            "stats": [[_f2s(a), _f2s(b)] for a, b in norm_stats],
        },
        "W1": [[_f2s(v) for v in row] for row in W1],
        "b1": [_f2s(v) for v in b1],
        "W2": [[_f2s(v) for v in row] for row in W2],
        "b2": [_f2s(v) for v in b2],
        "threshold_schedule": schedule_doc,
        "seeds": seeds,
    }


def model_from_json(doc: dict):
    """Rebuild (net, norm_mode, norm_stats, schedule_doc, seeds)."""
    W1 = np.array([[float(v) for v in row] for row in doc["W1"]])
    b1 = np.array([float(v) for v in doc["b1"]])
    W2 = np.array([[float(v) for v in row] for row in doc["W2"]])
    b2 = np.array([float(v) for v in doc["b2"]])
    t = W1.shape[0]
    if W2.shape != (2, t) or b1.shape != (t,) or b2.shape != (2,):
        raise ValueError("inconsistent model tensor shapes")
    nodes = [NodeParams(W1[i], float(b1[i]), W2[:, i], b2) for i in range(t)]
    net = LayeredNetwork(nodes, doc["activation"])
    norm = doc["normalization"]
    stats = tuple((float(a), float(b)) for a, b in norm["stats"])
    return net, norm["mode"], stats, doc.get("threshold_schedule"), doc.get("seeds", {})
