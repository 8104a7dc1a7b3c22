"""Single-hidden-layer network grown one node at a time.

A network is its four tensors: node i's input weights are row i of W1 and
its output weights column i of W2; the output bias b2 is the one learned
with the newest node. Training minimizes mean focal loss plus an L2 penalty
over all four tensors, with hand-derived gradients and in-place Adam
updates. When a fresh node is trained on top of existing ones, only the
fresh node's parameters and the shared output bias move.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import RngStream, _f2s, activate, activate_derivative, ACTIVATION_KINDS

PROB_CLAMP = 1e-12
INIT_DISTRIBUTIONS = ("uniform", "normal")


@dataclass(frozen=True)
class NodeParams:
    """One hidden node's parameters, as drawn; ``LayeredNetwork.with_node`` checks them."""

    w1: np.ndarray  # (m,) input -> node
    b1: float
    w2: np.ndarray  # (2,) node -> outputs
    b2: np.ndarray  # (2,) output bias drawn with this node


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
        for name in ("theta", "l2", "learning_rate", "tau"):
            if not math.isfinite(value := getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {value}")
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


@dataclass(frozen=True, eq=False)
class LayeredNetwork:
    """The four tensors of a grown network plus the activation they share.

    Row i of W1, entry i of b1 and column i of W2 belong to hidden node i;
    b2 is the output bias, learned alongside the newest node. A network
    without nodes keeps its input width as W1's shape (0, m). The tensors
    are checked once, for shape and finiteness.
    """

    W1: np.ndarray  # (t, m)
    b1: np.ndarray  # (t,)
    W2: np.ndarray  # (2, t)
    b2: np.ndarray  # (2,)
    activation: str

    def __post_init__(self):
        if self.activation not in ACTIVATION_KINDS:
            raise ValueError(f"unknown activation kind: {self.activation!r}")
        for name in ("W1", "b1", "W2", "b2"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        W1, b1, W2, b2 = self.tensors
        if W1.ndim != 2 or b1.shape != (len(W1),) or W2.shape != (2, len(W1)) or b2.shape != (2,):
            raise ValueError("inconsistent network tensor shapes")
        if not all(np.isfinite(a).all() for a in (W1, b1, W2, b2)):
            raise ValueError("network parameters must be finite")

    @classmethod
    def empty(cls, m: int, activation: str) -> "LayeredNetwork":
        return cls(np.zeros((0, m)), np.zeros(0), np.zeros((2, 0)), np.zeros(2), activation)

    @property
    def tensors(self):
        return self.W1, self.b1, self.W2, self.b2

    @property
    def n_nodes(self) -> int:
        return self.W1.shape[0]

    @property
    def n_features(self) -> int:
        return self.W1.shape[1]

    def with_node(self, node: NodeParams) -> "LayeredNetwork":
        """This network plus ``node`` as its last hidden node, with ``node``'s b2."""
        return LayeredNetwork(np.vstack([self.W1, node.w1]), np.append(self.b1, node.b1),
                              np.column_stack([self.W2, node.w2]), node.b2, self.activation)


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
    # a max or sum of two terms is exact or singly rounded, in either order
    s0, s1 = scores[:, 0], scores[:, 1]
    top = np.maximum(s0, s1)
    e0 = np.exp(s0 - top)
    e1 = np.exp(s1 - top)
    return e0 / (e0 + e1)


def forward_arrays(X, W1, b1, W2, b2, activation):
    """Batch forward pass; returns (Z, A, scores, p_pos)."""
    Z = X @ W1.T + b1
    A = activate(activation, Z)
    scores = A @ W2.T + b2
    return Z, A, scores, _softmax_pos(scores)


def predict_batch(net: LayeredNetwork, X):
    """(labels, p_pos) for a batch of rows; label ties go to +1."""
    if net.n_nodes == 0:
        raise ValueError("network has no nodes")
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != net.n_features:
        raise ValueError(f"expected (n, {net.n_features}) input, got {X.shape}")
    _, _, scores, p = forward_arrays(X, *net.tensors, net.activation)
    labels = np.where(scores[:, 0] >= scores[:, 1], 1, -1)
    return labels, p


def _focal_terms(q: np.ndarray, y: np.ndarray, delta: float, theta: float,
                 derivative: bool = False) -> np.ndarray:
    """Per-instance focal loss at the clamped ``q``, or its derivative w.r.t. ``q``.

    Both classes share one formula in u, the probability of the row's own
    class (q, or ``1.0 - q`` for a negative row), and v = 1 - u. Each row
    sees the operands of its own class's formula in the same order, and one
    ``log`` and one theta-power serve either result.
    """
    pos = y == 1
    r = 1.0 - q
    u = np.where(pos, q, r)
    v = np.where(pos, r, q)
    log_u = np.log(u)
    pow_v = v ** theta
    if derivative:
        return np.where(pos, delta, -(1.0 - delta)) * (theta * v ** (theta - 1.0) * log_u
                                                       - pow_v / u)
    return np.where(pos, -delta, -(1.0 - delta)) * pow_v * log_u


def focal_loss(q: np.ndarray, y: np.ndarray, delta: float, theta: float) -> np.ndarray:
    """Per-instance focal loss of positive-class probabilities ``q``.

    ``q`` must already be clamped to [PROB_CLAMP, 1 - PROB_CLAMP], as
    :func:`cost` and :func:`cost_and_grads` do, so both logs stay finite.
    """
    return _focal_terms(q, y, delta, theta)


def regularized_cost(losses, W1, b1, W2, b2, l2: float) -> float:
    """Mean loss plus (l2/2) times the squared norms of all four tensors."""
    if l2 < 0:
        raise ValueError("l2 factor must be non-negative")
    penalty = (np.sum(W1 * W1) + np.sum(b1 * b1) + np.sum(W2 * W2) + np.sum(b2 * b2))
    return float(np.mean(losses) + 0.5 * l2 * penalty)


class AdamState:
    """First/second moment estimates of one parameter vector plus the step counter."""

    def __init__(self, param):
        self.V = np.zeros_like(np.asarray(param, dtype=np.float64))
        self.S = np.zeros_like(self.V)
        self.h = 0


def adam_step(state: AdamState, param, grad, hyper: TrainHyper) -> None:
    """One bias-corrected Adam update of ``state`` and the ``param`` array, in place."""
    if param.shape != grad.shape or param.shape != state.V.shape:
        raise ValueError("parameter, gradient and moment shapes must agree")
    state.h += 1
    corr1 = 1.0 - hyper.rho1**state.h
    corr2 = 1.0 - hyper.rho2**state.h
    v, s = state.V, state.S
    v *= hyper.rho1
    v += (1.0 - hyper.rho1) * grad
    s *= hyper.rho2
    s += (1.0 - hyper.rho2) * grad * grad
    param -= hyper.learning_rate * (v / corr1) / (np.sqrt(s / corr2) + hyper.tau)


def _forward(X, W1, b1, W2, b2, activation):
    """(Z, A, clamped positive-class probability q) of one forward pass."""
    Z, A, _, p = forward_arrays(X, W1, b1, W2, b2, activation)
    return Z, A, np.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP)


def cost(X, y, W1, b1, W2, b2, activation, delta, theta, l2) -> float:
    """Mean focal loss of the rows plus the L2 penalty over all four tensors."""
    q = _forward(X, W1, b1, W2, b2, activation)[2]
    return regularized_cost(_focal_terms(q, y, delta, theta), W1, b1, W2, b2, l2)


def _two_column_mean(dS: np.ndarray) -> np.ndarray:
    """``dS.mean(axis=0)`` of an (n, 2) array whose second column negates its first.

    numpy adds the rows of a C-ordered (n, 2) array in order, starting from
    +0.0, so one in-order sum of the first column gives both entries: the
    negated column's sum is its exact negation, and starting both from +0.0
    gives numpy's +0.0 wherever the sum is a zero of either sign.
    """
    total = np.cumsum(dS[:, 0])[-1]
    n = len(dS)
    return np.array([(0.0 + total) / n, (0.0 - total) / n])


def cost_and_grads(X, y, W1, b1, W2, b2, activation, delta, theta, l2, first=0):
    """Gradients of :func:`cost` w.r.t. nodes ``first`` onward and the output bias.

    Returns (dW1[first:], db1[first:], dW2[:, first:], db2), the slices
    ``train_network`` trains; the cost itself is not computed.
    """
    n = X.shape[0]
    Z, A, q = _forward(X, W1, b1, W2, b2, activation)
    dS = np.empty((n, 2))
    dS[:, 0] = _focal_terms(q, y, delta, theta, derivative=True) * q * (1.0 - q)
    np.negative(dS[:, 0], out=dS[:, 1])

    dW2 = (dS.T @ A)[:, first:] / n + l2 * W2[:, first:]
    db2 = _two_column_mean(dS) + l2 * b2
    dA = dS @ W2  # (n, t)
    dZ = dA * activate_derivative(activation, Z)
    dW1 = (dZ.T @ X)[first:] / n + l2 * W1[first:]
    # an in-order sum would not do here: for t = 1 dZ is one contiguous
    # column, which numpy's mean adds pairwise
    db1 = dZ.mean(axis=0)[first:] + l2 * b1[first:]
    return dW1, db1, dW2, db2


def train_network(net: LayeredNetwork, X, y, hyper: TrainHyper, X_val, y_val,
                  stream: RngStream, first: int = 0, history=None) -> LayeredNetwork:
    """Mini-batch Adam on nodes ``first`` onward, with early stopping on validation cost.

    Row i of W1, entry i of b1 and column i of W2 move for every node
    i >= ``first``, and the output bias b2 always does; earlier nodes stay
    as they are. Adam updates one vector packing those slices, and each
    step writes it back into them. Returns the network at its best
    validation cost. When the validation set is empty the training cost
    drives early stopping. If ``history`` is a list, (epoch, train_cost,
    val_cost, improved) tuples are appended per evaluated checkpoint.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    if X.shape[0] == 0:
        raise ValueError("training set is empty")
    W1, b1, W2, b2 = (a.copy() for a in net.tensors)
    loss = (net.activation, resolve_delta(hyper, y), hyper.theta, hyper.l2)
    if X_val is None or len(X_val) == 0:
        X_val, y_val = X, y

    def snapshot():
        return W1.copy(), b1.copy(), W2.copy(), b2.copy()

    params = [W1[first:], b1[first:], W2[:, first:], b2]
    # Adam is elementwise, so packing the slices into one vector changes no bit
    flat = np.concatenate(params, axis=None)
    ends = np.cumsum([p.size for p in params]).tolist()
    unpacked = [flat[end - p.size:end].reshape(p.shape) for p, end in zip(params, ends)]

    state = AdamState(flat)
    best_cost = cost(X_val, y_val, W1, b1, W2, b2, *loss)
    best = snapshot()
    if history is not None:
        history.append((0, cost(X, y, W1, b1, W2, b2, *loss), best_cost, True))
    bad_epochs = 0
    order = list(range(X.shape[0]))
    for epoch in range(1, hyper.max_epochs + 1):
        stream.shuffle(order)
        rows = np.fromiter(order, np.int64, len(order))
        for start in range(0, len(rows), hyper.batch_size):
            batch = rows[start:start + hyper.batch_size]
            grads = cost_and_grads(np.take(X, batch, axis=0), y[batch], W1, b1, W2, b2, *loss,
                                   first=first)
            adam_step(state, flat, np.concatenate(grads, axis=None), hyper)
            for p, part in zip(params, unpacked):
                p[...] = part
        val_cost = cost(X_val, y_val, W1, b1, W2, b2, *loss)
        improved = val_cost < best_cost
        if improved:
            best_cost = val_cost
            best = snapshot()
            bad_epochs = 0
        else:
            bad_epochs += 1
        if history is not None:
            history.append((epoch, cost(X, y, W1, b1, W2, b2, *loss), val_cost, improved))
        if bad_epochs >= hyper.patience:
            break
    return LayeredNetwork(*best, net.activation)


def train_node(X_active, y_active, frozen: LayeredNetwork, fresh: NodeParams,
               hyper: TrainHyper, X_val, y_val, stream: RngStream,
               history=None) -> LayeredNetwork:
    """``frozen`` grown by the ``fresh`` node, optimized on the active rows.

    Earlier nodes keep their parameters; only the fresh node's w1/b1/w2 and
    the shared output bias are updated.
    """
    if len(X_active) == 0:
        raise ValueError("active set is empty")
    grown = frozen.with_node(fresh)
    if hyper.max_epochs == 0:
        return grown
    return train_network(grown, X_active, y_active, hyper, X_val, y_val, stream,
                         first=frozen.n_nodes, history=history)


def classify_split(net: LayeredNetwork, X, y, indices):
    """Partition rows into correct positives, misclassified, correct negatives."""
    indices = np.asarray(indices, dtype=np.int64)
    labels, _ = predict_batch(net, X)
    y = np.asarray(y)
    correct = labels == y
    pn = tuple(indices[correct & (y == 1)].tolist())
    nn = tuple(indices[correct & (y == -1)].tolist())
    mn = tuple(indices[~correct].tolist())
    return pn, mn, nn


def model_to_json(net: LayeredNetwork, norm_mode: str, norm_stats,
                  schedule_doc: dict | None, seeds: dict) -> dict:
    """Serialize a trained model (floats as decimal strings)."""
    W1, b1, W2, b2 = net.tensors
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
    """Rebuild (net, norm_mode, norm_stats, schedule_doc, seeds); the stats
    must cover W1's width, one (a, b) pair per feature."""
    net = LayeredNetwork(np.array([[float(v) for v in row] for row in doc["W1"]]),
                         np.array([float(v) for v in doc["b1"]]),
                         np.array([[float(v) for v in row] for row in doc["W2"]]),
                         np.array([float(v) for v in doc["b2"]]), doc["activation"])
    norm = doc["normalization"]
    stats = tuple((float(a), float(b)) for a, b in norm["stats"])
    if len(stats) != net.n_features:
        raise ValueError(f"normalization stats cover {len(stats)} features, "
                         f"W1 has {net.n_features}")
    return net, norm["mode"], stats, doc.get("threshold_schedule"), doc.get("seeds", {})
