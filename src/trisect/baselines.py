"""Comparison models sharing the same network core.

Static topologies sized by empirical formulas, a grid search over node
counts, the fixed-threshold variant of the level loop, and the
discretizer-free variant that groups identical raw rows.
"""

from __future__ import annotations

import math

from .data import Dataset, Split
from .network import LayeredNetwork, TrainHyper, init_node, predict_batch, train_network
from .numerics import RngStream, derive_stream
from .threeway import ThresholdSchedule, first_level_matrix
from .trainer import TrainConfig, _run_core
from .metrics import accuracy

BASELINE_KINDS = ("m1", "m2", "m3", "grid-search", "twd-fixed", "stwd-nk")


def empirical_nodes(kind: str, m: int, n: int = 2, a: float = 4.0) -> int:
    """Hidden-node count from the classic sizing formulas (half-up rounding).

    m1: sqrt(m + n) + a with a in (1, 10); m2: log2(m); m3: sqrt(m * n).
    """
    if kind not in ("m1", "m2", "m3"):
        raise ValueError(f"empirical formula kind must be m1/m2/m3, got {kind!r}")
    if m < 1 or n < 1:
        raise ValueError("m and n must be positive")
    if kind == "m1":
        if not 1.0 < a < 10.0:
            raise ValueError(f"m1 requires a in (1, 10), got {a}")
        value = math.sqrt(m + n) + a
    elif kind == "m2":
        value = math.log2(m)
    else:
        value = math.sqrt(m * n)
    return max(1, int(math.floor(value + 0.5)))


def train_fixed_topology(ds: Dataset, split: Split, nodes: int, hyper: TrainHyper,
                         activation: str, init_dist: str, stream: RngStream,
                         history=None) -> LayeredNetwork:
    """Initialize ``nodes`` hidden nodes together and train them jointly."""
    if nodes < 1:
        raise ValueError("need at least one hidden node")
    drawn = LayeredNetwork.empty(ds.n_features, activation)
    for _ in range(nodes):
        drawn = drawn.with_node(init_node(ds.n_features, init_dist, stream))
    X, y = ds.features, ds.labels
    tr = list(split.train)
    va = list(split.validation)
    return train_network(drawn, X[tr], y[tr], hyper, X[va], y[va], stream, history=history)


def grid_search(ds: Dataset, split: Split, max_nodes: int, hyper: TrainHyper,
                activation: str, init_dist: str, master_seed: int):
    """Best validation-accuracy topology over 1..max_nodes (ties: fewest)."""
    if max_nodes < 1:
        raise ValueError("max_nodes must be >= 1")
    va = list(split.validation) or list(split.train)
    best = None
    for nodes in range(1, max_nodes + 1):
        stream = derive_stream(master_seed, f"grid-{nodes}")
        net = train_fixed_topology(ds, split, nodes, hyper, activation, init_dist, stream)
        labels, _ = predict_batch(net, ds.features[va])
        acc = accuracy(ds.labels[va], labels)
        if best is None or acc > best[0]:
            best = (acc, nodes, net)
    return best[1], best[2]


def twd_fixed_schedule(master_seed: int) -> ThresholdSchedule:
    """The fixed-threshold run's default schedule: two levels of level 1's matrix."""
    return ThresholdSchedule.from_matrices([first_level_matrix(master_seed)] * 2)


def run_twd_fixed(ds: Dataset, split: Split, cfg: TrainConfig,
                  schedule: ThresholdSchedule | None = None):
    """Level loop with one fixed threshold pair, and its gamma, at every level.

    The schedule's level-1 pair applies while some equivalence class still
    holds more than one misclassified instance; otherwise (and always at the
    level cap) its gamma settles the remainder.
    """
    if schedule is None:
        schedule = twd_fixed_schedule(cfg.master_seed)
    return _run_core(ds, split, cfg, schedule, fixed=True)


def run_stwd_nk(ds: Dataset, split: Split, cfg: TrainConfig,
                schedule: ThresholdSchedule | None = None):
    """Sequential run without the discretizer: classes are identical rows."""
    return _run_core(ds, split, cfg, schedule, identity=True)
