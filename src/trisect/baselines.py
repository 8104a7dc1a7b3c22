"""Comparison models sharing the same network core.

Static topologies sized by empirical formulas and a grid search over node
counts. The fixed-threshold (``twd-fixed``) and discretizer-free
(``stwd-nk``) baselines are kinds of the level loop, ``trainer.run``.
"""

from __future__ import annotations

import math

from .data import Dataset, Split
from .network import LayeredNetwork, TrainHyper, init_node, predict_rows, train_network
from .numerics import RngStream, derive_stream
from .metrics import accuracy

BASELINE_KINDS = ("m1", "m2", "m3", "grid-search", "twd-fixed", "stwd-nk")


def check_settings(kind: str, max_nodes: int = 1, a: float = 4.0) -> None:
    """The data-free checks of a ``kind`` fit: grid-search's max_nodes >= 1, m1's a in (1, 10)."""
    if kind == "grid-search" and max_nodes < 1:
        raise ValueError("max_nodes must be >= 1")
    if kind == "m1" and not 1.0 < a < 10.0:
        raise ValueError(f"m1 requires a in (1, 10), got {a}")


def empirical_nodes(kind: str, m: int, n: int = 2, a: float = 4.0) -> int:
    """Hidden-node count from the classic sizing formulas (half-up rounding).

    m1: sqrt(m + n) + a with a in (1, 10); m2: log2(m); m3: sqrt(m * n).
    """
    if kind not in ("m1", "m2", "m3"):
        raise ValueError(f"empirical formula kind must be m1/m2/m3, got {kind!r}")
    if m < 1 or n < 1:
        raise ValueError("m and n must be positive")
    check_settings(kind, a=a)
    if kind == "m1":
        value = math.sqrt(m + n) + a
    elif kind == "m2":
        value = math.log2(m)
    else:
        value = math.sqrt(m * n)
    return max(1, int(math.floor(value + 0.5)))


def train_fixed_topology(ds: Dataset, split: Split, nodes: int, hyper: TrainHyper,
                         activation: str, init_dist: str, stream: RngStream) -> LayeredNetwork:
    """Initialize ``nodes`` hidden nodes together and train them jointly."""
    if nodes < 1:
        raise ValueError("need at least one hidden node")
    drawn = LayeredNetwork.empty(ds.n_features, activation)
    for _ in range(nodes):
        drawn = drawn.with_node(init_node(ds.n_features, init_dist, stream))
    return train_network(drawn, ds.features, ds.labels, hyper, stream, split.train,
                         split.validation)


def grid_search(ds: Dataset, split: Split, max_nodes: int, hyper: TrainHyper,
                activation: str, init_dist: str, master_seed: int):
    """Best validation-accuracy topology over 1..max_nodes (ties: fewest)."""
    check_settings("grid-search", max_nodes=max_nodes)
    va = split.validation if split.validation.size else split.train
    best = None
    for nodes in range(1, max_nodes + 1):
        stream = derive_stream(master_seed, f"grid-{nodes}")
        net = train_fixed_topology(ds, split, nodes, hyper, activation, init_dist, stream)
        labels, _ = predict_rows(net, ds.features, va)
        acc = accuracy(ds.labels[va], labels)
        if best is None or acc > best[0]:
            best = (acc, nodes, net)
    return best[1], best[2]

