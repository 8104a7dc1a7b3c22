"""Level-by-level construction of the network with three-way settling.

Each granular level trains one fresh hidden node on the instances still in
play, splits them into correctly classified and misclassified sets, groups
the misclassified ones into equivalence classes, and applies the level's
thresholds: accepted/rejected classes are settled, deferred classes carry
over to the next level. The final level applies the forced two-way
threshold, so the loop always terminates within the configured level cap.

Instances keep the category they received when first discretized, so later
levels partition shrinking subsets of a fixed granulation (classes never
split mid-run); the discretizer-free variant groups identical raw feature
rows instead.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .data import Dataset, Split
from .discretize import build_equivalence_classes, kmeans_cluster
from .errors import ConfigError
from .network import (
    INIT_DISTRIBUTIONS,
    LayeredNetwork,
    TrainHyper,
    assemble,  # noqa: F401  (part of this module's public surface)
    classify_split,
    init_node,
    predict_batch,  # noqa: F401  (looked up here by perfbench/tracer.py)
    train_node,
)
from .numerics import ACTIVATION_KINDS, derive_stream
from .threeway import (
    CostMatrix,
    ProcessCostLedger,
    ThresholdSchedule,
    accrue_process_costs,
    build_schedule,
    decision_risk_three_way,
    decision_risk_two_way,
    gamma_from,
    partition_three_way,
    partition_two_way,
    thresholds_from,
)

DEFAULT_COST_RANGE = (1.0, 50.0)


@dataclass(frozen=True)
class TrainConfig:
    """Everything a run needs besides the data and the split.

    ``schedule`` and ``fixture_nodes`` support replaying externally fixed
    configurations: an explicit schedule skips threshold sampling, and
    injected per-level nodes skip gradient training entirely.
    ``grouping`` selects how misclassified instances form equivalence
    classes: "kmeans" discretizes feature rows, "identity" groups exactly
    equal rows.
    """

    t: int = 10
    activation: str = "selu"
    init_dist: str = "uniform"
    hyper: TrainHyper = field(default_factory=TrainHyper)
    epsilon: float = 2.0
    clusters: int = 2
    master_seed: int = 0
    unit_test_costs: tuple | None = None
    unit_delay_costs: tuple | None = None
    cost_range: tuple = DEFAULT_COST_RANGE
    grouping: str = "kmeans"
    schedule: ThresholdSchedule | None = None
    fixture_nodes: tuple | None = None

    def __post_init__(self):
        if self.t < 2:
            raise ConfigError("level cap t must be at least 2")
        if self.activation not in ACTIVATION_KINDS:
            raise ConfigError(f"unknown activation: {self.activation!r}")
        if self.init_dist not in INIT_DISTRIBUTIONS:
            raise ConfigError(f"unknown init distribution: {self.init_dist!r}")
        if not self.epsilon >= 1.0:
            raise ConfigError("penalty factor epsilon must be >= 1")
        if self.clusters < 1:
            raise ConfigError("cluster count must be >= 1")
        if self.master_seed < 0:
            raise ConfigError("master seed must be non-negative")
        if self.schedule is not None and self.schedule.t != self.t:
            raise ConfigError(f"schedule spans {self.schedule.t} levels, config says {self.t}")
        lo, hi = self.cost_range
        if not 0 < lo < hi:
            raise ConfigError("cost range must satisfy 0 < lo < hi")
        for vec in (self.unit_test_costs, self.unit_delay_costs):
            if vec is not None:
                if len(vec) < self.t:
                    raise ConfigError(f"unit cost vector must cover {self.t} levels")
                if any(u <= 0 for u in vec):
                    raise ConfigError("unit costs must be positive")


@dataclass(frozen=True)
class LevelRecord:
    """Ledger row for one granular level.

    ``active_size`` counts the instances the level trained on; ``m`` counts
    the misclassified instances the decision stage processed (the quantity
    that drives process costs). ``cost_test``/``cost_delay`` are cumulative
    through this level.
    """

    level: int
    active_size: int
    m: int
    pn: int
    mn: int
    nn: int
    pl: int
    bl: int
    nl: int
    rule: str  # "three-way" | "two-way" | "none"
    alpha: float | None
    beta: float | None
    gamma: float | None
    risk: float
    cost_test: float
    cost_delay: float


@dataclass(frozen=True)
class RunLedger:
    """Per-level records plus the final three-region outcome."""

    levels: tuple[LevelRecord, ...]
    pos: tuple[int, ...]
    neg: tuple[int, ...]
    bnd: tuple[int, ...]
    unit_test_costs: tuple[float, ...]
    unit_delay_costs: tuple[float, ...]
    master_seed: int

    def to_dict(self) -> dict:
        return {
            "master_seed": self.master_seed,
            "unit_test_costs": list(self.unit_test_costs),
            "unit_delay_costs": list(self.unit_delay_costs),
            "levels": [asdict(r) for r in self.levels],
            "final": {
                "pos": list(self.pos),
                "neg": list(self.neg),
                "bnd": list(self.bnd),
            },
        }


@dataclass(frozen=True)
class Rule:
    """One level's decision rule and the cost matrix that prices it.

    A three-way rule accepts at p >= alpha, rejects at p <= beta and defers
    in between; a two-way rule splits at gamma and defers nothing. The
    thresholds the rule does not use stay None, as in the ledger.
    """

    name: str  # "three-way" | "two-way"
    matrix: CostMatrix
    alpha: float | None = None
    beta: float | None = None
    gamma: float | None = None

    def apply(self, classes, epsilon: float):
        """(regions, decision risk) of the rule on the level's classes."""
        if self.name == "three-way":
            regions = partition_three_way(classes, self.alpha, self.beta)
            return regions, decision_risk_three_way(regions, self.matrix, epsilon)
        regions = partition_two_way(classes, self.gamma)
        return regions, decision_risk_two_way(regions, self.matrix)


class SequentialPolicy:
    """Three-way thresholds per level, forced two-way at the last level."""

    def __init__(self, schedule: ThresholdSchedule):
        self.schedule = schedule

    def rule_for(self, level: int, n_misclassified: int, n_classes: int) -> Rule:
        if level < self.schedule.t:
            alpha, beta = self.schedule.alpha_beta(level)
            return Rule("three-way", self.schedule.matrices[level - 1], alpha=alpha, beta=beta)
        return Rule("two-way", self.schedule.matrices[-1], gamma=self.schedule.gamma)


class FixedPolicy:
    """One constant threshold triple for every level.

    Three-way applies while the misclassified set is larger than the number
    of equivalence classes it occupies (some class still has two or more
    members); otherwise, and always at the level cap, the two-way threshold
    settles everything. An explicit ``triple`` replays externally recorded
    (alpha, beta, gamma) values instead of deriving them from the matrix.
    """

    def __init__(self, matrix, t: int, triple: tuple | None = None):
        self.matrix = matrix
        if triple is None:
            self.alpha, self.beta = thresholds_from(matrix)
            self.gamma = gamma_from(matrix)
        else:
            self.alpha, self.beta, self.gamma = triple
        self.t = t

    def rule_for(self, level: int, n_misclassified: int, n_classes: int) -> Rule:
        if level >= self.t or n_misclassified <= n_classes:
            return Rule("two-way", self.matrix, gamma=self.gamma)
        return Rule("three-way", self.matrix, alpha=self.alpha, beta=self.beta)


def resolve_unit_costs(cfg: TrainConfig):
    """Explicit unit-cost vectors, or one sorted draw shared by test/delay."""
    if cfg.unit_test_costs is not None or cfg.unit_delay_costs is not None:
        test = cfg.unit_test_costs if cfg.unit_test_costs is not None else cfg.unit_delay_costs
        delay = cfg.unit_delay_costs if cfg.unit_delay_costs is not None else cfg.unit_test_costs
        return tuple(float(u) for u in test[:cfg.t]), tuple(float(u) for u in delay[:cfg.t])
    stream = derive_stream(cfg.master_seed, "unit-costs")
    lo, hi = cfg.cost_range
    values = sorted(stream.uniform(lo, hi) for _ in range(cfg.t))
    return tuple(values), tuple(values)


def _distinct_row_count(X: np.ndarray) -> int:
    return np.unique(X, axis=0).shape[0]


def _kmeans_categories(ds, members, categories, cfg, level):
    """Cached k-means category of each of ``members``, clustering the new ones."""
    missing = [i for i in members if i not in categories]
    if missing:
        pts = ds.features[np.array(missing)]
        k_eff = min(cfg.clusters, _distinct_row_count(pts))
        stream = derive_stream(cfg.master_seed, f"kmeans-level-{level}")
        clustering = kmeans_cluster(pts, k_eff, stream)
        base = max(categories.values(), default=-1) + 1
        for local, inst in enumerate(missing):
            categories[inst] = base + int(clustering.assignments[local])
    return [categories[i] for i in members]


def _run_core(ds: Dataset, split: Split, cfg: TrainConfig, policy):
    X, y = ds.features, ds.labels
    train_idx = np.array(split.train, dtype=np.int64)
    if train_idx.size == 0:
        raise ValueError("training split is empty")
    val_idx = np.array(split.validation, dtype=np.int64)
    X_val = X[val_idx] if val_idx.size else None
    y_val = y[val_idx] if val_idx.size else None

    unit_test, unit_delay = resolve_unit_costs(cfg)
    process = ProcessCostLedger(unit_test, unit_delay)
    net = LayeredNetwork([], cfg.activation)
    categories: dict[int, int] = {}
    pos_idx: set[int] = set()
    neg_idx: set[int] = set()
    records: list[LevelRecord] = []
    active = tuple(int(i) for i in train_idx)

    for level in range(1, cfg.t + 1):
        stream = derive_stream(cfg.master_seed, f"init-node-{level}")
        if cfg.fixture_nodes is not None:
            if level > len(cfg.fixture_nodes):
                raise ConfigError(f"fixture provides {len(cfg.fixture_nodes)} nodes, "
                                  f"level {level} reached")
            node = cfg.fixture_nodes[level - 1]
        else:
            fresh = init_node(ds.n_features, cfg.init_dist, stream)
            node = train_node(X[list(active)], y[list(active)], net, fresh,
                              cfg.hyper, X_val, y_val, stream)
        net = net.with_node(node)

        pn, mn, nn = classify_split(net, X[list(active)], y[list(active)], active)
        pos_idx.update(pn)
        neg_idx.update(nn)

        if not mn:
            ct, cd = process.totals()
            records.append(LevelRecord(level, len(active), 0, len(pn), 0, len(nn),
                                       0, 0, 0, "none", None, None, None, 0.0, ct, cd))
            active = ()
            break

        if cfg.grouping == "kmeans":
            keys = _kmeans_categories(ds, mn, categories, cfg, level)
        else:  # identical raw feature rows
            keys = [ds.features[i].tobytes() for i in mn]
        classes = build_equivalence_classes(mn, keys, ds.labels)

        rule = policy.rule_for(level, len(mn), len(classes))
        regions, risk = rule.apply(classes, cfg.epsilon)

        process = accrue_process_costs(process, level, len(mn))
        pos_idx.update(regions.indices("pos"))
        neg_idx.update(regions.indices("neg"))
        up, ub, un = regions.instance_counts()
        ct, cd = process.totals()
        records.append(LevelRecord(level, len(active), len(mn), len(pn), len(mn), len(nn),
                                   up, ub, un, rule.name, rule.alpha, rule.beta, rule.gamma,
                                   risk, ct, cd))
        active = regions.indices("bnd")
        if not active:
            break

    if active:
        raise RuntimeError("run ended with a non-empty deferred set")  # unreachable
    settled = pos_idx | neg_idx
    if settled != set(int(i) for i in train_idx) or pos_idx & neg_idx:
        raise RuntimeError("final regions do not partition the training set")

    ledger = RunLedger(tuple(records), tuple(sorted(pos_idx)), tuple(sorted(neg_idx)),
                       (), unit_test, unit_delay, cfg.master_seed)
    return net, ledger


def run(ds: Dataset, split: Split, cfg: TrainConfig):
    """Full sequential run; returns the grown network and its ledger."""
    schedule = cfg.schedule
    if schedule is None:
        schedule = build_schedule(
            cfg.t,
            stream_factory=lambda lvl: derive_stream(cfg.master_seed, f"cost-matrix-level-{lvl}"),
        )
        cfg = replace(cfg, schedule=schedule)
    return _run_core(ds, split, cfg, SequentialPolicy(schedule))
