"""Level-by-level construction of the network with three-way settling.

Each granular level trains one fresh hidden node on the instances still in
play, splits them into correctly classified and misclassified sets, groups
the misclassified ones into equivalence classes, and applies the level's
thresholds: accepted/rejected classes are settled, deferred classes carry
over to the next level. The final level applies the forced two-way
threshold, so the loop always terminates within the configured level cap.

The granulation is made once, at level 1, over that level's misclassified
instances (k-means categories, or identical raw feature rows for the
discretizer-free variant). Every later level's misclassified instances were
deferred at the level before, so they are a subset of level 1's, and each
level groups them by the category they received there: later levels
partition shrinking subsets of one fixed granulation.
"""

from __future__ import annotations

import math
import operator
from dataclasses import asdict, dataclass, field

import numpy as np

from .data import Dataset, Split
from .discretize import build_equivalence_classes, kmeans_cluster
from .errors import ConfigError
from .network import (
    INIT_DISTRIBUTIONS,
    LayeredNetwork,
    TrainHyper,
    classify_split,
    init_node,
    predict_batch,  # noqa: F401  (looked up here by perfbench/tracer.py)
    train_node,
)
from .numerics import ACTIVATION_KINDS, derive_stream
from .threeway import (
    CostMatrix,
    ThresholdSchedule,
    accrue_process_costs,
    build_schedule,
    decision_risk_three_way,
    decision_risk_two_way,
    first_level_matrix,
    partition_three_way,
    partition_two_way,
)

DEFAULT_COST_RANGE = (1.0, 50.0)
# what ``run`` fits: the sequential model (STWD-SFNN), its fixed-threshold
# variant (TWD-SFNN) and its variant without the discretizer
LEVEL_LOOP_KINDS = ("stwd-sfnn", "twd-fixed", "stwd-nk")


@dataclass(frozen=True)
class TrainConfig:
    """Everything a run needs besides the data, the split and the schedule."""

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

    def __post_init__(self):
        for name in ("t", "clusters", "master_seed"):
            try:
                # stored as a Python int, which the RNG streams and JSON take
                object.__setattr__(self, name, operator.index(value := getattr(self, name)))
            except TypeError:
                raise ConfigError(f"{name} must be an integer, got {value!r}") from None
        if self.t < 2:
            raise ConfigError("level cap t must be at least 2")
        if self.activation not in ACTIVATION_KINDS:
            raise ConfigError(f"unknown activation: {self.activation!r}")
        if self.init_dist not in INIT_DISTRIBUTIONS:
            raise ConfigError(f"unknown init distribution: {self.init_dist!r}")
        if not math.isfinite(self.epsilon):
            raise ConfigError(f"epsilon must be finite, got {self.epsilon}")
        if not self.epsilon >= 1.0:
            raise ConfigError("penalty factor epsilon must be >= 1")
        if self.clusters < 1:
            raise ConfigError("cluster count must be >= 1")
        if self.master_seed < 0:
            raise ConfigError("master seed must be non-negative")
        lo, hi = self.cost_range
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ConfigError(f"cost_range must be finite, got {self.cost_range}")
        if not 0 < lo < hi:
            raise ConfigError("cost range must satisfy 0 < lo < hi")
        for name in ("unit_test_costs", "unit_delay_costs"):
            vec = getattr(self, name)
            if vec is not None:
                if len(vec) < self.t:
                    raise ConfigError(f"unit cost vector must cover {self.t} levels")
                if not all(math.isfinite(u) for u in vec):
                    raise ConfigError(f"{name} must be finite, got {vec}")
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


def level_rule(schedule: ThresholdSchedule, j: int) -> Rule:
    """Schedule level j's rule: three-way with ``pairs[j-1]`` below level t,
    two-way with ``gamma`` at level t."""
    if j < schedule.t:
        alpha, beta = schedule.pairs[j - 1]
        return Rule("three-way", schedule.matrices[j - 1], alpha=alpha, beta=beta)
    return Rule("two-way", schedule.matrices[-1], gamma=schedule.gamma)


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


def _distinct_rows(points: np.ndarray, limit: int) -> int:
    """``min(limit, len(np.unique(points, axis=0)))`` for finite rows, without
    sorting them: the count stops once ``limit`` distinct rows are seen."""
    seen: set[bytes] = set()
    for s in range(0, len(points), 64):
        seen.update(map(np.ndarray.tobytes, points[s:s + 64] + 0.0))  # -0.0 + 0.0 is 0.0
        if len(seen) >= limit:
            return limit
    return len(seen)


def _granulate(points: np.ndarray, cfg: TrainConfig, identity: bool):
    """Category of each row of ``points``: its k-means cluster among at most
    ``cfg.clusters`` clusters, or, if ``identity``, an id per distinct raw row
    (compared as bytes, so -0.0 and 0.0 stay apart)."""
    if identity:
        ids: dict[bytes, int] = {}
        return [ids.setdefault(row.tobytes(), len(ids)) for row in points]
    k = _distinct_rows(points, cfg.clusters)
    stream = derive_stream(cfg.master_seed, "kmeans-level-1")
    return kmeans_cluster(points, k, stream).assignments


def level_schedule(kind: str, cfg: TrainConfig) -> ThresholdSchedule:
    """The schedule a ``kind`` run samples from the config's seed: ``cfg.t``
    levels, or for ``twd-fixed`` two levels of level 1's matrix."""
    if kind == "twd-fixed":
        return ThresholdSchedule.from_matrices([first_level_matrix(cfg.master_seed)] * 2)
    return build_schedule(cfg.t, cfg.master_seed)


def run(ds: Dataset, split: Split, cfg: TrainConfig,
        schedule: ThresholdSchedule | None = None, kind: str = "stwd-sfnn"):
    """The level loop of a ``kind`` run on ``schedule`` (None: the kind's
    ``level_schedule``); returns the grown network and its ledger.

    Level i applies schedule level i, which must span ``cfg.t`` levels; a
    ``twd-fixed`` run applies level 1 while some equivalence class still holds
    two or more misclassified instances, and the schedule's last level
    otherwise and always at the level cap. Misclassified instances form
    classes by k-means category, or for ``stwd-nk`` by identical feature rows.
    """
    if kind not in LEVEL_LOOP_KINDS:
        raise ValueError(f"unknown level-loop kind {kind!r}, not one of {LEVEL_LOOP_KINDS}")
    fixed, identity = kind == "twd-fixed", kind == "stwd-nk"
    if schedule is None:
        schedule = level_schedule(kind, cfg)
    elif not fixed and schedule.t != cfg.t:
        raise ConfigError(f"schedule spans {schedule.t} levels, config says {cfg.t}")
    X, y = ds.features, ds.labels
    train_idx = np.array(split.train, dtype=np.int64)
    if train_idx.size == 0:
        raise ValueError("training split is empty")
    val_idx = np.array(split.validation, dtype=np.int64)
    X_val, y_val = X[val_idx], y[val_idx]

    unit_test, unit_delay = resolve_unit_costs(cfg)
    process = (0.0, 0.0)
    net = LayeredNetwork.empty(ds.n_features, cfg.activation)
    category = np.empty(len(X), dtype=np.int64)
    pos_idx: set[int] = set()
    neg_idx: set[int] = set()
    records: list[LevelRecord] = []
    active = tuple(train_idx.tolist())

    for level in range(1, cfg.t + 1):
        stream = derive_stream(cfg.master_seed, f"init-node-{level}")
        rows = np.array(active, dtype=np.int64)
        X_active, y_active = X[rows], y[rows]
        fresh = init_node(ds.n_features, cfg.init_dist, stream)
        net = train_node(X_active, y_active, net, fresh, cfg.hyper, X_val, y_val, stream)

        pn, mn, nn = classify_split(net, X_active, y_active, rows)
        del X_active, y_active  # not held through the level's k-means, its memory peak
        pos_idx.update(pn)
        neg_idx.update(nn)

        if not mn:
            records.append(LevelRecord(level, len(active), 0, len(pn), 0, len(nn),
                                       0, 0, 0, "none", None, None, None, 0.0, *process))
            active = ()
            break

        misclassified = np.array(mn, dtype=np.int64)
        if level == 1:  # later levels' misclassified rows are level 1's deferred ones
            category[misclassified] = _granulate(X[misclassified], cfg, identity)
        classes = build_equivalence_classes(mn, category[misclassified].tolist(), ds.labels)

        if not fixed:
            j = level
        elif level < cfg.t and len(mn) > len(classes):
            j = 1
        else:
            j = schedule.t
        rule = level_rule(schedule, j)
        regions, risk = rule.apply(classes, cfg.epsilon)

        process = accrue_process_costs(process, len(mn), unit_test[level - 1],
                                       unit_delay[level - 1])
        pos_idx.update(regions.indices("pos"))
        neg_idx.update(regions.indices("neg"))
        up, ub, un = regions.instance_counts()
        records.append(LevelRecord(level, len(active), len(mn), len(pn), len(mn), len(nn),
                                   up, ub, un, rule.name, rule.alpha, rule.beta, rule.gamma,
                                   risk, *process))
        active = regions.indices("bnd")
        if not active:
            break

    if active:
        raise RuntimeError("run ended with a non-empty deferred set")  # unreachable
    settled = pos_idx | neg_idx
    if settled != set(train_idx.tolist()) or pos_idx & neg_idx:
        raise RuntimeError("final regions do not partition the training set")

    ledger = RunLedger(tuple(records), tuple(sorted(pos_idx)), tuple(sorted(neg_idx)),
                       (), unit_test, unit_delay, cfg.master_seed)
    return net, ledger
