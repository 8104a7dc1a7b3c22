"""Sequential three-way decision machinery.

A level's decision behaviour is fully determined by a six-loss cost matrix:
the accept/defer thresholds (alpha, beta) and the final two-way threshold
gamma are closed-form ratios of its loss differences. A schedule stacks one
matrix per granular level so that the defer corridor (beta, alpha) shrinks
monotonically and the last level's gamma falls inside the final corridor,
which forces every deferred instance to be settled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .discretize import EquivalenceClass
from .errors import SamplingError
from .numerics import RngStream, _f2s, derive_stream

MATRIX_DRAW_BUDGET = 10_000
LEVEL_ATTEMPT_BUDGET = 1_000


@dataclass(frozen=True)
class CostMatrix:
    """Decision losses for one level.

    ``lpp/lbp/lnp`` are the losses of accepting/deferring/rejecting a
    positive instance, ``lpn/lbn/lnn`` the same actions on a negative one.
    Validity requires both orderings (wrong actions cost strictly more) and
    the cross inequality that keeps beta below alpha.
    """

    lpp: float
    lbp: float
    lnp: float
    lpn: float
    lbn: float
    lnn: float

    def __post_init__(self):
        if not (0.0 <= self.lpp < self.lbp < self.lnp < 1.0):
            raise ValueError("need 0 <= lPP < lBP < lNP < 1")
        if not (0.0 <= self.lnn < self.lbn < self.lpn < 1.0):
            raise ValueError("need 0 <= lNN < lBN < lPN < 1")
        if not ((self.lbn - self.lnn) * (self.lbp - self.lpp)
                < (self.lpn - self.lbn) * (self.lnp - self.lbp)):
            raise ValueError("cross constraint (lBN-lNN)(lBP-lPP) < (lPN-lBN)(lNP-lBP) violated")

    def as_tuple(self) -> tuple[float, ...]:
        return (self.lpp, self.lbp, self.lnp, self.lpn, self.lbn, self.lnn)


def thresholds_from(matrix: CostMatrix) -> tuple[float, float]:
    """(alpha, beta) of a level; 0 < beta < alpha < 1 for any valid matrix."""
    a = matrix.lpn - matrix.lbn
    b = matrix.lbp - matrix.lpp
    c = matrix.lbn - matrix.lnn
    d = matrix.lnp - matrix.lbp
    return a / (a + b), c / (c + d)


def gamma_from(matrix: CostMatrix) -> float:
    """Final-level two-way threshold; always strictly between beta and alpha."""
    num = matrix.lpn - matrix.lnn
    den = num + (matrix.lnp - matrix.lpp)
    return num / den


def sample_cost_matrix(stream: RngStream, budget: int = MATRIX_DRAW_BUDGET) -> CostMatrix:
    """Rejection-sample a valid matrix from six uniforms on [0, 1).

    Draw order is fixed (lPP, lBP, lNP, lPN, lBN, lNN) so sequences are
    reproducible; a draw that :class:`CostMatrix` rejects is redrawn.
    Raises SamplingError if the budget is exhausted.
    """
    for _ in range(budget):
        losses = [stream.uniform() for _ in range(6)]
        try:
            return CostMatrix(*losses)
        except ValueError:
            pass
    raise SamplingError(f"no valid cost matrix within {budget} draws")


@dataclass(frozen=True)
class ThresholdSchedule:
    """Per-level (alpha, beta) pairs for levels 1..t-1 plus the level-t gamma.

    Construction always checks the sequential chain
    0 < beta_1 <= ... <= beta_{t-1} < gamma < alpha_{t-1} <= ... <= alpha_1 < 1.
    :meth:`from_matrices` additionally guarantees that each pair is derived
    from its source matrix; the direct constructor accepts externally
    recorded threshold values alongside their matrices.
    """

    pairs: tuple[tuple[float, float], ...]
    gamma: float
    matrices: tuple[CostMatrix, ...]

    def __post_init__(self):
        if len(self.matrices) != len(self.pairs) + 1:
            raise ValueError("need one matrix per pair plus the gamma-level matrix")
        if len(self.matrices) < 2:
            raise ValueError("a schedule spans at least 2 levels")
        alphas = [a for a, _ in self.pairs]
        betas = [b for _, b in self.pairs]
        if not 0.0 < betas[0]:
            raise ValueError("beta_1 must be positive")
        if not alphas[0] < 1.0:
            raise ValueError("alpha_1 must be below 1")
        for i in range(1, len(self.pairs)):
            if not (betas[i - 1] <= betas[i] and alphas[i] <= alphas[i - 1]):
                raise ValueError(f"sequential ordering broken at level {i + 1}")
        if not betas[-1] < self.gamma < alphas[-1]:
            raise ValueError("gamma must lie strictly inside the last (beta, alpha) corridor")

    @property
    def t(self) -> int:
        return len(self.matrices)

    @classmethod
    def from_matrices(cls, matrices) -> "ThresholdSchedule":
        matrices = tuple(matrices)
        pairs = tuple(thresholds_from(mx) for mx in matrices[:-1])
        return cls(pairs, gamma_from(matrices[-1]), matrices)


def matrix_with_thresholds(alpha: float, beta: float, stream: RngStream) -> CostMatrix:
    """Random valid matrix whose derived thresholds equal (alpha, beta).

    The threshold formulas constrain the four loss differences
    a = lPN-lBN, b = lBP-lPP, c = lBN-lNN, d = lNP-lBP only through the
    ratios a/(a+b) = alpha and c/(c+d) = beta, so the difference scales
    u = a+b, v = c+d and the row offsets lPP, lNN are free. Scales are
    drawn from (0.05, 0.5), which keeps every entry inside [0, 1), and the
    offsets uniformly from the room each row has left. The cross
    constraint is equivalent to beta < alpha and holds by construction.
    Draw order: u, v, lPP offset, lNN offset.
    """
    if not 0.0 < beta < alpha < 1.0:
        raise ValueError("need 0 < beta < alpha < 1")
    u = stream.uniform(0.05, 0.5)
    v = stream.uniform(0.05, 0.5)
    a, b = alpha * u, (1.0 - alpha) * u
    c, d = beta * v, (1.0 - beta) * v
    lpp = stream.uniform(0.0, 1.0 - (b + d))
    lnn = stream.uniform(0.0, 1.0 - (a + c))
    return CostMatrix(lpp, lpp + b, lpp + b + d, lnn + c + a, lnn + c, lnn)


def first_level_matrix(master_seed: int) -> CostMatrix:
    """Level 1's cost matrix: the schedule's first level and the fixed-threshold matrix."""
    return sample_cost_matrix(derive_stream(master_seed, "cost-matrix-level-1"))


def build_schedule(t: int, master_seed: int) -> ThresholdSchedule:
    """Sample a t-level schedule whose thresholds form a valid chain.

    Level i draws from the stream ``cost-matrix-level-{i}`` of
    ``master_seed``. Level 1 is rejection-sampled from the open matrix
    distribution. Each later level draws target thresholds inside the
    current corridor [beta_prev, alpha_prev] and constructs a valid matrix
    realizing them; blind per-level rejection is unworkable here because
    the corridor narrows geometrically, so the chance that an
    unconditioned matrix lands inside it decays below any practical budget
    after a few levels. Candidates whose recomputed thresholds fail to
    extend the chain (rounding at the corridor edge) are rejected and
    redrawn within LEVEL_ATTEMPT_BUDGET attempts; a SamplingError names the
    level whose corridor holds no float, or whose budget ran out. The final
    level's gamma is the mediant of its own corridor-contained thresholds
    and therefore falls strictly inside the last (beta, alpha) corridor.
    """
    if t < 2:
        raise ValueError("schedule needs t >= 2 levels")
    first = first_level_matrix(master_seed)
    matrices = [first]
    pairs = [thresholds_from(first)]
    for level in range(2, t + 1):
        s = derive_stream(master_seed, f"cost-matrix-level-{level}")
        prev_alpha, prev_beta = pairs[-1]
        where = (f"level {level} of a t = {t} schedule, defer corridor (beta, alpha) = "
                 f"({prev_beta!r}, {prev_alpha!r})")
        if not math.nextafter(prev_beta, 1.0) < prev_alpha:
            # gamma must end up strictly inside this corridor: no attempt can succeed
            raise SamplingError(f"{where}: no float lies strictly inside the corridor")
        for _ in range(LEVEL_ATTEMPT_BUDGET):
            try:  # a corridor a few ulps wide can fail a draw or the matrix checks
                beta_target = s.uniform(prev_beta, prev_alpha)
                alpha_target = s.uniform(beta_target, prev_alpha)
                mx = matrix_with_thresholds(alpha_target, beta_target, s)
            except ValueError:
                continue
            alpha, beta = thresholds_from(mx)
            if not (prev_beta <= beta < alpha <= prev_alpha):
                continue
            if level == t:
                gamma = gamma_from(mx)
                if not prev_beta < gamma < prev_alpha:
                    continue
                matrices.append(mx)
                return ThresholdSchedule(tuple(pairs), gamma, tuple(matrices))
            matrices.append(mx)
            pairs.append((alpha, beta))
            break
        else:
            raise SamplingError(f"{where}: no sequential matrix within "
                                f"{LEVEL_ATTEMPT_BUDGET} attempts")


@dataclass(frozen=True)
class Regions:
    """Disjoint accept/defer/reject groups of equivalence classes."""

    pos: tuple[EquivalenceClass, ...]
    bnd: tuple[EquivalenceClass, ...]
    neg: tuple[EquivalenceClass, ...]

    def instance_counts(self) -> tuple[int, int, int]:
        return (sum(c.size for c in self.pos),
                sum(c.size for c in self.bnd),
                sum(c.size for c in self.neg))

    def indices(self, which: str) -> tuple[int, ...]:
        group = getattr(self, which)
        return tuple(sorted(i for c in group for i in c.members))


def partition_three_way(classes, alpha: float, beta: float) -> Regions:
    """Accept at p >= alpha, reject at p <= beta, defer in between.

    Boundary ties follow the rule text exactly: p == alpha accepts and
    p == beta rejects.
    """
    if not 0.0 < beta < alpha < 1.0:
        raise ValueError(f"need 0 < beta < alpha < 1, got beta={beta}, alpha={alpha}")
    pos, bnd, neg = [], [], []
    for cls in classes:
        if cls.p >= alpha:
            pos.append(cls)
        elif cls.p <= beta:
            neg.append(cls)
        else:
            bnd.append(cls)
    return Regions(tuple(pos), tuple(bnd), tuple(neg))


def partition_two_way(classes, gamma: float) -> Regions:
    """Forced accept/reject split at gamma (p == gamma accepts)."""
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"need 0 < gamma < 1, got {gamma}")
    pos, neg = [], []
    for cls in classes:
        (pos if cls.p >= gamma else neg).append(cls)
    return Regions(tuple(pos), (), tuple(neg))


def _region_risk(classes, loss_pos: float, loss_neg: float) -> float:
    return sum(cls.size * (loss_pos * cls.p + loss_neg * (1.0 - cls.p)) for cls in classes)


def decision_risk_three_way(regions: Regions, matrix: CostMatrix, epsilon: float) -> float:
    """Per-instance decision risk with the defer term scaled by epsilon."""
    if not epsilon >= 1.0:
        raise ValueError(f"penalty factor must be >= 1, got {epsilon}")
    return (_region_risk(regions.pos, matrix.lpp, matrix.lpn)
            + epsilon * _region_risk(regions.bnd, matrix.lbp, matrix.lbn)
            + _region_risk(regions.neg, matrix.lnp, matrix.lnn))


def decision_risk_two_way(regions: Regions, matrix: CostMatrix) -> float:
    """Per-instance decision risk of a forced two-way partition."""
    if regions.bnd:
        raise ValueError("two-way risk requires an empty defer region")
    return (_region_risk(regions.pos, matrix.lpp, matrix.lpn)
            + _region_risk(regions.neg, matrix.lnp, matrix.lnn))


def accrue_process_costs(totals: tuple[float, float], m: int, unit_test: float,
                         unit_delay: float) -> tuple[float, float]:
    """(cost_test, cost_delay) after a level that processes ``m`` instances.

    Test cost accumulates m_i * unit_test_i; delay cost is the running
    maximum of m_i * unit_delay_i.
    """
    if m <= 0:
        raise ValueError(f"instance count must be positive, got {m}")
    cost_test, cost_delay = totals
    return cost_test + m * unit_test, max(cost_delay, m * unit_delay)


def schedule_to_json(schedule: ThresholdSchedule) -> dict:
    """Schedule as JSON-ready dict (floats encoded as decimal strings)."""
    levels = []
    for i, ((alpha, beta), mx) in enumerate(zip(schedule.pairs, schedule.matrices), start=1):
        levels.append({
            "level": i,
            "alpha": _f2s(alpha),
            "beta": _f2s(beta),
            "matrix": [_f2s(v) for v in mx.as_tuple()],
        })
    return {
        "levels": levels,
        "final": {
            "gamma": _f2s(schedule.gamma),
            "matrix": [_f2s(v) for v in schedule.matrices[-1].as_tuple()],
        },
    }


def schedule_from_json(doc: dict) -> ThresholdSchedule:
    """Rebuild a schedule; the sequential chain is re-validated."""
    pairs = []
    matrices = []
    for entry in doc["levels"]:
        pairs.append((float(entry["alpha"]), float(entry["beta"])))
        matrices.append(CostMatrix(*(float(v) for v in entry["matrix"])))
    matrices.append(CostMatrix(*(float(v) for v in doc["final"]["matrix"])))
    return ThresholdSchedule(tuple(pairs), float(doc["final"]["gamma"]), tuple(matrices))
