import hashlib
import json

import pytest

from trisect import (
    CostMatrix,
    EquivalenceClass,
    RngStream,
    SamplingError,
    ThresholdSchedule,
    accrue_process_costs,
    build_schedule,
    decision_risk_three_way,
    decision_risk_two_way,
    gamma_from,
    partition_three_way,
    partition_two_way,
    sample_cost_matrix,
    thresholds_from,
)
from trisect.threeway import matrix_with_thresholds, schedule_from_json, schedule_to_json

from conftest import MATRIX_1, MATRIX_2, MATRIX_3, RECORDED_GAMMA, RECORDED_PAIRS


def _cls(p_num, p_den, start=0):
    """Equivalence class of size p_den with p_num positives."""
    return EquivalenceClass(tuple(range(start, start + p_den)), p_num)


class TestCostMatrix:
    def test_worked_matrices_pass_validation(self):
        for mx in (MATRIX_1, MATRIX_2, MATRIX_3):
            assert 0.0 <= mx.lpp < mx.lbp < mx.lnp < 1.0

    def test_ordering_violation_rejected(self):
        with pytest.raises(ValueError):
            CostMatrix(0.5, 0.2, 0.9, 0.4, 0.1, 0.0)

    def test_cross_constraint_rejected(self):
        # both rows ordered, but deferral is not cheap enough in between
        with pytest.raises(ValueError, match="cross"):
            CostMatrix(0.0, 0.8, 0.9, 0.9, 0.8, 0.0)

    def test_sampled_matrices_all_valid(self):
        stream = RngStream(13, "mx")
        for _ in range(1000):
            mx = sample_cost_matrix(stream)
            assert 0.0 <= mx.lpp < mx.lbp < mx.lnp < 1.0
            assert 0.0 <= mx.lnn < mx.lbn < mx.lpn < 1.0
            assert (mx.lbn - mx.lnn) * (mx.lbp - mx.lpp) < (mx.lpn - mx.lbn) * (mx.lnp - mx.lbp)

    def test_sampling_budget_exhaustion(self):
        with pytest.raises(SamplingError):
            sample_cost_matrix(RngStream(0, "tiny"), budget=1)


class TestThresholds:
    def test_level1_pair_matches_recorded_values(self):
        alpha, beta = thresholds_from(MATRIX_1)
        assert alpha == pytest.approx(0.6894, abs=1e-4)
        assert beta == pytest.approx(0.1425, abs=1e-4)

    def test_level2_pair_formula_exactness(self):
        # the recorded level-2 pair is (0.5389, 0.5016), but the beta ratio
        # of MATRIX_2 itself evaluates to 0.49981...; assert the formula
        # against an independent recomputation
        alpha, beta = thresholds_from(MATRIX_2)
        assert alpha == pytest.approx(0.5389, abs=1e-4)
        a = MATRIX_2.lpn - MATRIX_2.lbn
        b = MATRIX_2.lbp - MATRIX_2.lpp
        c = MATRIX_2.lbn - MATRIX_2.lnn
        d = MATRIX_2.lnp - MATRIX_2.lbp
        assert alpha == pytest.approx(a / (a + b), abs=1e-15)
        assert beta == pytest.approx(c / (c + d), abs=1e-15)
        assert beta == pytest.approx(0.4998, abs=1e-4)

    def test_symmetric_matrix_alpha_half(self):
        # lPN - lBN == lBP - lPP forces alpha = 1/2
        mx = CostMatrix(0.1, 0.3, 0.9, 0.5, 0.3, 0.1)
        alpha, _ = thresholds_from(mx)
        assert alpha == pytest.approx(0.5)

    def test_gamma_matches_recorded_value(self):
        assert gamma_from(MATRIX_3) == pytest.approx(0.5204, abs=1e-4)

    def test_gamma_symmetry(self):
        mx = CostMatrix(0.1, 0.3, 0.6, 0.6, 0.3, 0.1)
        assert gamma_from(mx) == pytest.approx(0.5)

    def test_beta_gamma_alpha_ordering_over_samples(self):
        stream = RngStream(99, "order")
        for _ in range(1000):
            mx = sample_cost_matrix(stream)
            alpha, beta = thresholds_from(mx)
            gamma = gamma_from(mx)
            assert 0.0 < beta < gamma < alpha < 1.0


class TestSchedule:
    def test_worked_matrices_accepted_as_three_level_schedule(self):
        sched = ThresholdSchedule.from_matrices([MATRIX_1, MATRIX_2, MATRIX_3])
        (a1, b1), (a2, b2) = sched.pairs
        assert b1 <= b2 < sched.gamma < a2 <= a1

    def test_recorded_threshold_injection(self):
        sched = ThresholdSchedule(RECORDED_PAIRS, RECORDED_GAMMA,
                                  (MATRIX_1, MATRIX_2, MATRIX_3))
        assert sched.pairs == ((0.6894, 0.1425), (0.5389, 0.5016))
        assert sched.t == 3

    def test_ordering_violation_rejected(self):
        # alpha increasing between levels breaks the chain
        with pytest.raises(ValueError, match="ordering"):
            ThresholdSchedule(((0.6, 0.2), (0.7, 0.3)), 0.5,
                              (MATRIX_1, MATRIX_1, MATRIX_1))

    def test_gamma_outside_corridor_rejected(self):
        with pytest.raises(ValueError, match="gamma"):
            ThresholdSchedule(((0.6, 0.2), (0.55, 0.3)), 0.57,
                              (MATRIX_1, MATRIX_1, MATRIX_1))

    def test_seeded_schedules_satisfy_full_chain(self):
        for seed in range(20):
            sched = build_schedule(10, seed)
            alphas = [a for a, _ in sched.pairs]
            betas = [b for _, b in sched.pairs]
            assert all(x <= y for x, y in zip(betas, betas[1:]))
            assert all(x >= y for x, y in zip(alphas, alphas[1:]))
            assert 0.0 < betas[0] and alphas[0] < 1.0
            assert betas[-1] < sched.gamma < alphas[-1]
            for (alpha, beta), mx in zip(sched.pairs, sched.matrices):
                assert thresholds_from(mx) == (alpha, beta)
            assert gamma_from(sched.matrices[-1]) == sched.gamma

    def test_matrix_with_thresholds_roundtrip(self):
        stream = RngStream(5, "mwt")
        for _ in range(200):
            beta = stream.uniform(0.05, 0.6)
            alpha = stream.uniform(beta + 0.05, 0.99)
            mx = matrix_with_thresholds(alpha, beta, stream)
            got_alpha, got_beta = thresholds_from(mx)
            assert got_alpha == pytest.approx(alpha, abs=1e-12)
            assert got_beta == pytest.approx(beta, abs=1e-12)

    def test_t_too_small(self):
        with pytest.raises(ValueError):
            build_schedule(1, 0)

    def test_seeded_schedules_are_pinned(self):
        # every seed builds at t = 10 and 13; a change to the level sampler
        # that moves any of these 400 schedules changes the digest
        h = hashlib.sha256()
        for t in (10, 13):
            for seed in range(200):
                doc = schedule_to_json(build_schedule(t, seed))
                h.update(json.dumps(doc, sort_keys=True).encode())
        assert h.hexdigest() == \
            "363fcf29b83a2e21c4195f4eb7e289588384500827596f30594150bddffc0880"

    @pytest.mark.parametrize("seed, level", [(0, 20), (1, 16)])
    def test_collapsed_corridor_is_a_sampling_error(self, seed, level):
        # the corridor narrows geometrically until no float lies inside it
        with pytest.raises(SamplingError, match=rf"^level {level} of a t = 40 schedule, "
                                                r"defer corridor \(beta, alpha\) = \(0\.\d+, "):
            build_schedule(40, seed)

    def test_json_roundtrip(self):
        sched = build_schedule(4, 3)
        again = schedule_from_json(schedule_to_json(sched))
        assert again == sched


class TestPartitions:
    def test_worked_level1_partition(self):
        classes = [_cls(0, 1), _cls(1, 2, start=1)]  # p = 0 and p = 0.5
        regions = partition_three_way(classes, 0.6894, 0.1425)
        assert regions.indices("neg") == (0,)
        assert regions.indices("bnd") == (1, 2)
        assert regions.indices("pos") == ()

    def test_worked_level2_partition(self):
        classes = [_cls(0, 1), _cls(1, 2, start=1)]
        regions = partition_three_way(classes, 0.5389, 0.5016)
        assert regions.indices("neg") == (0, 1, 2)
        assert regions.bnd == ()

    def test_boundary_ties(self):
        classes = [_cls(1, 2)]  # p = 0.5
        assert partition_three_way(classes, 0.5, 0.2).pos  # p == alpha -> accept
        assert partition_three_way(classes, 0.8, 0.5).neg  # p == beta -> reject
        assert partition_two_way(classes, 0.5).pos  # p == gamma -> accept

    def test_two_way_never_defers(self):
        stream = RngStream(21, "tw")
        for _ in range(50):
            classes = [_cls(stream.randrange(4), 3, start=3 * i) for i in range(4)]
            regions = partition_two_way(classes, stream.uniform(0.05, 0.95))
            assert regions.bnd == ()
            assert len(regions.indices("pos")) + len(regions.indices("neg")) == 12

    def test_three_way_partition_is_exhaustive(self):
        stream = RngStream(22, "ex")
        for _ in range(50):
            classes = [_cls(stream.randrange(5), 4, start=4 * i) for i in range(5)]
            beta = stream.uniform(0.05, 0.45)
            alpha = stream.uniform(beta + 0.05, 0.99)
            regions = partition_three_way(classes, alpha, beta)
            all_members = (set(regions.indices("pos")) | set(regions.indices("bnd"))
                           | set(regions.indices("neg")))
            assert all_members == set(range(20))

    def test_defer_region_nests_as_corridor_narrows(self):
        stream = RngStream(23, "nest")
        for _ in range(50):
            classes = [_cls(stream.randrange(6), 5, start=5 * i) for i in range(6)]
            beta1 = stream.uniform(0.05, 0.4)
            alpha1 = stream.uniform(beta1 + 0.1, 0.99)
            beta2 = stream.uniform(beta1, alpha1)
            alpha2 = stream.uniform(beta2 + 1e-9, alpha1)
            wide = partition_three_way(classes, alpha1, beta1)
            narrow = partition_three_way(classes, alpha2, beta2)
            assert set(narrow.indices("bnd")) <= set(wide.indices("bnd"))

    def test_invalid_thresholds(self):
        with pytest.raises(ValueError):
            partition_three_way([], 0.2, 0.6)
        with pytest.raises(ValueError):
            partition_two_way([], 1.5)


class TestRisks:
    def test_worked_level1_risk(self):
        # defer region holds two instances at p = 0.5, reject region one at p = 0
        regions = partition_three_way([_cls(0, 1), _cls(1, 2, start=1)], 0.6894, 0.1425)
        risk = decision_risk_three_way(regions, MATRIX_1, epsilon=2.0)
        assert risk == pytest.approx(0.5510, abs=1e-4)

    def test_worked_level2_risk(self):
        regions = partition_three_way([_cls(1, 2)], 0.5389, 0.5016)
        risk = decision_risk_three_way(regions, MATRIX_2, epsilon=2.0)
        assert risk == pytest.approx(0.5962, abs=1e-4)

    def test_empty_regions_risk_zero(self):
        regions = partition_three_way([], 0.6, 0.2)
        assert decision_risk_three_way(regions, MATRIX_1, 2.0) == 0.0
        assert decision_risk_two_way(partition_two_way([], 0.5), MATRIX_1) == 0.0

    def test_perfect_acceptance_is_free(self):
        regions = partition_two_way([_cls(1, 1)], 0.5)  # p = 1, lPP = 0
        assert decision_risk_two_way(regions, MATRIX_1) == 0.0

    def test_two_way_risk_oracle(self):
        stream = RngStream(31, "risk")
        for _ in range(100):
            classes = [_cls(stream.randrange(4), 3, start=3 * i) for i in range(4)]
            gamma = stream.uniform(0.05, 0.95)
            mx = sample_cost_matrix(stream)
            regions = partition_two_way(classes, gamma)
            got = decision_risk_two_way(regions, mx)
            expected = 0.0
            for cls in regions.pos:
                expected += cls.size * (mx.lpp * cls.p + mx.lpn * (1 - cls.p))
            for cls in regions.neg:
                expected += cls.size * (mx.lnp * cls.p + mx.lnn * (1 - cls.p))
            assert got == pytest.approx(expected, abs=1e-12)

    def test_three_way_risk_monotone_in_epsilon(self):
        regions = partition_three_way([_cls(1, 2)], 0.9, 0.1)
        risks = [decision_risk_three_way(regions, MATRIX_1, e) for e in (1.0, 1.5, 2.0, 4.0)]
        assert all(a < b for a, b in zip(risks, risks[1:]))

    def test_epsilon_below_one_rejected(self):
        with pytest.raises(ValueError):
            decision_risk_three_way(partition_three_way([], 0.6, 0.2), MATRIX_1, 0.5)

    def test_two_way_rejects_defer_region(self):
        regions = partition_three_way([_cls(1, 2)], 0.9, 0.1)
        with pytest.raises(ValueError):
            decision_risk_two_way(regions, MATRIX_1)


class TestProcessCosts:
    def test_worked_example_sequence(self):
        totals = accrue_process_costs((0.0, 0.0), 3, 1.0, 1.0)
        assert totals == (3.0, 3.0)
        totals = accrue_process_costs(totals, 2, 2.0, 2.0)
        assert totals == (7.0, 4.0)

    def test_single_level_base_case(self):
        assert accrue_process_costs((0.0, 0.0), 1, 1.0, 1.0) == (1.0, 1.0)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            accrue_process_costs((0.0, 0.0), 0, 1.0, 1.0)

    def test_test_cost_strictly_increases(self):
        stream = RngStream(41, "pc")
        units = tuple(sorted(stream.uniform(1.0, 50.0) for _ in range(6)))
        previous_test, previous_delay = 0.0, 0.0
        for unit in units:
            test, delay = accrue_process_costs((previous_test, previous_delay),
                                               1 + stream.randrange(30), unit, unit)
            assert test > previous_test
            assert delay >= previous_delay
            previous_test, previous_delay = test, delay
