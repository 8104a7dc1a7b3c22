"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. The recorded level-2 threshold pair (0.5389, 0.5016) is kept as
recorded and injected into the worked example (criteria 2 and 4), because
its beta is what the documented partitions ran with; it cannot be derived
from its cost matrix, whose beta is 1344/2689 = 0.49981... Criterion 1
asserts both sides: the derivation against an exact oracle of its formulas,
and the recorded-versus-derived gap of that one value.
"""

import itertools
import json
import os
import time
import timeit
from fractions import Fraction

import numpy as np
import pytest

from trisect import (
    RngStream,
    TrainConfig,
    TrainHyper,
    build_schedule,
    derive_stream,
    empirical_nodes,
    gamma_from,
    run,
    run_twd_fixed,
    split_811,
    thresholds_from,
    trainer,
)
from trisect.cli import main as cli_main
from trisect.discretize import kmeans_cluster, within_sse
from trisect.network import AdamState, TrainHyper as Hyper, adam_step, cost, cost_and_grads
from trisect.metrics import roc_auc, weighted_f1
from trisect.numerics import ACTIVATION_KINDS
from trisect.threeway import (
    ThresholdSchedule,
    accrue_process_costs,
    decision_risk_three_way,
    partition_three_way,
    sample_cost_matrix,
)

from conftest import (
    MATRIX_1,
    MATRIX_2,
    MATRIX_3,
    NODE_1,
    RECORDED_GAMMA,
    RECORDED_PAIRS,
    TOY_FEATURES,
    TOY_SPLIT,
    network_of,
    synthetic_dataset,
    write_health_survey_csv,
)
from test_metrics import _oracle_auc, _oracle_weighted_f1
from test_discretize import _lloyd_fixed_point


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[ACCEPTANCE {criterion:>2}] {'PASS' if ok else 'FAIL'} {detail}")


# the fixture matrices are written to four decimals
ROUNDING_HALF_UNIT = Fraction(1, 20000)
# recorded beta_2 0.5016 minus the exact beta of MATRIX_2, 1344/2689
DOCUMENTED_BETA_2_GAP = Fraction("0.001786")


def _ratio(num, other):
    return num / (num + other)


def _exact_entries(matrix):
    """The six losses as the decimals they were written as, in exact arithmetic."""
    return tuple(Fraction(repr(v)) for v in matrix.as_tuple())


def _exact_thresholds(matrix):
    """(alpha, beta, gamma) of the documented formulas, as exact fractions.

    alpha = a/(a+b), beta = c/(c+d) with a = lPN-lBN, b = lBP-lPP,
    c = lBN-lNN, d = lNP-lBP; gamma = (lPN-lNN)/((lPN-lNN) + (lNP-lPP)).
    """
    lpp, lbp, lnp, lpn, lbn, lnn = _exact_entries(matrix)
    return (_ratio(lpn - lbn, lbp - lpp), _ratio(lbn - lnn, lnp - lbp),
            _ratio(lpn - lnn, lnp - lpp))


def _beta_rounding_ceiling(matrix):
    """Largest beta of any valid matrix whose entries round to ``matrix``'s.

    beta grows with c = lBN-lNN and falls with d = lNP-lBP, and c and d share
    no entry, so the bound sits at a corner of the rounding box. Losses are
    non-negative, so an entry written 0 lies in [0, ROUNDING_HALF_UNIT).
    """
    _, lbp, lnp, _, lbn, lnn = _exact_entries(matrix)
    h = ROUNDING_HALF_UNIT
    c = (lbn + h) - max(Fraction(0), lnn - h)
    d = max(Fraction(0), lnp - h) - (lbp + h)
    return _ratio(c, d)


def test_c01_threshold_values():
    """Recorded three-level threshold values, each within 1e-4, in < 1 ms.

    Every derived value must equal the exact-fraction oracle of the
    documented formulas within 1e-12. alpha_1, beta_1, alpha_2 and gamma
    must reproduce the recorded values. The recorded beta_2 cannot: the
    exact beta of MATRIX_2 is 1344/2689 = 0.49981..., and no matrix whose
    entries round to MATRIX_2's four decimals gives more than 0.500093. The
    recorded 0.5016 is what the worked example ran with, so the fixtures
    inject it; this test asserts that documented gap instead of an equality.
    """
    def derive():
        return thresholds_from(MATRIX_1), thresholds_from(MATRIX_2), gamma_from(MATRIX_3)

    # best of a few: one GC pause or preemption must not fail a correct program
    elapsed = min(timeit.repeat(derive, number=1, repeat=5))
    (a1, b1), (a2, b2), gamma = derive()

    exact_a1, exact_b1, _ = _exact_thresholds(MATRIX_1)
    exact_a2, exact_b2, _ = _exact_thresholds(MATRIX_2)
    _, _, exact_gamma = _exact_thresholds(MATRIX_3)
    derived = {"alpha_1": (a1, exact_a1), "beta_1": (b1, exact_b1),
               "alpha_2": (a2, exact_a2), "beta_2": (b2, exact_b2),
               "gamma": (gamma, exact_gamma)}
    off_formula = [f"{name}: derived {got!r} vs exact {float(want)!r}"
                   for name, (got, want) in derived.items()
                   if abs(Fraction(got) - want) > 1e-12]

    (rec_a1, rec_b1), (rec_a2, rec_b2) = RECORDED_PAIRS
    recorded = {"alpha_1": (a1, rec_a1), "beta_1": (b1, rec_b1),
                "alpha_2": (a2, rec_a2), "gamma": (gamma, RECORDED_GAMMA)}
    off_record = [f"{name}: derived {got:.6f} vs recorded {want} (|diff|={abs(got - want):.2e})"
                  for name, (got, want) in recorded.items() if abs(got - want) > 1e-4]

    recorded_b2 = Fraction(repr(rec_b2))
    ceiling = _beta_rounding_ceiling(MATRIX_2)
    gap = recorded_b2 - exact_b2
    above_ceiling = recorded_b2 > ceiling
    gap_as_documented = abs(gap - DOCUMENTED_BETA_2_GAP) <= Fraction("1e-6")

    ok = (not off_formula and not off_record and above_ceiling and gap_as_documented
          and elapsed < 1e-3)
    report(1, ok, f"threshold oracle ({elapsed * 1e6:.0f} us); beta_2 recorded {rec_b2} "
                  f"vs derived {b2:.6f}: gap {float(gap):.2e}, "
                  f"{float(recorded_b2 - ceiling):.2e} above the rounding ceiling "
                  f"{float(ceiling):.6f}, injected"
           + "".join(f" — {msg}" for msg in off_formula + off_record))
    assert elapsed < 1e-3
    assert not off_formula, \
        "derivation departs from the documented formulas: " + "; ".join(off_formula)
    assert not off_record, \
        "recorded threshold values not reproduced from their matrices: " + "; ".join(off_record)
    assert above_ceiling, (
        f"recorded beta_2 {rec_b2} is within rounding reach of MATRIX_2 "
        f"(ceiling {float(ceiling):.6f}): derive it instead of injecting it")
    assert gap_as_documented, (
        f"recorded-minus-derived beta_2 gap {float(gap):.6e} is not the documented "
        f"{float(DOCUMENTED_BETA_2_GAP):.6e}")


def test_c02_risk_values():
    """Level-1/level-2 decision risks 0.5510 and 0.5962 within 1e-4."""
    from trisect.discretize import EquivalenceClass

    classes1 = [EquivalenceClass((0,), 0), EquivalenceClass((3, 4), 1)]
    regions1 = partition_three_way(classes1, *RECORDED_PAIRS[0])
    risk1 = decision_risk_three_way(regions1, MATRIX_1, epsilon=2.0)

    classes2 = [EquivalenceClass((3, 4), 1)]
    regions2 = partition_three_way(classes2, *RECORDED_PAIRS[1])
    risk2 = decision_risk_three_way(regions2, MATRIX_2, epsilon=2.0)

    ok = abs(risk1 - 0.5510) <= 1e-4 and abs(risk2 - 0.5962) <= 1e-4
    report(2, ok, f"risks {risk1:.4f}/{risk2:.4f} vs 0.5510/0.5962")
    assert abs(risk1 - 0.5510) <= 1e-4
    assert abs(risk2 - 0.5962) <= 1e-4


def test_c03_process_costs():
    """Unit vectors (1,2,3) with m = (3,2) give (3,3) then (7,4) exactly."""
    first = accrue_process_costs((0.0, 0.0), 3, 1.0, 1.0)
    second = accrue_process_costs(first, 2, 2.0, 2.0)
    ok = first == (3.0, 3.0) and second == (7.0, 4.0)
    report(3, ok, f"costs {first} then {second}")
    assert first == (3.0, 3.0)
    assert second == (7.0, 4.0)


def test_c04_worked_example_end_to_end(toy_dataset, toy_config, toy_schedule):
    """Replay of the documented two-level run with its optimized nodes, in < 1 s."""
    t0 = time.perf_counter()
    net, ledger = run(toy_dataset, TOY_SPLIT, toy_config, toy_schedule)
    elapsed = time.perf_counter() - t0

    from trisect.network import predict_batch

    one_node = network_of([NODE_1])
    labels, _ = predict_batch(one_node, TOY_FEATURES[:6])
    checks = {
        "level-1 predictions": labels.tolist() == [1, 1, 1, -1, 1, 1],
        "level-1 split": (ledger.levels[0].pn, ledger.levels[0].mn,
                          ledger.levels[0].nn) == (3, 3, 0),
        "level-1 regions": (ledger.levels[0].bl, ledger.levels[0].nl) == (2, 1),
        "level-2 regions": (ledger.levels[1].bl, ledger.levels[1].nl) == (0, 2),
        "final POS": ledger.pos == (1, 2, 5),
        "final NEG": ledger.neg == (0, 3, 4),
        "final BND empty": ledger.bnd == (),
        "two hidden nodes": net.n_nodes == 2,
        "runtime < 1 s": elapsed < 1.0,
    }
    W1, b1, W2, b2 = net.tensors
    checks["assembled W1"] = np.abs(W1 - np.array(
        [[0.8115, -1.0612, 0.3465, 0.1514], [-0.2338, -0.1741, 0.9333, 0.2477]])).max() <= 1e-4
    checks["assembled b1"] = np.abs(b1 - np.array([0.1139, 0.0818])).max() <= 1e-4
    checks["assembled W2"] = np.abs(W2 - np.array(
        [[0.2019, 0.1343], [0.0860, 0.0133]])).max() <= 1e-4
    checks["assembled b2"] = np.abs(b2 - np.array([0.0768, 0.0821])).max() <= 1e-4

    failures = [name for name, good in checks.items() if not good]
    report(4, not failures, f"worked example ({elapsed:.3f} s)"
           + ("" if not failures else f" — failed: {failures}"))
    assert not failures


def test_c05_empirical_node_formulas():
    """Static sizing: m=61 gives m2=6 and m3=11; m=1024 gives m2=10."""
    values = (empirical_nodes("m2", 61), empirical_nodes("m3", 61, 2),
              empirical_nodes("m2", 1024))
    ok = values == (6, 11, 10)
    report(5, ok, f"node counts {values} vs (6, 11, 10)")
    assert values == (6, 11, 10)


def test_c06_schedule_validity():
    """200 seeded ten-level schedules, full chain valid, in < 5 s."""
    t0 = time.perf_counter()
    for seed in range(200):
        sched = build_schedule(10, seed)
        alphas = [a for a, _ in sched.pairs]
        betas = [b for _, b in sched.pairs]
        assert len(sched.matrices) == 10
        assert 0.0 < betas[0]
        assert all(x <= y for x, y in zip(betas, betas[1:]))
        assert betas[-1] < sched.gamma < alphas[-1]
        assert all(x >= y for x, y in zip(alphas, alphas[1:]))
        assert alphas[0] < 1.0
        for mx in sched.matrices:
            assert 0.0 <= mx.lpp < mx.lbp < mx.lnp < 1.0
            assert 0.0 <= mx.lnn < mx.lbn < mx.lpn < 1.0
            assert (mx.lbn - mx.lnn) * (mx.lbp - mx.lpp) < \
                (mx.lpn - mx.lbn) * (mx.lnp - mx.lbp)
    elapsed = time.perf_counter() - t0
    ok = elapsed < 5.0
    report(6, ok, f"200 schedules, t=10, all chains valid ({elapsed:.2f} s)")
    assert elapsed < 5.0


def _synthetic_suite_specs():
    stream = RngStream(2026, "acceptance-suite")
    specs = []
    for i in range(50):
        rows = 30 + stream.randrange(171)  # 30..200
        features = 2 + stream.randrange(7)  # 2..8
        duplicates = (0, 3, 5)[stream.randrange(3)]
        specs.append((1000 + i, rows, features, duplicates))
    return specs


def _run_suite():
    results = []
    for seed, rows, features, duplicates in _synthetic_suite_specs():
        ds = synthetic_dataset(seed, rows, features, duplicate_levels=duplicates)
        split = split_811(ds, derive_stream(seed, "split"))
        cfg = TrainConfig(master_seed=seed)
        net, ledger = run(ds, split, cfg)
        results.append((seed, split, net, ledger))
    return results


@pytest.fixture(scope="module")
def synthetic_runs():
    t0 = time.perf_counter()
    results = _run_suite()
    return results, time.perf_counter() - t0


def test_c07_convergence(synthetic_runs):
    """50 random synthetic datasets terminate within 10 levels, BND empty."""
    results, elapsed = synthetic_runs
    failures = []
    for seed, split, net, ledger in results:
        if not (net.n_nodes <= 10 and len(ledger.levels) <= 10):
            failures.append(f"seed {seed}: {net.n_nodes} nodes")
        if ledger.bnd != ():
            failures.append(f"seed {seed}: BND not empty")
        if set(ledger.pos) | set(ledger.neg) != set(split.train) \
                or set(ledger.pos) & set(ledger.neg):
            failures.append(f"seed {seed}: regions do not partition the training set")
    ok = not failures and elapsed < 120.0
    report(7, ok, f"50 runs converged ({elapsed:.1f} s)"
           + ("" if not failures else f" — {failures[:3]}"))
    assert not failures
    assert elapsed < 120.0


def _multi_level_suite():
    """Short 90-row runs with duplicate rows at l2 = 0.01; about half accrue >= 2 levels."""
    ledgers = []
    for seed in range(12):
        ds = synthetic_dataset(seed, 90, 3, duplicate_levels=3)
        split = split_811(ds, derive_stream(seed, "split"))
        cfg = TrainConfig(t=6, master_seed=seed, hyper=TrainHyper(l2=0.01))
        ledgers.append((seed, run(ds, split, cfg)[1]))
    return ledgers


def _monotonicity(ledgers):
    """(failures, number of runs that accrued costs at two or more levels)."""
    failures = []
    multi = 0
    for seed, ledger in ledgers:
        accrued = [r for r in ledger.levels if r.m > 0]
        multi += len(accrued) > 1
        for prev, cur in zip(accrued, accrued[1:]):
            if not cur.cost_test > prev.cost_test:
                failures.append(f"seed {seed}: test cost not strictly increasing")
            if not cur.cost_delay >= prev.cost_delay:
                failures.append(f"seed {seed}: delay cost decreased")
    return failures, multi


def test_c08_cost_monotonicity(synthetic_runs):
    """Per level: test cost strictly increases, delay cost never decreases.

    The 50-run suite rarely grows past one level at the default l2, so a
    second suite that does must hold at least 4 multi-level runs.
    """
    results, _ = synthetic_runs
    failures, multi = _monotonicity([(seed, ledger) for seed, _, _, ledger in results])
    grown_failures, grown = _monotonicity(_multi_level_suite())
    ok = not failures and not grown_failures and grown >= 4
    report(8, ok, f"cost monotonicity on all runs ({multi} multi-level runs; "
                  f"{grown} of 12 in the multi-level suite)")
    assert not failures and not grown_failures
    assert grown >= 4


def test_multi_level_suite_clusters_once_at_level_1(monkeypatch):
    """k-means runs once per run of the C08 multi-level suite, on level 1's
    misclassified rows and stream; later levels reuse those categories."""
    first_misses, calls = [], []
    cluster, split = trainer.kmeans_cluster, trainer.classify_split

    def recorded_split(net, X, y, indices):
        pn, mn, nn = split(net, X, y, indices)
        if net.n_nodes == 1:
            first_misses.append(X[np.isin(indices, mn)])
        return pn, mn, nn

    def recorded_cluster(points, k, stream, *args, **kwargs):
        calls.append((len(first_misses) - 1, points.copy(), stream.stream_id))
        return cluster(points, k, stream, *args, **kwargs)

    monkeypatch.setattr(trainer, "classify_split", recorded_split)
    monkeypatch.setattr(trainer, "kmeans_cluster", recorded_cluster)
    ledgers = [ledger for _, ledger in _multi_level_suite()]
    clustered = [r for r, ledger in enumerate(ledgers) if ledger.levels[0].m > 0]
    assert [r for r, _, _ in calls] == clustered
    for r, points, stream_id in calls:
        assert stream_id == "kmeans-level-1"
        assert points.tobytes() == first_misses[r].tobytes()
    assert sum(len(ledger.levels) > 1 for ledger in ledgers) >= 4


def test_c09_gradient_check():
    """Analytic cost gradients vs central differences, 100 points per kind."""
    from test_network import _random_setup

    worst = 0.0
    for kind in ACTIVATION_KINDS:
        stream = RngStream(515, f"acc-grad-{kind}")
        for _ in range(100):
            X, y, W1, b1, W2, b2 = _random_setup(stream, kind)
            grads = cost_and_grads(X, y, W1, b1, W2, b2, kind, 0.4, 2.0, 0.1)
            tensors = [W1, b1, W2, b2]
            h = 1e-6
            for ti, tensor in enumerate(tensors):
                for idx in np.ndindex(tensor.shape):
                    orig = tensor[idx]
                    tensor[idx] = orig + h
                    up = cost(X, y, W1, b1, W2, b2, kind, 0.4, 2.0, 0.1)
                    tensor[idx] = orig - h
                    dn = cost(X, y, W1, b1, W2, b2, kind, 0.4, 2.0, 0.1)
                    tensor[idx] = orig
                    fd = (up - dn) / (2 * h)
                    rel = abs(grads[ti][idx] - fd) / max(1.0, abs(grads[ti][idx]), abs(fd))
                    worst = max(worst, rel)
                    assert rel <= 1e-5, (kind, ti, idx, rel)
    report(9, True, f"gradients match finite differences (worst rel err {worst:.2e})")


def test_c10_adam_oracle():
    """Hand-computed single step to 1e-12; zero gradient is a no-op."""
    hyper = Hyper(learning_rate=0.1, rho1=0.9, rho2=0.999, tau=1e-8)
    param = np.array([0.5])
    state = AdamState(param)
    adam_step(state, param, np.array([1.0]), hyper)
    expected = 0.5 - 0.1 / (1.0 + 1e-8)
    delta_ok = abs(param[0] - expected) <= 1e-12
    moments_ok = (abs(state.V[0] - 0.1) <= 1e-15
                  and abs(state.S[0] - 0.001) <= 1e-15)

    param = np.array([1.0, -2.0])
    adam_step(AdamState(param), param, np.zeros(2), hyper)
    zero_ok = np.array_equal(param, [1.0, -2.0])

    ok = delta_ok and moments_ok and zero_ok
    report(10, ok, "single-step oracle and zero-gradient no-op")
    assert delta_ok and moments_ok and zero_ok


def test_c11_metric_oracles():
    """Weighted F1 exact vs counting oracle (1000); AUC vs rank oracle (500)."""
    stream = RngStream(616, "acc-metrics")
    for _ in range(1000):
        n = 1 + stream.randrange(20)
        truth = [1 if stream.uniform() < 0.5 else -1 for _ in range(n)]
        predicted = [1 if stream.uniform() < 0.5 else -1 for _ in range(n)]
        assert weighted_f1(truth, predicted) == _oracle_weighted_f1(truth, predicted)

    worst = 0.0
    for _ in range(500):
        n = 2 + stream.randrange(14)
        truth = [1 if stream.uniform() < 0.5 else -1 for _ in range(n)]
        if all(t == 1 for t in truth):
            truth[0] = -1
        if all(t == -1 for t in truth):
            truth[0] = 1
        scores = [round(stream.uniform(), 1) for _ in range(n)]
        _, auc = roc_auc(truth, scores)
        worst = max(worst, abs(auc - _oracle_auc(truth, scores)))
        assert abs(auc - _oracle_auc(truth, scores)) <= 1e-9
    report(11, True, f"metric oracles exact (worst AUC diff {worst:.1e})")


def test_c12_discretizer_invariants():
    """Nearest-center outputs, monotone SSE, brute-force fixed-point SSE."""
    stream = RngStream(717, "acc-disc")
    for trial in range(20):
        n = 4 + stream.randrange(16)
        k = 2 + stream.randrange(3)
        pts = np.array([[stream.uniform() for _ in range(3)] for _ in range(n)])
        if np.unique(pts, axis=0).shape[0] < k:
            continue
        trace: list = []
        cl = kmeans_cluster(pts, k, RngStream(trial, "acc-k"), sse_trace=trace)
        d2 = ((pts[:, None, :] - cl.centers[None, :, :]) ** 2).sum(axis=2)
        assert np.array_equal(np.argmin(d2, axis=1), cl.assignments)
        assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))

    for trial in range(8):
        n = 5 + trial % 4
        pts = np.array([[stream.uniform() for _ in range(2)] for _ in range(n)])
        fixed = {round(_lloyd_fixed_point(pts, pts[list(pair)].copy()), 9)
                 for pair in itertools.combinations(range(n), 2)}
        cl = kmeans_cluster(pts, 2, RngStream(trial, "acc-bf"))
        got = within_sse(pts, cl.centers, cl.assignments)
        assert any(abs(got - s) <= 1e-9 for s in fixed)
    report(12, True, "nearest-center, monotone SSE, fixed-point SSE membership")


def test_c13_degenerate_schedule_equivalence():
    """One shared matrix: sequential and fixed-threshold ledgers identical."""
    saw_multi_level = False
    for seed in (0, 3, 7, 9):
        ds = synthetic_dataset(seed, 90, 3, duplicate_levels=3)
        split = split_811(ds, derive_stream(seed, "split"))
        matrix = sample_cost_matrix(RngStream(seed, "one-matrix"))
        hyper = TrainHyper(max_epochs=2, batch_size=32)
        degenerate = ThresholdSchedule.from_matrices([matrix] * 6)
        _, led_seq = run(ds, split, TrainConfig(t=6, master_seed=seed, hyper=hyper),
                         degenerate)
        _, led_fix = run_twd_fixed(ds, split, TrainConfig(t=6, master_seed=seed, hyper=hyper),
                                   ThresholdSchedule.from_matrices([matrix] * 2))
        assert json.dumps(led_seq.to_dict(), sort_keys=True) == \
            json.dumps(led_fix.to_dict(), sort_keys=True), f"seed {seed}"
        saw_multi_level |= len(led_seq.levels) > 1
    report(13, saw_multi_level, "degenerate-schedule ledgers byte-identical "
                                "(incl. a multi-level run)")
    assert saw_multi_level


def test_c14_desk_scale_crossval(tmp_path):
    """Seeded 10-fold crossval on a 2000-row survey-shaped table, < 5 min.

    Uses l2 = 0.01 in the run config: the literature-default 0.1 on a
    mean-reduced loss pins the weights near zero on data of this scale
    (documented in the repository notes). Exact benchmark percentages are
    explicitly not a target; the gate is compactness plus learning beyond
    the majority class.
    """
    data = write_health_survey_csv(tmp_path / "survey.csv", seed=0)
    cfg = tmp_path / "desk.cfg"
    cfg.write_text("l2 = 0.01\n")
    out = str(tmp_path / "cv")
    t0 = time.perf_counter()
    code = cli_main(["crossval", "--data", data, "--label-col", "risk",
                     "--positive", "high", "--seed", "0", "--folds", "10",
                     "--out", out, "--config", str(cfg)])
    elapsed = time.perf_counter() - t0
    assert code == 0
    summary = json.loads(open(os.path.join(out, "summary.json")).read())
    nodes_ok = all(r["nodes"] <= 10 for r in summary["folds"])
    learned = all(r["train_accuracy"] > r["majority_fraction"] for r in summary["folds"])
    ok = nodes_ok and learned and elapsed < 300.0
    mean_acc = summary["aggregate"]["train_accuracy"]["mean"]
    report(14, ok, f"10-fold crossval: mean train accuracy {mean_acc:.3f}, "
                   f"<= {max(r['nodes'] for r in summary['folds'])} nodes/fold "
                   f"({elapsed:.1f} s)")
    assert nodes_ok
    assert learned
    assert elapsed < 300.0


def test_c15_determinism(synthetic_runs):
    """Re-running the convergence suite reproduces byte-identical ledgers."""
    results, _ = synthetic_runs
    again = _run_suite()
    for (seed, _, _, first), (_, _, _, second) in zip(results, again):
        a = json.dumps(first.to_dict(), sort_keys=True).encode()
        b = json.dumps(second.to_dict(), sort_keys=True).encode()
        assert a == b, f"seed {seed} ledger differs between runs"
    report(15, True, "50 ledgers byte-identical across reruns")
