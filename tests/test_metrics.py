import numpy as np
import pytest

from trisect import RngStream, accuracy, metrics_report, roc_auc
from trisect.cli import _scored_report
from trisect.metrics import RocCurve


def _oracle_per_class(truth, predicted):
    """Brute-force recount, independent of the library implementation."""
    report = {}
    for c in (1, -1):
        tp = sum(1 for t, p in zip(truth, predicted) if t == c and p == c)
        fp = sum(1 for t, p in zip(truth, predicted) if t != c and p == c)
        fn = sum(1 for t, p in zip(truth, predicted) if t == c and p != c)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        support = sum(1 for t in truth if t == c)
        report[str(c)] = {"precision": precision, "recall": recall, "f1": f1, "support": support}
    return report


def _oracle_weighted_f1(truth, predicted):
    total = 0.0
    for c in _oracle_per_class(truth, predicted).values():
        total += c["support"] * c["f1"]
    return total / len(truth)


def _oracle_auc(truth, scores):
    """O(n^2) pairwise rank statistic with half-credit ties."""
    pos = [s for t, s in zip(truth, scores) if t == 1]
    neg = [s for t, s in zip(truth, scores) if t == -1]
    total = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                total += 1.0
            elif sp == sn:
                total += 0.5
    return total / (len(pos) * len(neg))


class TestWeightedF1:
    def test_perfect_classifier(self):
        truth = np.array([1, -1, 1, -1])
        assert metrics_report(truth, truth)["weighted_f1"] == 1.0

    def test_hand_computed_case(self):
        truth = np.array([1, 1, -1, -1])
        predicted = np.array([1, -1, -1, -1])
        assert metrics_report(truth, predicted)["weighted_f1"] == pytest.approx(11 / 15)

    def test_matches_counting_oracle_exactly(self):
        stream = RngStream(55, "wf1")
        for _ in range(1000):
            n = 1 + stream.randrange(20)
            truth = [1 if stream.uniform() < 0.5 else -1 for _ in range(n)]
            predicted = [1 if stream.uniform() < 0.5 else -1 for _ in range(n)]
            assert metrics_report(truth, predicted)["weighted_f1"] == \
                _oracle_weighted_f1(truth, predicted)

    def test_relabeling_invariance(self):
        stream = RngStream(56, "inv")
        for _ in range(100):
            n = 2 + stream.randrange(15)
            truth = np.array([1 if stream.uniform() < 0.5 else -1 for _ in range(n)])
            predicted = np.array([1 if stream.uniform() < 0.5 else -1 for _ in range(n)])
            assert metrics_report(truth, predicted)["weighted_f1"] == pytest.approx(
                metrics_report(-truth, -predicted)["weighted_f1"])
            assert 0.0 <= metrics_report(truth, predicted)["weighted_f1"] <= 1.0

    def test_input_validation(self):
        with pytest.raises(ValueError):
            metrics_report([1, -1], [1])
        with pytest.raises(ValueError):
            metrics_report([], [])


class TestAccuracy:
    def test_all_correct(self):
        assert accuracy([1, -1, 1], [1, -1, 1]) == 1.0

    def test_all_wrong(self):
        assert accuracy([1, -1], [-1, 1]) == 0.0

    def test_half(self):
        truth = [1] * 5 + [-1] * 5
        predicted = [1] * 5 + [1] * 5
        assert accuracy(truth, predicted) == 0.5


class TestConfusion:
    def test_report_matches_counting_oracle_exactly(self):
        stream = RngStream(57, "cm")
        for _ in range(50):
            n = 1 + stream.randrange(30)
            truth = [1 if stream.uniform() < 0.5 else -1 for _ in range(n)]
            predicted = [1 if stream.uniform() < 0.5 else -1 for _ in range(n)]
            report = metrics_report(truth, predicted)["per_class"]
            assert sum(report[str(c)]["support"] for c in (1, -1)) == n
            assert report == _oracle_per_class(truth, predicted)

    def test_report_fields(self):
        report = metrics_report([1, 1, -1], [1, -1, -1])["per_class"]
        assert set(report) == {"1", "-1"}
        assert report["1"]["support"] == 2
        assert set(report["1"]) == {"precision", "recall", "f1", "support"}


class TestRocAuc:
    def test_perfect_separation(self):
        truth = np.array([1, 1, -1, -1])
        _, auc = roc_auc(truth, np.array([0.9, 0.8, 0.2, 0.1]))
        assert auc == 1.0

    def test_all_scores_identical(self):
        truth = np.array([1, -1, 1, -1])
        curve, auc = roc_auc(truth, np.full(4, 0.5))
        assert auc == pytest.approx(0.5)
        assert len(curve.thresholds) == 2  # (0,0) then the single tie group

    def test_matches_pairwise_oracle(self):
        stream = RngStream(58, "auc")
        for _ in range(500):
            n = 2 + stream.randrange(14)
            truth = [1 if stream.uniform() < 0.5 else -1 for _ in range(n)]
            if all(t == 1 for t in truth):
                truth[0] = -1
            if all(t == -1 for t in truth):
                truth[0] = 1
            # quantized scores force plenty of ties
            scores = [round(stream.uniform(), 1) for s in range(n)]
            _, auc = roc_auc(truth, scores)
            assert auc == pytest.approx(_oracle_auc(truth, scores), abs=1e-9)

    def test_monotone_transform_invariance(self):
        stream = RngStream(59, "mono")
        truth = [1 if stream.uniform() < 0.5 else -1 for _ in range(30)]
        truth[0], truth[1] = 1, -1
        scores = np.array([stream.uniform() for _ in range(30)])
        _, auc = roc_auc(truth, scores)
        _, auc_exp = roc_auc(truth, np.exp(3 * scores))
        assert auc == pytest.approx(auc_exp, abs=1e-12)

    def test_curve_shape(self):
        stream = RngStream(60, "curve")
        truth = [1 if stream.uniform() < 0.4 else -1 for _ in range(40)]
        truth[0], truth[1] = 1, -1
        scores = [round(stream.uniform(), 1) for _ in range(40)]
        curve, _ = roc_auc(truth, scores)
        assert (curve.fpr[0], curve.tpr[0]) == (0.0, 0.0)
        assert (curve.fpr[-1], curve.tpr[-1]) == (1.0, 1.0)
        assert all(b >= a for a, b in zip(curve.fpr, curve.fpr[1:]))
        assert all(b >= a for a, b in zip(curve.tpr, curve.tpr[1:]))

    def test_matches_tie_group_loop(self):
        def loop_roc(truth, scores):
            # one threshold per run of equal scores, taken from its first member
            order = np.argsort(-scores, kind="stable")
            thresholds, fpr, tpr = [float("inf")], [0.0], [0.0]
            n_pos, n_neg = int((truth == 1).sum()), int((truth == -1).sum())
            tp = fp = i = 0
            while i < truth.size:
                j = i
                while j < truth.size and scores[order[j]] == scores[order[i]]:
                    j += 1
                tp += int((truth[order[i:j]] == 1).sum())
                fp += int((truth[order[i:j]] == -1).sum())
                thresholds.append(float(scores[order[i]]))
                fpr.append(fp / n_neg)
                tpr.append(tp / n_pos)
                i = j
            return thresholds, fpr, tpr

        stream = RngStream(61, "roc-loop")
        for case in range(300):
            n = 2 + stream.randrange(40)
            truth = np.array([1 if stream.uniform() < 0.5 else -1 for _ in range(n)])
            truth[0], truth[1] = 1, -1
            if case % 3 == 0:  # ties, including 0.0 against -0.0
                scores = np.array([(0.0, -0.0, 0.5, 1.0)[stream.randrange(4)] for _ in range(n)])
            else:
                scores = np.array([round(stream.uniform(), case % 3) for _ in range(n)])
            curve, _ = roc_auc(truth, scores)
            got = tuple(tuple(a.tolist()) for a in (curve.thresholds, curve.fpr, curve.tpr))
            assert repr(got) == repr(tuple(map(tuple, loop_roc(truth, scores))))

    def test_auc_equals_the_trapezoid_loop_exactly(self):
        stream = RngStream(19, "auc-loop")
        for case in range(500):
            n = 2 + stream.randrange(60)
            truth = np.array([1 if stream.uniform() < 0.5 else -1 for _ in range(n)])
            truth[0], truth[1] = 1, -1
            if case % 3 == 0:  # ties, including 0.0 against -0.0
                scores = np.array([(0.0, -0.0, 0.25, 1.0)[stream.randrange(4)] for _ in range(n)])
            elif case % 3 == 1:  # every group a single member
                scores = np.array([stream.uniform() for _ in range(n)])
            else:
                scores = np.array([round(stream.uniform(), 1) for _ in range(n)])
            curve, auc = roc_auc(truth, scores)
            expected = 0.0
            for k in range(1, len(curve.fpr)):
                expected += ((curve.fpr[k] - curve.fpr[k - 1])
                             * (curve.tpr[k] + curve.tpr[k - 1]) / 2.0)
            assert auc == expected, case

    @pytest.mark.parametrize("fpr, tpr", [((0.0, 0.5, 0.25, 1.0), (0.0, 0.5, 0.75, 1.0)),
                                          ((0.0, 0.5, 0.75, 1.0), (0.0, 0.6, 0.5, 1.0))])
    def test_curve_rates_must_not_decrease(self, fpr, tpr):
        name = "FPR" if fpr[2] < fpr[1] else "TPR"
        with pytest.raises(ValueError, match=f"{name} must be non-decreasing"):
            RocCurve((float("inf"), 0.9, 0.5, 0.1), fpr, tpr)
        RocCurve((float("inf"), 0.9, 0.5, 0.1), tuple(sorted(fpr)), tuple(sorted(tpr)))

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            roc_auc([1, 1], [0.5, 0.6])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_scores_rejected(self, bad):
        # a non-finite score has no place among the thresholds
        with pytest.raises(ValueError, match="finite"):
            roc_auc([1, -1, 1], [0.2, bad, 0.7])
        assert _scored_report([1, -1, 1], [1, -1, 1], [0.2, bad, 0.7])[0]["auc"] is None


class TestReport:
    def test_fields(self):
        report, _ = _scored_report([1, -1, 1], [1, -1, -1], [0.8, 0.3, 0.4])
        assert set(report) == {"accuracy", "weighted_f1", "per_class", "auc"}

    def test_auc_none_for_single_class(self):
        report, _ = _scored_report([1, 1], [1, 1], [0.8, 0.9])
        assert report["auc"] is None
