"""Accuracy, per-class precision/recall/F1, weighted F1, ROC and AUC."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

CLASSES = (1, -1)


@dataclass(frozen=True)
class ConfusionMatrix:
    """One-vs-rest counts per class; TP+FP+FN+TN equals n for each view."""

    counts: dict  # class -> {"tp", "fp", "fn", "tn"}
    total: int


def _check_pair(truth, predicted):
    truth = np.asarray(truth)
    predicted = np.asarray(predicted)
    if truth.shape != predicted.shape or truth.ndim != 1:
        raise ValueError("truth and predicted must be equal-length vectors")
    if truth.size == 0:
        raise ValueError("empty input")
    return truth, predicted


def confusion_counts(truth, predicted) -> ConfusionMatrix:
    truth, predicted = _check_pair(truth, predicted)
    counts = {}
    for c in CLASSES:
        tp = int(((truth == c) & (predicted == c)).sum())
        fp = int(((truth != c) & (predicted == c)).sum())
        fn = int(((truth == c) & (predicted != c)).sum())
        tn = truth.size - tp - fp - fn
        counts[c] = {"tp": tp, "fp": fp, "fn": fn, "tn": tn}
    return ConfusionMatrix(counts, truth.size)


def accuracy(truth, predicted) -> float:
    truth, predicted = _check_pair(truth, predicted)
    return float((truth == predicted).mean())


def _precision_recall_f1(c: dict) -> tuple[float, float, float]:
    # zero-denominator convention: the affected quantity is 0
    precision = c["tp"] / (c["tp"] + c["fp"]) if c["tp"] + c["fp"] else 0.0
    recall = c["tp"] / (c["tp"] + c["fn"]) if c["tp"] + c["fn"] else 0.0
    f1 = (2.0 * precision * recall / (precision + recall)) if precision + recall else 0.0
    return precision, recall, f1


def weighted_f1(truth, predicted) -> float:
    """Support-weighted mean of the two per-class F1 scores."""
    truth, predicted = _check_pair(truth, predicted)
    cm = confusion_counts(truth, predicted)
    total = 0.0
    for c in CLASSES:
        support = int((truth == c).sum())
        _, _, f1 = _precision_recall_f1(cm.counts[c])
        total += support * f1
    return total / truth.size


def per_class_report(truth, predicted) -> dict:
    truth, predicted = _check_pair(truth, predicted)
    cm = confusion_counts(truth, predicted)
    report = {}
    for c in CLASSES:
        precision, recall, f1 = _precision_recall_f1(cm.counts[c])
        report[str(c)] = {
            "precision": precision,
            "recall": recall,
            "f1": f1,
            "support": int((truth == c).sum()),
        }
    return report


@dataclass(frozen=True)
class RocCurve:
    """Threshold sweep from (0, 0) to (1, 1); tied scores move together."""

    thresholds: tuple[float, ...]
    fpr: tuple[float, ...]
    tpr: tuple[float, ...]

    def __post_init__(self):
        if not (self.fpr[0] == 0.0 and self.tpr[0] == 0.0):
            raise ValueError("ROC curve must start at (0, 0)")
        if not (self.fpr[-1] == 1.0 and self.tpr[-1] == 1.0):
            raise ValueError("ROC curve must end at (1, 1)")
        if any(b < a for a, b in zip(self.fpr, self.fpr[1:])):
            raise ValueError("FPR must be non-decreasing")
        if any(b < a for a, b in zip(self.tpr, self.tpr[1:])):
            raise ValueError("TPR must be non-decreasing")


def roc_auc(truth, scores) -> tuple[RocCurve, float]:
    """ROC curve over score thresholds plus trapezoidal AUC.

    Equal scores form one threshold group (a diagonal segment), which makes
    the trapezoidal area equal to the tie-aware rank statistic
    P(score+ > score-) + 0.5 P(score+ = score-).
    """
    truth = np.asarray(truth)
    scores = np.asarray(scores, dtype=np.float64)
    if truth.shape != scores.shape or truth.ndim != 1:
        raise ValueError("truth and scores must be equal-length vectors")
    if not np.isfinite(scores).all():
        raise ValueError("ROC needs finite scores")
    n_pos = int((truth == 1).sum())
    n_neg = int((truth == -1).sum())
    if n_pos == 0 or n_neg == 0:
        raise ValueError("ROC needs both classes present")

    order = np.argsort(-scores, kind="stable")
    ranked = scores[order]
    ranked_truth = truth[order]
    # one threshold group per run of equal scores: [first, last] index ranges
    last = np.append(np.flatnonzero(ranked[1:] != ranked[:-1]), ranked.size - 1)
    first = np.concatenate(([0], last[:-1] + 1))
    tp = np.cumsum(ranked_truth == 1)[last]
    fp = np.cumsum(ranked_truth == -1)[last]
    thresholds = [float("inf")] + ranked[first].tolist()
    fpr = [0.0] + (fp / n_neg).tolist()
    tpr = [0.0] + (tp / n_pos).tolist()
    curve = RocCurve(tuple(thresholds), tuple(fpr), tuple(tpr))
    auc = 0.0
    for k in range(1, len(fpr)):
        auc += (fpr[k] - fpr[k - 1]) * (tpr[k] + tpr[k - 1]) / 2.0
    return curve, float(auc)


def metrics_report(truth, predicted, scores=None) -> dict:
    """Aggregate report used by the JSON outputs."""
    report = {
        "accuracy": accuracy(truth, predicted),
        "weighted_f1": weighted_f1(truth, predicted),
        "per_class": per_class_report(truth, predicted),
    }
    if scores is not None:
        try:
            _, auc = roc_auc(truth, scores)
            report["auc"] = auc
        except ValueError:
            report["auc"] = None
    return report
