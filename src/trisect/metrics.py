"""Accuracy, per-class precision/recall/F1, weighted F1, ROC and AUC."""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

CLASSES = (1, -1)


def _check_pair(truth, predicted):
    truth = np.asarray(truth)
    predicted = np.asarray(predicted)
    if truth.shape != predicted.shape or truth.ndim != 1:
        raise ValueError("truth and predicted must be equal-length vectors")
    if truth.size == 0:
        raise ValueError("empty input")
    return truth, predicted


def accuracy(truth, predicted) -> float:
    truth, predicted = _check_pair(truth, predicted)
    return float((truth == predicted).mean())


@dataclass(frozen=True, eq=False)
class RocCurve:
    """Threshold sweep from (0, 0) to (1, 1); tied scores move together.

    Each field is a read-only float64 array, one entry per point.
    """

    thresholds: np.ndarray
    fpr: np.ndarray
    tpr: np.ndarray

    def __post_init__(self):
        for f in fields(self):
            values = np.asarray(getattr(self, f.name), dtype=np.float64).view()
            values.setflags(write=False)
            object.__setattr__(self, f.name, values)
        if not (self.fpr[0] == 0.0 and self.tpr[0] == 0.0):
            raise ValueError("ROC curve must start at (0, 0)")
        if not (self.fpr[-1] == 1.0 and self.tpr[-1] == 1.0):
            raise ValueError("ROC curve must end at (1, 1)")
        for name, rates in (("FPR", self.fpr), ("TPR", self.tpr)):
            # neighbours compared, not subtracted: a difference could overflow
            if (rates[1:] < rates[:-1]).any():
                raise ValueError(f"{name} must be non-decreasing")


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
    ranked_pos, ranked_neg = (truth == 1)[order], (truth == -1)[order]
    del order
    # one threshold group per run of equal scores; ends marks each group's last row
    ends = np.empty(ranked.size, dtype=bool)
    np.not_equal(ranked[1:], ranked[:-1], out=ends[:-1])
    ends[-1] = True
    groups = int(ends.sum())
    thresholds = np.empty(groups + 1)
    thresholds[0] = np.inf
    thresholds[1:] = ranked[np.concatenate(([True], ends[:-1]))]  # each group's first score
    del ranked

    def rates(hits, total):
        """0, then the share of ``total`` among ``hits`` up to each group's end."""
        out = np.zeros(groups + 1)
        np.divide(np.cumsum(hits)[ends], total, out=out[1:])
        return out

    fpr, tpr = rates(ranked_neg, n_neg), rates(ranked_pos, n_pos)
    curve = RocCurve(thresholds, fpr, tpr)
    # every trapezoid is +0.0 or positive, so an in-order sum from the first
    # one equals the left-to-right sum from 0.0 bit for bit
    trapezoids = np.diff(fpr)
    trapezoids *= tpr[1:] + tpr[:-1]
    trapezoids /= 2.0
    return curve, float(np.cumsum(trapezoids)[-1])


def metrics_report(truth, predicted) -> dict:
    """Accuracy, support-weighted F1 and each class's precision, recall, F1 and support.

    A class is scored one-vs-rest from its tp, fp and fn counts; a quantity
    whose denominator is 0 is 0.
    """
    truth, predicted = _check_pair(truth, predicted)
    per_class = {}
    for c in CLASSES:
        is_c, said_c = truth == c, predicted == c
        tp = int((is_c & said_c).sum())
        fp = int(said_c.sum()) - tp
        fn = int(is_c.sum()) - tp
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = (2.0 * precision * recall / (precision + recall)) if precision + recall else 0.0
        per_class[str(c)] = {"precision": precision, "recall": recall, "f1": f1,
                             "support": tp + fn}
    return {
        "accuracy": accuracy(truth, predicted),
        "weighted_f1": sum(c["support"] * c["f1"] for c in per_class.values()) / truth.size,
        "per_class": per_class,
    }
