"""Frame-wise and event-wise evaluation of detector outputs.

All metrics operate on the covered samples only: boundary samples and
skipped windows never enter a count. Covered/uncovered bookkeeping comes
from the DetectorOutput itself.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .detectors import DetectorOutput
from .gaze import CLASS_NAMES, Event, LabelClass, N_CLASSES


class EvalError(ValueError):
    """Raised when an evaluation has no usable data (empty coverage,
    missing classes, degenerate score sets)."""


@dataclass(frozen=True)
class ConfusionMatrix:
    """Row = ground truth, column = prediction."""

    counts: np.ndarray  # (3, 3) int64

    def __post_init__(self):
        c = np.asarray(self.counts, dtype=np.int64)
        if c.shape != (N_CLASSES, N_CLASSES) or (c < 0).any():
            raise EvalError("confusion counts must be a non-negative 3x3 matrix")
        object.__setattr__(self, "counts", c)

    @property
    def row_normalized(self) -> np.ndarray:
        """Rows scaled to sum to one; all-zero rows stay zero."""
        totals = self.counts.sum(axis=1, keepdims=True)
        return np.divide(
            self.counts, totals, out=np.zeros((N_CLASSES, N_CLASSES)), where=totals > 0
        )


@dataclass(frozen=True)
class PrfReport:
    """One-vs-rest accuracy/precision/recall/F1 per class plus macro means."""

    accuracy: np.ndarray
    precision: np.ndarray
    recall: np.ndarray
    f1: np.ndarray

    @property
    def macro_accuracy(self) -> float:
        return float(self.accuracy.mean())

    @property
    def macro_precision(self) -> float:
        return float(self.precision.mean())

    @property
    def macro_recall(self) -> float:
        return float(self.recall.mean())

    @property
    def macro_f1(self) -> float:
        return float(self.f1.mean())


@dataclass(frozen=True)
class RocCurve:
    """ROC points ordered from the strictest to the loosest threshold."""

    fpr: np.ndarray
    tpr: np.ndarray
    auc: float


@dataclass(frozen=True)
class OneVsAllResult:
    curves: tuple[RocCurve, RocCurve, RocCurve]

    @property
    def aucs(self) -> np.ndarray:
        return np.array([c.auc for c in self.curves])

    @property
    def mean_auc(self) -> float:
        return float(self.aucs.mean())


@dataclass(frozen=True)
class EventMajorityTable:
    """Fraction of ground-truth events won by each predicted class.

    An event is won by class j only if strictly more than half of ALL its
    frames (covered or not) carry prediction j; otherwise it counts toward
    the row's no-majority fraction. Rows with events sum to one.
    """

    fractions: np.ndarray  # (3, 3)
    no_majority: np.ndarray  # (3,)
    event_counts: np.ndarray  # (3,) events per ground-truth class


@dataclass(frozen=True)
class ConfidenceBin:
    threshold: float
    accuracy: float  # NaN when the bin is empty
    support: int


def _aligned(preds: DetectorOutput, truth: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    truth = np.asarray(truth)
    if truth.shape != (preds.n_samples,):
        raise EvalError(
            f"truth length {truth.shape} does not match sequence length {preds.n_samples}"
        )
    return preds.labels.astype(np.int64), truth[preds.sample_idx].astype(np.int64)


def confusion_counts(truth: np.ndarray, pred: np.ndarray) -> np.ndarray:
    """Count (truth, prediction) pairs: row = ground truth, column = prediction."""
    codes = np.asarray(truth, dtype=np.int64) * N_CLASSES + np.asarray(pred, dtype=np.int64)
    return np.bincount(codes, minlength=N_CLASSES**2).reshape(N_CLASSES, N_CLASSES)


def confusion(preds: DetectorOutput, truth: np.ndarray) -> ConfusionMatrix:
    """Count covered samples by (truth, prediction)."""
    pred_lab, true_lab = _aligned(preds, truth)
    if pred_lab.size == 0:
        raise EvalError("no covered samples to evaluate")
    return ConfusionMatrix(confusion_counts(true_lab, pred_lab))


def prf_from_counts(counts: np.ndarray) -> PrfReport:
    """One-vs-rest report of (..., 3, 3) confusion counts, row = ground truth.

    Leading axes carry through: each field holds (..., 3) values, one per
    class along the last axis. A measure with a zero denominator is 0.
    """
    counts = np.asarray(counts, dtype=np.float64)
    total = counts.sum(axis=(-2, -1))[..., None]
    tp = np.diagonal(counts, axis1=-2, axis2=-1)
    fp = counts.sum(axis=-2) - tp
    fn = counts.sum(axis=-1) - tp
    tn = total - tp - fp - fn

    def ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
        return np.divide(num, den, out=np.zeros(tp.shape), where=den > 0)

    precision = ratio(tp, tp + fp)
    recall = ratio(tp, tp + fn)
    pr = precision + recall
    return PrfReport(ratio(tp + tn, total), precision, recall, ratio(2 * precision * recall, pr))


def prf_from_confusion(cm: ConfusionMatrix) -> PrfReport:
    """Derive the one-vs-rest report from a confusion matrix."""
    if cm.counts.sum() == 0:
        raise EvalError("empty confusion matrix")
    return prf_from_counts(cm.counts)


def prf(preds: DetectorOutput, truth: np.ndarray) -> PrfReport:
    return prf_from_confusion(confusion(preds, truth))


def frame_accuracy(preds: DetectorOutput, truth: np.ndarray) -> float:
    """Plain multi-class accuracy over covered samples."""
    pred_lab, true_lab = _aligned(preds, truth)
    if pred_lab.size == 0:
        raise EvalError("no covered samples to evaluate")
    return float((pred_lab == true_lab).mean())


def roc_auc(scores: np.ndarray, truth_binary: np.ndarray) -> RocCurve:
    """ROC curve over all distinct score thresholds, AUC by trapezoid rule.

    Tied scores move between the positive and negative side together, so the
    AUC equals the Mann-Whitney statistic with ties counted half. The curve
    reads the counts at the end of each group of tied scores only, so the
    order inside a tie does not matter, and the sort need not be stable.
    Scores must be finite: infinities and NaN would not group.
    """
    s = np.asarray(scores, dtype=np.float64)
    t = np.asarray(truth_binary, dtype=bool)
    if s.shape != t.shape or s.ndim != 1:
        raise EvalError("scores and truth must be equal-length vectors")
    if not np.isfinite(s).all():
        raise EvalError("ROC scores must be finite")
    n_pos = int(t.sum())
    n_neg = t.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise EvalError("ROC needs at least one positive and one negative sample")

    order = np.argsort(-s)
    s_sorted = s[order]
    t_sorted = t[order]
    distinct = np.concatenate([np.flatnonzero(np.diff(s_sorted)), [s.size - 1]])
    tp = np.cumsum(t_sorted)[distinct]
    fp = (distinct + 1) - tp
    tpr = np.concatenate([[0.0], tp / n_pos])
    fpr = np.concatenate([[0.0], fp / n_neg])
    auc = float(np.trapezoid(tpr, fpr))
    return RocCurve(fpr=fpr, tpr=tpr, auc=auc)


def one_vs_all_auc(preds: DetectorOutput, truth: np.ndarray) -> OneVsAllResult:
    """Per-class ROC treating each class in turn as the positive one."""
    truth = np.asarray(truth)
    if truth.shape != (preds.n_samples,):
        raise EvalError("truth length does not match sequence length")
    covered_truth = truth[preds.sample_idx]
    curves = []
    for cls in LabelClass:
        positives = covered_truth == int(cls)
        if not positives.any() or positives.all():
            raise EvalError(f"class {CLASS_NAMES[cls]} missing from covered truth")
        curves.append(roc_auc(preds.scores[:, int(cls)], positives))
    return OneVsAllResult(curves=tuple(curves))


def event_majority(preds: DetectorOutput, truth_events: list[Event]) -> EventMajorityTable:
    """Strict-majority voting of predictions inside each ground-truth event."""
    if not truth_events:
        raise EvalError("no ground-truth events given")
    full = preds.full_labels(fill=-1)
    wins = np.zeros((N_CLASSES, N_CLASSES), dtype=np.int64)
    none = np.zeros(N_CLASSES, dtype=np.int64)
    totals = np.zeros(N_CLASSES, dtype=np.int64)
    for ev in truth_events:
        seg = full[ev.start_idx : ev.end_idx + 1]
        counts = np.bincount(seg[seg >= 0], minlength=N_CLASSES)
        totals[ev.label] += 1
        winner = int(counts.argmax())
        if counts[winner] * 2 > ev.n_samples:
            wins[ev.label, winner] += 1
        else:
            none[ev.label] += 1
    denom = np.maximum(totals, 1)[:, None]
    return EventMajorityTable(
        fractions=wins / denom,
        no_majority=none / np.maximum(totals, 1),
        event_counts=totals,
    )


def confidence_accuracy(
    preds: DetectorOutput, truth: np.ndarray, thresholds: np.ndarray
) -> dict[LabelClass, list[ConfidenceBin]]:
    """Accuracy of predictions for a class, filtered by minimum probability.

    For each class c and threshold x, considers covered samples whose
    predicted label is c and whose score for c is at least x. Empty bins are
    reported with support 0 and NaN accuracy.
    """
    th = np.asarray(thresholds, dtype=np.float64)
    if th.size and (th.min() < 0 or th.max() > 1):
        raise EvalError("thresholds must lie in [0, 1]")
    pred_lab, true_lab = _aligned(preds, truth)
    out: dict[LabelClass, list[ConfidenceBin]] = {}
    for cls in LabelClass:
        sel = pred_lab == int(cls)
        cls_scores = preds.scores[sel, int(cls)]
        cls_correct = true_lab[sel] == int(cls)
        bins = []
        for x in th:
            mask = cls_scores >= x
            support = int(mask.sum())
            acc = float(cls_correct[mask].mean()) if support else float("nan")
            bins.append(ConfidenceBin(float(x), acc, support))
        out[cls] = bins
    return out
