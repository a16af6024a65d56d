"""Classification metrics, ROC/AUC, cross-validation and scan reports."""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .dataset import LabeledDataset
from .features import FeatureVector, format_real, write_rows
from .model import SCAM_THRESHOLD, Model, TrainConfig, predict_proba, train


class UndefinedAUCError(ValueError):
    """ROC/AUC need both classes in the truth labels."""


class LeakageError(AssertionError):
    """A model was evaluated on rows it was standardized/trained on."""


class VariantMismatchError(ValueError):
    pass


@dataclass
class ConfusionCounts:
    tp: int = 0
    fp: int = 0
    fn: int = 0
    tn: int = 0

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn

    def __add__(self, other: "ConfusionCounts") -> "ConfusionCounts":
        return ConfusionCounts(self.tp + other.tp, self.fp + other.fp,
                               self.fn + other.fn, self.tn + other.tn)


def confusion(predicted: Sequence[int], truth: Sequence[int]) -> ConfusionCounts:
    """Counts of predicted (1 or True) against actual (1) scams."""
    pred = np.asarray(predicted) == 1
    actual = np.asarray(truth) == 1
    if pred.shape != actual.shape:
        raise ValueError("predicted and truth must be equal-length")
    tp = int(np.count_nonzero(pred & actual))
    fp = int(np.count_nonzero(pred)) - tp
    fn = int(np.count_nonzero(actual)) - tp
    return ConfusionCounts(tp, fp, fn, actual.size - tp - fp - fn)


def metrics(counts: ConfusionCounts) -> tuple[float, float, float, float]:
    """(accuracy, precision, recall, F1), with 0 conventions for empty denominators."""
    total = counts.total
    if total == 0:
        raise ValueError("metrics of zero evaluated rows are undefined")
    accuracy = (counts.tp + counts.tn) / total
    precision = counts.tp / (counts.tp + counts.fp) if counts.tp + counts.fp else 0.0
    recall = counts.tp / (counts.tp + counts.fn) if counts.tp + counts.fn else 0.0
    f1 = (2 * precision * recall / (precision + recall)
          if precision + recall else 0.0)
    return accuracy, precision, recall, f1


def roc_auc(
    scores: Sequence[float], truth: Sequence[int],
) -> tuple[list[tuple[float, float]], float]:
    """ROC points and trapezoidal AUC, grouping tied scores into one step.

    With ties grouped, the trapezoid rule equals the pairwise definition
    P(score+ > score-) + P(score+ = score-)/2 exactly.
    """
    y = np.asarray(truth, dtype=np.int64)
    s = np.asarray(scores, dtype=np.float64)
    if y.size != s.size or y.size == 0:
        raise ValueError("scores and truth must be equal-length and non-empty")
    n_pos = int(y.sum())
    n_neg = int(y.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise UndefinedAUCError("both classes are required for a ROC curve")

    order = np.argsort(-s, kind="stable")
    s_sorted = s[order]
    # the last row of each group of tied scores (Fawcett 2006, Algorithm 2);
    # neighbours are compared, not differenced, as inf - inf is nan
    ends = np.flatnonzero(np.append(s_sorted[1:] != s_sorted[:-1], True))
    tp = np.cumsum(y[order])[ends]
    fpr = np.append(0.0, (ends + 1 - tp) / n_neg)
    tpr = np.append(0.0, tp / n_pos)
    # summed left to right, as a running total would be
    auc = np.add.accumulate((fpr[1:] - fpr[:-1]) * (tpr[1:] + tpr[:-1]) / 2.0)
    return list(zip(fpr.tolist(), tpr.tolist())), float(auc[-1])


@dataclass
class EvalReport:
    label: str
    counts: ConfusionCounts
    accuracy: float
    precision: float
    recall: float
    f1: float
    auc: float
    roc: list[tuple[float, float]] = field(repr=False, default_factory=list)
    breakdown: list["EvalReport"] = field(default_factory=list)
    converged: bool = True  # every model behind the report converged


def _evaluate(label: str, scores: np.ndarray, truth: Sequence[int]) -> EvalReport:
    counts = confusion(scores >= SCAM_THRESHOLD, truth)
    accuracy, precision, recall, f1 = metrics(counts)
    roc, auc = roc_auc(scores, truth)
    return EvalReport(label=label, counts=counts, accuracy=accuracy,
                      precision=precision, recall=recall, f1=f1,
                      auc=auc, roc=roc)


def evaluate_model(model: Model, dataset: LabeledDataset, label: str = "eval",
                   check_leakage: bool = False) -> EvalReport:
    if check_leakage and model.train_row_ids is not None:
        overlap = model.train_row_ids.intersection(dataset.row_ids())
        if overlap:
            raise LeakageError(f"{len(overlap)} evaluation rows were used in training")
    report = _evaluate(label, predict_proba(model, dataset.vectors), dataset.labels)
    report.converged = model.converged
    return report


def stratified_folds(labels: Sequence[int], k: int, seed: int) -> list[int]:
    """Seeded stratified fold assignment; returns a fold id per row.

    Rows of each class are shuffled and dealt round-robin; the second class
    starts dealing where the first left off so fold sizes stay within one
    row of each other (and exact when k divides the row count).
    """
    if k < 2:
        raise ValueError(f"k must be at least 2 folds, not {k}")
    y = np.asarray(labels, dtype=np.int64)
    for cls in (0, 1):
        if int((y == cls).sum()) < k:
            raise ValueError(f"class {cls} has fewer than {k} rows")
    rng = np.random.default_rng(seed)
    assignment = np.empty(y.size, dtype=np.int64)
    offset = 0
    for cls in (1, 0):
        idx = np.flatnonzero(y == cls)
        rng.shuffle(idx)
        assignment[idx] = np.arange(offset, offset + idx.size) % k
        offset += idx.size
    return assignment.tolist()


def _subset(dataset: LabeledDataset, keep: Sequence[bool]) -> LabeledDataset:
    return LabeledDataset(rows=[row for row, flag in zip(dataset.rows, keep) if flag])


def kfold_cv(
    dataset: LabeledDataset,
    k: int = 5,
    seed: int = 0,
    config: TrainConfig | None = None,
    variant: str = "full",
) -> EvalReport:
    """Stratified k-fold cross-validation; metrics averaged over folds.

    For every fold the standardizer and coefficients are fitted on the other
    k-1 folds only; scoring a fold any model has seen raises LeakageError.
    """
    assignment = np.array(stratified_folds(dataset.labels, k, seed))
    folds: list[EvalReport] = []
    for fold_id in range(k):
        test_mask = assignment == fold_id
        train_set = _subset(dataset, ~test_mask)
        test_set = _subset(dataset, test_mask)
        model = train(train_set, config, variant)
        folds.append(evaluate_model(model, test_set, label=f"fold-{fold_id + 1}",
                                    check_leakage=True))

    pooled = sum((fold.counts for fold in folds), ConfusionCounts())
    mean = lambda attr: float(np.mean([getattr(f, attr) for f in folds]))
    return EvalReport(
        label=f"cv-{k}fold",
        counts=pooled,
        accuracy=mean("accuracy"),
        precision=mean("precision"),
        recall=mean("recall"),
        f1=mean("f1"),
        auc=mean("auc"),
        breakdown=folds,
        converged=all(fold.converged for fold in folds),
    )


def cross_window_eval(
    train_set: LabeledDataset,
    eval_sets: Sequence[LabeledDataset],
    config: TrainConfig | None = None,
    variant: str = "full",
    labels: Sequence[str] | None = None,
) -> tuple[Model, list[EvalReport]]:
    """Train once on one window, apply the frozen model to other windows.

    The standardizer is fitted on the training window only and reused
    unchanged everywhere, so later windows are scored exactly as production
    scoring would.
    """
    model = train(train_set, config, variant)
    reports: list[EvalReport] = []
    for i, eval_set in enumerate(eval_sets):
        name = labels[i] if labels else f"window-{i + 1}"
        reports.append(evaluate_model(model, eval_set, label=name))
    return model, reports


@dataclass
class ScanReport:
    total: int
    predicted_scam: int
    scam_share: float
    share_over_100_nodes: float
    share_lifetime_under_1000: float


def unlabeled_scan(
    model: Model,
    vectors: Sequence[FeatureVector],
    max_nodes: int = 500,
) -> ScanReport:
    """Score small (sub-threshold) graphs with a size-free model.

    Requires a reduced-variant model; size-dependent features would
    extrapolate far outside their training range on these graphs.
    """
    if model.variant not in ("reduced", "reduced-no-lifetime"):
        raise VariantMismatchError(
            f"scan requires a reduced-variant model, got {model.variant!r}")
    small = [fv for fv in vectors if fv.num_nodes <= max_nodes]
    if not small:
        return ScanReport(0, 0, 0.0, 0.0, 0.0)
    scores = predict_proba(model, small)
    flagged = scores >= SCAM_THRESHOLD

    def share(mask: np.ndarray) -> float:
        selected = int(mask.sum())
        return float(flagged[mask].sum() / selected) if selected else 0.0

    over_100 = np.array([fv.num_nodes > 100 for fv in small])
    young = np.array([fv.lifetime < 1000 for fv in small])
    return ScanReport(
        total=len(small),
        predicted_scam=int(flagged.sum()),
        scam_share=float(flagged.mean()),
        share_over_100_nodes=share(over_100),
        share_lifetime_under_1000=share(young),
    )


# ---------------------------------------------------------------------------
# report files

def write_report(report: EvalReport, path: str | os.PathLike) -> None:
    """Per-fold/per-window rows plus the averaged row, comma separated."""
    write_window_reports((*report.breakdown, report), path)


def write_window_reports(reports: Sequence[EvalReport], path: str | os.PathLike) -> None:
    """One comma-separated row per report, in the order given."""
    write_rows(path, "label,tp,fp,fn,tn,accuracy,precision,recall,f1,auc", (
        (row.label, row.counts.tp, row.counts.fp, row.counts.fn, row.counts.tn,
         *map(format_real, (row.accuracy, row.precision, row.recall, row.f1, row.auc)))
        for row in reports))


def write_roc(points: Sequence[tuple[float, float]], path: str | os.PathLike) -> None:
    """Two-column ROC point file for external plotting."""
    write_rows(path, "fpr,tpr", (map(format_real, point) for point in points))


def write_scan_report(report: ScanReport, path: str | os.PathLike) -> None:
    write_rows(path, "metric,value", (
        ("total_scanned", report.total),
        ("predicted_scam", report.predicted_scam),
        ("predicted_scam_share", format_real(report.scam_share)),
        ("share_over_100_nodes", format_real(report.share_over_100_nodes)),
        ("share_lifetime_under_1000", format_real(report.share_lifetime_under_1000))))
