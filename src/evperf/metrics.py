"""Multiclass evaluation metrics and the stratified cross-validation harness."""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass
from typing import IO, Iterator, Sequence

import numpy as np

from .data import DataError, Dataset, apply_scaler, fit_scaler, stratified_kfold
from .gbdt import Ensemble, TrainConfig, predict_proba_batch, softmax, staged_margins, train

PROB_CLAMP = 1e-15


def confusion(y_true: Sequence[int], y_pred: Sequence[int], num_class: int | None = None) -> np.ndarray:
    """Count matrix with true classes as rows and predictions as columns."""
    t = np.asarray(y_true, dtype=np.int64)
    p = np.asarray(y_pred, dtype=np.int64)
    if t.shape != p.shape or t.ndim != 1:
        raise ValueError("true and predicted labels must be equal-length vectors")
    if t.size == 0:
        raise ValueError("cannot build a confusion matrix from no samples")
    k = num_class if num_class is not None else int(max(t.max(), p.max())) + 1
    cm = np.zeros((k, k), dtype=np.int64)
    np.add.at(cm, (t, p), 1)
    return cm


def accuracy(cm: np.ndarray) -> float:
    total = cm.sum()
    if total == 0:
        raise ValueError("empty confusion matrix")
    return float(np.trace(cm) / total)


def mcc(cm: np.ndarray) -> float:
    """Multiclass Matthews correlation coefficient (Gorodkin's form).

    (c*s - sum_k p_k t_k) / sqrt((s^2 - sum p_k^2)(s^2 - sum t_k^2)) with
    c the trace, s the total, p_k/t_k the column/row sums. A zero
    denominator (e.g. all predictions in one class) returns 0 by convention.
    """
    m = np.asarray(cm, dtype=float)
    s = m.sum()
    if s == 0:
        raise ValueError("empty confusion matrix")
    c = np.trace(m)
    p = m.sum(axis=0)
    t = m.sum(axis=1)
    denom_sq = (s * s - float(p @ p)) * (s * s - float(t @ t))
    if denom_sq <= 0:
        return 0.0
    return float((c * s - float(p @ t)) / np.sqrt(denom_sq))


def _midranks(a: np.ndarray) -> np.ndarray:
    """One-based ranks with ties sharing their average rank."""
    order = np.argsort(a, kind="mergesort")
    sorted_a = a[order]
    # tie groups: runs of equal sorted values, [start, end] inclusive
    change = np.flatnonzero(sorted_a[1:] != sorted_a[:-1]) + 1
    start = np.concatenate(([0], change))
    end = np.concatenate((change, [a.shape[0]])) - 1
    ranks = np.empty(a.shape[0])
    ranks[order] = np.repeat(0.5 * (start + end) + 1.0, end - start + 1)
    return ranks


def _binary_auc(scores: np.ndarray, positive: np.ndarray) -> float:
    n_pos = int(positive.sum())
    n_neg = positive.shape[0] - n_pos
    ranks = _midranks(scores)
    return float((ranks[positive].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def roc_auc_ovr_macro(probs: np.ndarray, y_true: Sequence[int]) -> float:
    """Macro-averaged one-vs-rest ROC-AUC via the rank (Mann-Whitney) form.

    Ties in scores get midranks, so identical scores for everything yield
    exactly 0.5. Raises if any class has no positives or no negatives.
    """
    p = np.asarray(probs, dtype=float)
    y = np.asarray(y_true, dtype=np.int64)
    if p.ndim != 2 or p.shape[0] != y.shape[0]:
        raise ValueError("probability matrix and labels do not align")
    aucs = []
    for k in range(p.shape[1]):
        positive = y == k
        n_pos = int(positive.sum())
        if n_pos == 0 or n_pos == y.shape[0]:
            raise ValueError(f"ROC-AUC undefined: class {k} has no positives or no negatives")
        aucs.append(_binary_auc(p[:, k], positive))
    return float(np.mean(aucs))


def mlogloss(probs: np.ndarray, y_true: Sequence[int]) -> float:
    """Mean negative log probability of the true class, clamped for finiteness."""
    p = np.asarray(probs, dtype=float)
    y = np.asarray(y_true, dtype=np.int64)
    if p.ndim != 2 or p.shape[0] != y.shape[0]:
        raise ValueError("probability matrix and labels do not align")
    picked = np.clip(p[np.arange(y.shape[0]), y], PROB_CLAMP, 1.0)
    return float(-np.mean(np.log(picked)))


@dataclass(frozen=True)
class Scores:
    """Accuracy, macro one-vs-rest ROC-AUC, MCC and log loss of one prediction set."""

    accuracy: float
    roc_auc_macro_ovr: float
    mcc: float
    mlogloss: float


@dataclass(frozen=True)
class FoldMetrics(Scores):
    fold: int
    n_samples: int


@dataclass(frozen=True)
class MetricsReport(Scores):
    """Pooled cross-validation metrics plus the per-fold breakdown."""

    confusion: np.ndarray
    folds: tuple[FoldMetrics, ...]


def evaluate(probs: np.ndarray, y_true: Sequence[int], num_class: int) -> tuple[Scores, np.ndarray]:
    """The scores of ``probs`` against ``y_true``, and their confusion matrix."""
    y = np.asarray(y_true, dtype=np.int64)
    cm = confusion(y, np.argmax(probs, axis=1), num_class)
    scores = Scores(accuracy(cm), roc_auc_ovr_macro(probs, y), mcc(cm), mlogloss(probs, y))
    return scores, cm


def _fold_models(dataset: Dataset, cfg: TrainConfig, k: int,
                 seed: int) -> Iterator[tuple[np.ndarray, Ensemble, np.ndarray]]:
    """Each stratified fold's validation mask, the model fitted without it, and its rows.

    Each fold fits its own scaler on the training split before transforming
    both splits, so no validation statistic leaks into training. Raises
    DataError when a class has fewer than k samples.
    """
    y = dataset.labels
    counts = np.bincount(y, minlength=cfg.num_class)
    too_small = np.flatnonzero(counts < k)
    if too_small.size:
        raise DataError(
            f"class {int(too_small[0])} has {int(counts[too_small[0]])} samples, fewer than k={k}"
        )
    folds = stratified_kfold(y, k, seed)
    for f in range(k):
        val = folds == f
        tr = ~val
        scaler = fit_scaler(dataset.features[tr])
        x_tr = apply_scaler(dataset.features[tr], scaler)
        x_val = apply_scaler(dataset.features[val], scaler)
        model = train(
            Dataset(x_tr, y[tr], dataset.feature_names, scaler=scaler), cfg
        )
        yield val, model, x_val


def cross_validate(dataset: Dataset, cfg: TrainConfig, k: int = 5, seed: int = 0) -> MetricsReport:
    """Stratified k-fold evaluation with leakage-free scaling.

    Validation predictions are pooled across folds into the headline report;
    per-fold metrics ride along. Deterministic given seed.
    """
    y = dataset.labels
    pooled = np.zeros((dataset.n_samples, cfg.num_class))
    fold_metrics = []
    for f, (val, model, x_val) in enumerate(_fold_models(dataset, cfg, k, seed)):
        probs = predict_proba_batch(model, x_val)
        pooled[val] = probs
        scores, _ = evaluate(probs, y[val], cfg.num_class)
        fold_metrics.append(FoldMetrics(**asdict(scores), fold=f, n_samples=int(val.sum())))
    overall, cm = evaluate(pooled, y, cfg.num_class)
    return MetricsReport(**asdict(overall), confusion=cm, folds=tuple(fold_metrics))


def round_curve(dataset: Dataset, cfg: TrainConfig, k: int = 5, seed: int = 0) -> np.ndarray:
    """Pooled validation mlogloss after each boosting round, shape (n_rounds,).

    The folds and models are cross_validate's, and each round's pooled
    probabilities come from ``staged_margins``, so entry r - 1 is the
    mlogloss cross_validate reports with n_rounds=r, and the last entry
    equals cross_validate(dataset, cfg, k, seed).mlogloss exactly.
    """
    pooled = np.zeros((dataset.n_samples, cfg.n_rounds, cfg.num_class))
    for val, model, x_val in _fold_models(dataset, cfg, k, seed):
        pooled[val] = softmax(staged_margins(model, x_val))
    return np.array([mlogloss(pooled[:, r], dataset.labels) for r in range(cfg.n_rounds)])


def report_to_dict(report: MetricsReport) -> dict:
    return {**asdict(report), "confusion": report.confusion.tolist()}


def report_to_json(report: MetricsReport) -> str:
    return json.dumps(report_to_dict(report), indent=1, sort_keys=True)


def confusion_to_csv(cm: np.ndarray, out: IO[str], class_names: Sequence[str] | None = None) -> None:
    """Write the confusion matrix with labeled rows/columns."""
    names = list(class_names) if class_names is not None else [str(i) for i in range(cm.shape[0])]
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["true\\pred"] + names)
    for i, row in enumerate(np.asarray(cm)):
        writer.writerow([names[i]] + [int(v) for v in row])
