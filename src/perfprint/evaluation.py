"""Success metrics: overall and per-class rates, top-k guess curves,
confusion matrices, learning curves, and cross-validated scores.

Every report is checked against its arithmetic identities at construction
time: the success rate equals the confusion trace over the total and the
first top-k point, the curve is non-decreasing, and the per-class rates
weighted by test counts average back to the success rate.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

import numpy as np

from .dataset import Dataset, _write_atomic, kfold, shuffle_by_class, write_json
from .errors import ConfigError, DataError


@dataclass(frozen=True)
class EvalReport:
    success_rate: float
    per_class: dict[str, float]
    topk_curve: list[float]  # index g-1 holds the g-guess success rate
    confusion: np.ndarray  # rows = true class, cols = predicted
    classes: list[str]
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        total = int(self.confusion.sum())
        correct = int(np.trace(self.confusion))
        if total == 0:
            raise DataError("empty confusion matrix")
        if abs(self.success_rate - correct / total) > 1e-12:
            raise DataError("success rate does not match confusion trace")
        if abs(self.topk_curve[0] - self.success_rate) > 1e-12:
            raise DataError("top-1 rate does not match success rate")
        if any(b < a - 1e-12 for a, b in zip(self.topk_curve, self.topk_curve[1:])):
            raise DataError("top-k curve is not non-decreasing")
        weighted = sum(
            self.per_class[c] * self.confusion[i].sum()
            for i, c in enumerate(self.classes)
        )
        if abs(weighted / total - self.success_rate) > 1e-12:
            raise DataError("per-class rates do not average to the success rate")


def evaluate(model, test: Dataset, g_max: int | None = None) -> EvalReport:
    """Score a model on a held-out set via its top-k rankings."""
    if not len(test):
        raise DataError("test set is empty")
    missing = sorted(set(test.classes) - set(model.classes))
    if missing:
        raise DataError(f"model does not know test classes: {missing}")
    model.check_width(test.feature_length)
    n_classes = model.n_classes
    if g_max is None:
        g_max = n_classes
    if not 1 <= g_max <= n_classes:
        raise ConfigError(f"g_max must be in [1, {n_classes}], got {g_max}")

    class_index = {c: i for i, c in enumerate(model.classes)}
    rankings = model.predict_topk_many(test.feature_matrix(), g_max)
    true_labels = test.labels()

    confusion = np.zeros((n_classes, n_classes), dtype=np.int64)
    hits_at = np.zeros(g_max, dtype=np.int64)
    for truth, ranked in zip(true_labels, rankings):
        confusion[class_index[truth], class_index[ranked[0]]] += 1
        if truth in ranked:
            hits_at[ranked.index(truth)] += 1

    n_test = len(test)
    topk_curve = (np.cumsum(hits_at) / n_test).tolist()
    row_totals = confusion.sum(axis=1)
    per_class = {
        c: (confusion[i, i] / row_totals[i] if row_totals[i] else 0.0)
        for i, c in enumerate(model.classes)
    }
    return EvalReport(
        success_rate=float(np.trace(confusion) / n_test),
        per_class=per_class,
        topk_curve=topk_curve,
        confusion=confusion,
        classes=list(model.classes),
        meta={"model_kind": model.kind, "g_max": g_max, "n_test": n_test},
    )


def learning_curve(
    trainer,
    d: Dataset,
    train_sizes: list[int],
    n_test_per_class: int,
    seed: int,
) -> dict[int, float]:
    """Success rate per training-set size against one fixed held-out set.

    Training sets are nested (size 10 is a subset of size 20, and so on),
    mirroring the increasing-measurement protocol.
    """
    if not train_sizes or min(train_sizes) < 1:
        raise ConfigError("train sizes must be positive")
    needed = n_test_per_class + max(train_sizes)
    order = shuffle_by_class(d, seed, needed, f"needs {needed} for this curve")
    test = d.subset(sorted(i for rows in order for i in rows[:n_test_per_class]))

    curve: dict[int, float] = {}
    for size in sorted(train_sizes):
        train = sorted(i for rows in order for i in rows[n_test_per_class:n_test_per_class + size])
        model = trainer(d.subset(train))
        curve[size] = evaluate(model, test).success_rate
    return curve


@dataclass(frozen=True)
class CrossValResult:
    mean_success_rate: float
    fold_rates: list[float]
    reports: list[EvalReport]


def cross_validate(trainer, d: Dataset, k: int, seed: int) -> CrossValResult:
    """Stratified k-fold cross-validation; the mean of per-fold rates."""
    folds = kfold(d, k, seed)
    reports = [evaluate(trainer(train), validation) for train, validation in folds]
    rates = [r.success_rate for r in reports]
    return CrossValResult(
        mean_success_rate=float(np.mean(rates)), fold_rates=rates, reports=reports
    )


def report_to_dict(report: EvalReport) -> dict:
    return {
        "format": "perfprint-report",
        "version": 1,
        "success_rate": report.success_rate,
        "per_class": {c: report.per_class[c] for c in report.classes},
        "topk_curve": report.topk_curve,
        "confusion": report.confusion.tolist(),
        "classes": report.classes,
        "meta": report.meta,
    }


def write_report_json(report: EvalReport, path: str):
    write_json(path, report_to_dict(report))


def _write_csv(path: str, rows):
    """Write CSV rows atomically, with csv's own `\r\n` line ends."""
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    _write_atomic(path, [buf.getvalue()])


def write_per_class_csv(report: EvalReport, path: str):
    rows = [[c, format(report.per_class[c], ".9g")] for c in report.classes]
    _write_csv(path, [["label", "success_rate"], *rows])


def write_topk_csv(report: EvalReport, path: str):
    rows = [[g, format(rate, ".9g")] for g, rate in enumerate(report.topk_curve, start=1)]
    _write_csv(path, [["guesses", "success_rate"], *rows])


def write_curve_csv(curve: dict[int, float], path: str):
    rows = [[size, format(curve[size], ".9g")] for size in sorted(curve)]
    _write_csv(path, [["train_size", "success_rate"], *rows])
