"""Success metrics: overall and per-class rates, top-k guess curves,
confusion matrices, learning curves, and cross-validated scores.

A report holds what was measured, each test row's ranked guesses and its
true class, and derives its rates from them: the confusion matrix counts
first guesses, the g-guess success rate counts the rows whose class is
among their first g guesses, and the success rate is the curve's first
point.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

import numpy as np

from .dataset import Dataset, _write_atomic, kfold, shuffle_by_class, write_json
from .errors import ConfigError, DataError


@dataclass(frozen=True, eq=False)
class EvalReport:
    rankings: np.ndarray  # each test row's first g_max class indices, best first
    truth: np.ndarray  # each test row's class index
    classes: list[str]
    meta: dict = field(default_factory=dict)

    @property
    def confusion(self) -> np.ndarray:  # rows = true class, cols = first guess
        n = len(self.classes)
        return np.bincount(self.truth * n + self.rankings[:, 0], minlength=n * n).reshape(n, n)

    @property
    def topk_curve(self) -> list[float]:  # index g-1 holds the g-guess success rate
        # A ranking holds each class once, so column g sums the hits at guess g+1.
        hits_at = (self.rankings == self.truth[:, None]).sum(axis=0)
        return (np.cumsum(hits_at) / len(self.truth)).tolist()

    @property
    def success_rate(self) -> float:
        return self.topk_curve[0]

    @property
    def per_class(self) -> dict[str, float]:
        confusion = self.confusion
        totals = confusion.sum(axis=1)
        return {c: confusion[i, i] / totals[i] if totals[i] else 0.0
                for i, c in enumerate(self.classes)}


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
    return EvalReport(
        rankings=model.rank_classes_many(test.feature_matrix())[:, :g_max],
        truth=test.label_indices(model.classes),
        classes=list(model.classes),
        meta={"model_kind": model.kind, "g_max": g_max, "n_test": len(test)},
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
    if n_test_per_class < 1:
        raise ConfigError(f"test size must be >= 1 per class, got {n_test_per_class}")
    needed = n_test_per_class + max(train_sizes)
    order = shuffle_by_class(d, seed, needed, f"needs {needed} for this curve")
    test = d.subset(sorted(i for rows in order for i in rows[:n_test_per_class]))

    curve: dict[int, float] = {}
    for size in sorted(set(train_sizes)):
        train = sorted(i for rows in order for i in rows[n_test_per_class:n_test_per_class + size])
        model = trainer(d.subset(train))
        curve[size] = evaluate(model, test).success_rate
    return curve


@dataclass(frozen=True, eq=False)
class CrossValResult:
    reports: list[EvalReport]

    @property
    def fold_rates(self) -> list[float]:
        return [r.success_rate for r in self.reports]

    @property
    def mean_success_rate(self) -> float:
        return float(np.mean(self.fold_rates))


def cross_validate(trainer, d: Dataset, k: int, seed: int) -> CrossValResult:
    """Stratified k-fold cross-validation; the mean of per-fold rates."""
    return CrossValResult([evaluate(trainer(train), test) for train, test in kfold(d, k, seed)])


def report_to_dict(report: EvalReport) -> dict:
    return {
        "format": "perfprint-report",
        "version": 1,
        "success_rate": report.success_rate,
        "per_class": report.per_class,
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
    rows = [[c, format(rate, ".9g")] for c, rate in report.per_class.items()]
    _write_csv(path, [["label", "success_rate"], *rows])


def write_topk_csv(report: EvalReport, path: str):
    rows = [[g, format(rate, ".9g")] for g, rate in enumerate(report.topk_curve, start=1)]
    _write_csv(path, [["guesses", "success_rate"], *rows])


def write_curve_csv(curve: dict[int, float], path: str):
    rows = [[size, format(curve[size], ".9g")] for size in sorted(curve)]
    _write_csv(path, [["train_size", "success_rate"], *rows])
