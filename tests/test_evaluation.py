import os

import numpy as np
import pytest

from perfprint import dataset, evaluation
from perfprint.classifiers import train_knn, make_trainer
from perfprint.classifiers.base import Model
from perfprint.errors import ConfigError, DataError
from perfprint.evaluation import cross_validate, evaluate, learning_curve

from helpers import build_dataset, random_dataset
from oracles import knn_rank


class OracleModel(Model):
    """Fake model that reads the true label out of the feature vector's
    first component (features[0] = class index)."""

    kind = "oracle"

    def rank_classes_many(self, X):
        rankings = []
        for x in X:
            true = int(round(x[0]))
            rankings.append([true] + [i for i in range(self.n_classes) if i != true])
        return np.array(rankings)


class UniformRandomModel(Model):
    """Seeded random rankings, independent of the input."""

    kind = "random"

    def __init__(self, classes, seed):
        super().__init__(classes)
        self._rng = np.random.default_rng(seed)

    def rank_classes_many(self, X):
        return np.stack([self._rng.permutation(self.n_classes) for _ in X])


def _indexed_dataset(n_classes, per_class):
    rows, labels = [], []
    for c in range(n_classes):
        for _ in range(per_class):
            rows.append([float(c)])
            labels.append(f"class-{c:02d}")
    return build_dataset(rows, labels)


def test_perfect_model_scores_one():
    d = _indexed_dataset(4, 5)
    model = OracleModel(d.classes)
    report = evaluate(model, d)
    assert report.success_rate == 1.0
    assert np.array_equal(report.confusion, np.eye(4, dtype=int) * 5)
    assert report.topk_curve[0] == 1.0
    assert all(rate == 1.0 for rate in report.per_class.values())


def test_uniform_random_ranking_tracks_g_over_n():
    n_classes, per_class = 10, 40
    d = _indexed_dataset(n_classes, per_class)
    model = UniformRandomModel(d.classes, seed=21)
    report = evaluate(model, d)
    n_test = n_classes * per_class
    for g, rate in enumerate(report.topk_curve, start=1):
        p = g / n_classes
        sigma = (p * (1 - p) / n_test) ** 0.5
        assert abs(rate - p) <= 3 * sigma + 1e-9, f"g={g}: {rate} vs {p}"


def test_topk_reaches_one_at_full_depth():
    d = _indexed_dataset(5, 4)
    report = evaluate(UniformRandomModel(d.classes, seed=3), d, g_max=5)
    assert report.topk_curve[-1] == 1.0


def test_confusion_row_sums_are_class_counts():
    rng = np.random.default_rng(30)
    d = random_dataset(rng, 3, 7, 4)
    train, test = dataset.split(d, 5, 2, seed=1)
    report = evaluate(train_knn(train, k=1), test)
    assert report.confusion.sum(axis=1).tolist() == [2, 2, 2]


def test_report_identities_on_real_model():
    rng = np.random.default_rng(31)
    d = random_dataset(rng, 4, 10, 4)
    train, test = dataset.split(d, 7, 3, seed=2)
    report = evaluate(train_knn(train, k=3), test)
    total = report.confusion.sum()
    assert report.success_rate == np.trace(report.confusion) / total
    assert report.topk_curve[0] == report.success_rate
    assert all(b >= a for a, b in zip(report.topk_curve, report.topk_curve[1:]))
    weighted = sum(
        report.per_class[c] * report.confusion[i].sum()
        for i, c in enumerate(report.classes)
    )
    assert weighted / total == pytest.approx(report.success_rate, abs=1e-12)


def test_class_mismatch_rejected():
    d = _indexed_dataset(3, 2)
    model = OracleModel(["class-00", "class-01"])
    with pytest.raises(DataError, match="class-02"):
        evaluate(model, d)


def test_bad_gmax_rejected():
    d = _indexed_dataset(3, 2)
    model = OracleModel(d.classes)
    with pytest.raises(ConfigError):
        evaluate(model, d, g_max=0)
    with pytest.raises(ConfigError):
        evaluate(model, d, g_max=4)


def test_evaluate_is_deterministic():
    rng = np.random.default_rng(32)
    d = random_dataset(rng, 3, 6, 4)
    train, test = dataset.split(d, 4, 2, seed=3)
    model = train_knn(train, k=1)
    a = evaluate(model, test)
    b = evaluate(model, test)
    assert a.success_rate == b.success_rate
    assert np.array_equal(a.confusion, b.confusion)


def test_learning_curve_protocol():
    rng = np.random.default_rng(33)
    d = random_dataset(rng, 3, 55, 4, spread=5.0)
    curve = learning_curve(make_trainer("knn", k=1), d, [10, 20, 40], 10, seed=4)
    assert sorted(curve) == [10, 20, 40]
    assert all(0.0 <= v <= 1.0 for v in curve.values())


def test_learning_curve_monotone_trend_on_separable_data():
    rng = np.random.default_rng(34)
    d = random_dataset(rng, 4, 50, 6, spread=3.0)
    curve = learning_curve(make_trainer("knn", k=1), d, [5, 40], 10, seed=5)
    assert curve[40] >= curve[5] - 0.05


def test_learning_curve_trains_each_distinct_size_once():
    rng = np.random.default_rng(36)
    d = random_dataset(rng, 3, 12, 4)
    trained = []

    def trainer(train):
        trained.append(len(train))
        return train_knn(train)

    curve = learning_curve(trainer, d, [2, 2, 4], 3, seed=6)
    assert trained == [6, 12]
    assert curve == learning_curve(make_trainer("knn"), d, [2, 4], 3, seed=6)


def test_learning_curve_rejects_infeasible_sizes():
    rng = np.random.default_rng(35)
    d = random_dataset(rng, 3, 20, 4)
    with pytest.raises(DataError):
        learning_curve(make_trainer("knn", k=1), d, [40], 10, seed=6)


def test_cross_validate_perfect_oracle():
    d = _indexed_dataset(3, 8)
    result = cross_validate(lambda train: OracleModel(train.classes), d, 4, seed=7)
    assert result.mean_success_rate == 1.0
    assert result.fold_rates == [1.0, 1.0, 1.0, 1.0]


def test_cross_validate_mean_consistency():
    rng = np.random.default_rng(36)
    d = random_dataset(rng, 3, 12, 4)
    result = cross_validate(make_trainer("knn", k=1), d, 4, seed=8)
    assert all(0.0 <= r <= 1.0 for r in result.fold_rates)
    assert result.mean_success_rate == pytest.approx(np.mean(result.fold_rates))
    assert len(result.reports) == 4


def test_cross_validate_against_independent_fold_estimator():
    """10-fold stratified CV on a 30-class set vs a hand-rolled leave-2-out
    estimate built on the brute-force kNN oracle."""
    rng = np.random.default_rng(37)
    n_classes, per_class = 30, 20
    d = random_dataset(rng, n_classes, per_class, 6, spread=6.0)
    result = cross_validate(make_trainer("knn", k=1), d, 10, seed=9)

    by_class = d.by_class()
    classes = d.classes
    hits = total = 0
    for fold in range(10):
        held = []
        for label in classes:
            held.extend(by_class[label][2 * fold : 2 * fold + 2])
        held_set = set(held)
        train_rows, train_y = [], []
        for i, m in enumerate(d.measurements):
            if i not in held_set:
                train_rows.append(m.features.tolist())
                train_y.append(classes.index(m.label))
        for i in held:
            m = d.measurements[i]
            ranked = knn_rank(train_rows, train_y, n_classes, m.features.tolist(), 1)
            hits += classes[ranked[0]] == m.label
            total += 1
    independent = hits / total
    assert abs(result.mean_success_rate - independent) <= 0.05


def test_report_file_writers(tmp_path):
    d = _indexed_dataset(3, 4)
    report = evaluate(OracleModel(d.classes), d)
    json_path = tmp_path / "report.json"
    evaluation.write_report_json(report, str(json_path))
    assert b'"success_rate":1.0' in json_path.read_bytes()

    per_class = tmp_path / "per_class.csv"
    evaluation.write_per_class_csv(report, str(per_class))
    lines = per_class.read_text().strip().splitlines()
    assert lines[0] == "label,success_rate"
    assert len(lines) == 1 + 3

    topk = tmp_path / "topk.csv"
    evaluation.write_topk_csv(report, str(topk))
    lines = topk.read_text().strip().splitlines()
    assert lines[0] == "guesses,success_rate"
    assert len(lines) == 1 + 3


def test_csv_reports_keep_csv_line_ends(tmp_path):
    d = _indexed_dataset(2, 2)
    report = evaluate(OracleModel(d.classes), d)
    evaluation.write_per_class_csv(report, str(tmp_path / "per_class.csv"))
    evaluation.write_topk_csv(report, str(tmp_path / "topk.csv"))
    evaluation.write_curve_csv({20: 0.5, 10: 0.25}, str(tmp_path / "curve.csv"))
    assert (tmp_path / "per_class.csv").read_bytes() == b"label,success_rate\r\nclass-00,1\r\nclass-01,1\r\n"
    assert (tmp_path / "topk.csv").read_bytes() == b"guesses,success_rate\r\n1,1\r\n2,1\r\n"
    assert (tmp_path / "curve.csv").read_bytes() == b"train_size,success_rate\r\n10,0.25\r\n20,0.5\r\n"


def test_failed_csv_report_write_leaves_the_old_file(tmp_path, monkeypatch):
    d = _indexed_dataset(2, 2)
    report = evaluate(OracleModel(d.classes), d)
    writes = [
        lambda path: evaluation.write_per_class_csv(report, path),
        lambda path: evaluation.write_topk_csv(report, path),
        lambda path: evaluation.write_curve_csv({10: 0.5}, path),
    ]
    for i, write in enumerate(writes):
        path = tmp_path / f"{i}.csv"
        path.write_bytes(b"old\n")

        def disk_full(fd):
            raise OSError("no space left on device")

        monkeypatch.setattr(os, "fsync", disk_full)
        with pytest.raises(OSError, match="no space"):
            write(str(path))
        monkeypatch.undo()
        assert path.read_bytes() == b"old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["0.csv", "1.csv", "2.csv"]
