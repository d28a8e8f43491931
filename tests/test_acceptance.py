"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

The end-to-end pipeline (criteria 5, 7, 8, 9) runs the full protocol: 30
classes, 50 measurements per class, 3 events x 10,000 samples, downsample
factor 10, 40/10 split, top-30 guess curves. All seeds are fixed below.
The network's stage budgets are reduced from the 400-iteration library
default: full-batch passes over a 3000-unit hidden layer cost seconds each
on a single core, and the accuracy thresholds are cleared long before the
default budget would finish.
"""

import contextlib
import filecmp
import os
import time
from dataclasses import dataclass

import numpy as np
import pytest

from perfprint import collector, dataset, evaluation, synth
from perfprint.classifiers import load_model, make_trainer, save_model, train_knn
from perfprint.classifiers.net import Workspace, softmax, stack_grads, stack_loss, train_net
from perfprint.classifiers.svm import solve_pair
from perfprint.classifiers.tree import best_split
from perfprint.collector import AccessLevel
from perfprint.events import preset
from perfprint.mitigation import MitigationPolicy, leakage_report

from helpers import build_dataset
from oracles import (
    all_split_gains,
    dual_objective,
    finite_difference_grads,
    knn_rank,
    save_model_v1,
    split_gain,
    svm_grid_dual_max,
)


@contextlib.contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"CRITERION {number:>2} FAIL  {title}")
        raise
    print(f"CRITERION {number:>2} PASS  {title}")


# ---- documented acceptance seeds -------------------------------------------
PROFILE_SEED = 424242
N_CLASSES = 30
PER_CLASS = 50
N_EVENTS = 3
SAMPLES_PER_EVENT = 10_000
DOWNSAMPLE = 10
N_TRAIN, N_TEST = 40, 10

LOW_NOISE = {"sigma": 0.05, "shift": 0.01, "data_seed": 1000, "split_seed": 1001}
HIGH_NOISE = {"sigma": 0.5, "shift": 0.05, "data_seed": 2000, "split_seed": 2001}

NET_BUDGET = {
    "seed": 99,
    "max_iterations": 8,
    "softmax_iterations": 150,
    "finetune_iterations": 15,
}
TRAINERS = {
    "knn": lambda d: make_trainer("knn", k=1)(d),
    "tree": make_trainer("tree"),
    "svm": make_trainer("svm"),
    "net": make_trainer("net", **NET_BUDGET),
}

MITIGATION_SPLIT_SEED = 3000
MITIGATION_NOISE_SEED = 3001
# Frozen on the first implementation run at the seeds above: 1-NN falls
# from 1.0 to exactly 16/300 under sigma=5 noise injection.
FROZEN_MITIGATED_1NN_BEFORE = 1.0
FROZEN_MITIGATED_1NN_RATE = 16 / 300


@dataclass
class PipelineRun:
    clean: dataset.Dataset  # downsampled, pre-split
    test: dataset.Dataset  # normalized
    reports: dict
    model_files: dict
    report_files: dict
    elapsed_s: float


def run_pipeline(arm: dict, out_dir: str) -> PipelineRun:
    start = time.perf_counter()
    profiles = synth.gen_profiles(N_CLASSES, N_EVENTS, SAMPLES_PER_EVENT, PROFILE_SEED)
    noise = synth.NoiseModel(additive_sigma=arm["sigma"], max_shift=arm["shift"])
    clean = dataset.downsample(
        synth.gen_dataset(profiles, PER_CLASS, noise, seed=arm["data_seed"]),
        DOWNSAMPLE,
    )
    train, test = dataset.split(clean, N_TRAIN, N_TEST, seed=arm["split_seed"])
    train = dataset.normalize_fit(train)
    test = dataset.normalize_apply(train.normalization, test)

    reports, model_files, report_files = {}, {}, {}
    for kind, trainer in TRAINERS.items():
        model = trainer(train)
        report = evaluation.evaluate(model, test, g_max=N_CLASSES)
        reports[kind] = report
        model_files[kind] = os.path.join(out_dir, f"{kind}.model.json")
        report_files[kind] = os.path.join(out_dir, f"{kind}.report.json")
        save_model(model, model_files[kind])
        evaluation.write_report_json(report, report_files[kind])
    return PipelineRun(
        clean=clean,
        test=test,
        reports=reports,
        model_files=model_files,
        report_files=report_files,
        elapsed_s=time.perf_counter() - start,
    )


@pytest.fixture(scope="session")
def low_run(tmp_path_factory):
    return run_pipeline(LOW_NOISE, str(tmp_path_factory.mktemp("accept-low")))


@pytest.fixture(scope="session")
def high_run(tmp_path_factory):
    return run_pipeline(HIGH_NOISE, str(tmp_path_factory.mktemp("accept-high")))


def test_criterion_1_knn_oracle_equivalence():
    with criterion(1, "kNN matches the brute-force oracle on 50 seeded sets"):
        start = time.perf_counter()
        mismatches = 0
        for index in range(50):
            rng = np.random.default_rng(10_000 + index)
            n_classes = int(rng.integers(2, 6))
            per_class = int(rng.integers(2, 7))  # up to 30 points
            n_features = int(rng.integers(2, 11))
            rows, labels = [], []
            for c in range(n_classes):
                center = rng.normal(scale=3.0, size=n_features)
                for _ in range(per_class):
                    rows.append((center + rng.normal(size=n_features)).tolist())
                    labels.append(f"class-{c:02d}")
            d = build_dataset(rows, labels)
            y = d.label_indices().tolist()
            queries = [r for r in rows] + [
                rng.normal(scale=3.0, size=n_features).tolist() for _ in range(10)
            ]
            for k in (1, 3):
                if k > len(d):
                    continue
                model = train_knn(d, k=k)
                for q in queries:
                    expected = knn_rank(rows, y, n_classes, q, k)
                    got = model.predict_topk(np.array(q), n_classes)
                    if got != [model.classes[i] for i in expected]:
                        mismatches += 1
        elapsed = time.perf_counter() - start
        assert mismatches == 0
        assert elapsed < 5.0, f"took {elapsed:.1f}s"


def test_criterion_2_tree_root_split_oracle():
    with criterion(2, "tree root split attains the exhaustive-scan maximum gain"):
        start = time.perf_counter()
        for index in range(20):
            rng = np.random.default_rng(20_000 + index)
            per_class = int(rng.integers(3, 14))  # up to ~40 points, 3 classes
            n_features = int(rng.integers(2, 7))
            rows, labels = [], []
            for c in range(3):
                center = rng.normal(scale=2.0, size=n_features)
                for _ in range(per_class):
                    rows.append((center + rng.normal(size=n_features)).tolist())
                    labels.append(f"class-{c}")
            d = build_dataset(rows, labels)
            found = best_split(d.feature_matrix(), d.label_indices(), 3)
            assert found is not None
            _, feature, threshold = found
            chosen = split_gain(rows, labels, feature, threshold)
            best_scanned = max(g for g, _, _ in all_split_gains(rows, labels))
            assert chosen >= best_scanned - 1e-12
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_criterion_3_svm_correctness():
    with criterion(3, "SVM: separable accuracy 1.0; dual within 1e-3 of grid oracle"):
        start = time.perf_counter()
        for index in range(20):
            rng = np.random.default_rng(30_000 + index)
            gap = rng.uniform(3.0, 6.0)
            a = rng.normal(size=(10, 2)) + gap
            b = rng.normal(size=(10, 2)) - gap
            X = np.vstack([a, b])
            y = np.array([1.0] * 10 + [-1.0] * 10)
            w, bias, _, _ = solve_pair(X, y, 1.0)
            assert (np.where(X @ w + bias >= 0, 1.0, -1.0) == y).all()
        for index in range(5):
            rng = np.random.default_rng(31_000 + index)
            X = rng.normal(size=(4, 2))
            y = np.array([1.0, 1.0, -1.0, -1.0])
            _, _, alpha, _ = solve_pair(X, y, 1.0)
            assert abs(dual_objective(alpha, X, y) - svm_grid_dual_max(X, y, 1.0)) <= 1e-3
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_criterion_4_network_numerics():
    with criterion(4, "net: gradcheck < 1e-4; softmax sums; fine-tune loss drops"):
        rng = np.random.default_rng(40_000)
        X = rng.normal(size=(7, 4))
        y = rng.integers(0, 2, size=7)
        onehot = np.zeros((7, 2))
        onehot[np.arange(7), y] = 1.0
        params = [
            rng.normal(scale=0.5, size=shape)
            for shape in [(4, 3), (3,), (3, 2), (2,), (2, 2), (2,)]
        ]
        analytic = stack_grads(
            params, X, onehot, 0.001, stack_loss(params, X, onehot, 0.001, Workspace())[1],
            Workspace(),
        )
        numeric = finite_difference_grads(
            lambda p: stack_loss(p, X, onehot, 0.001, Workspace())[0], params, h=1e-5
        )
        worst = 0.0
        for a, n in zip(analytic, numeric):
            denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-8)
            worst = max(worst, float((np.abs(a - n) / denom).max()))
        assert worst < 1e-4, f"max relative error {worst}"

        sums = softmax(rng.normal(scale=25.0, size=(50, 9))).sum(axis=1)
        assert np.abs(sums - 1.0).max() <= 1e-6

        profiles = synth.gen_profiles(5, 2, 200, seed=41_000)
        d = synth.gen_dataset(
            profiles, 8, synth.NoiseModel(additive_sigma=0.1), seed=41_001
        )
        d = dataset.normalize_fit(d)
        model = train_net(d, seed=5, max_iterations=50)
        finetune = model.loss_history["finetune"]
        assert len(finetune) == 51
        assert finetune[-1] < finetune[0]


def test_criterion_5_end_to_end_pipeline(low_run, high_run):
    with criterion(5, "pipeline: >=0.90 at low noise, >=10x chance at high noise"):
        for kind, report in low_run.reports.items():
            assert report.success_rate >= 0.90, f"{kind} low-noise {report.success_rate}"
        chance = 1.0 / N_CLASSES
        for kind, report in high_run.reports.items():
            assert report.success_rate >= 10 * chance, f"{kind} high-noise {report.success_rate}"
        for run in (low_run, high_run):
            for kind, report in run.reports.items():
                curve = report.topk_curve
                assert all(b >= a for a, b in zip(curve, curve[1:])), kind
                assert curve[-1] == 1.0, kind
        total = low_run.elapsed_s + high_run.elapsed_s
        assert total < 15 * 60, f"pipeline took {total:.0f}s"


def test_criterion_6_shape_fidelity():
    with criterion(6, "scenario presets produce 150,000 / 30,000 / 150,000 features"):
        assert preset("ChromeArm").config.feature_length == 150_000
        assert preset("ChromeIncognitoIntel").config.feature_length == 30_000
        assert preset("TorIntel").config.feature_length == 150_000


def test_criterion_7_mitigation(low_run):
    with criterion(7, "noise injection drops 1-NN >= 20 points; denial hits chance"):
        policy = MitigationPolicy.noise_injection(5.0, seed=MITIGATION_NOISE_SEED)
        result = leakage_report(
            make_trainer("knn", k=1),
            low_run.clean,
            policy,
            N_TRAIN,
            N_TEST,
            split_seed=MITIGATION_SPLIT_SEED,
        )
        assert result.accuracy_delta >= 0.20
        assert result.before.success_rate == FROZEN_MITIGATED_1NN_BEFORE
        assert result.after.success_rate == FROZEN_MITIGATED_1NN_RATE

        denied = leakage_report(
            make_trainer("knn", k=1),
            low_run.clean,
            MitigationPolicy.access_denied(),
            N_TRAIN,
            N_TEST,
            split_seed=MITIGATION_SPLIT_SEED,
        )
        assert denied.after.success_rate <= 1.0 / N_CLASSES + 0.05


def test_criterion_8_report_invariants(low_run, high_run):
    with criterion(8, "report identities hold exactly on every pipeline report"):
        for run in (low_run, high_run):
            for report in run.reports.values():
                confusion = report.confusion
                total = int(confusion.sum())
                correct = int(np.trace(confusion))
                assert report.success_rate == correct / total
                assert report.topk_curve[0] == report.success_rate
                curve = report.topk_curve
                assert all(b >= a for a, b in zip(curve, curve[1:]))
                row_totals = confusion.sum(axis=1)
                for i, c in enumerate(report.classes):
                    assert report.per_class[c] == confusion[i, i] / row_totals[i]
                weighted = sum(
                    report.per_class[c] * row_totals[i]
                    for i, c in enumerate(report.classes)
                )
                assert abs(weighted / total - report.success_rate) <= 1e-12


def test_criterion_9_pipeline_determinism(low_run, high_run, tmp_path_factory):
    with criterion(9, "identical seeds reproduce byte-identical model and report files"):
        rerun_low = run_pipeline(LOW_NOISE, str(tmp_path_factory.mktemp("rerun-low")))
        rerun_high = run_pipeline(HIGH_NOISE, str(tmp_path_factory.mktemp("rerun-high")))
        for first, second in ((low_run, rerun_low), (high_run, rerun_high)):
            for kind in TRAINERS:
                assert filecmp.cmp(
                    first.model_files[kind], second.model_files[kind], shallow=False
                ), f"{kind} model files differ"
                assert filecmp.cmp(
                    first.report_files[kind], second.report_files[kind], shallow=False
                ), f"{kind} report files differ"


def test_version_1_and_2_model_files_rank_alike(low_run, high_run, tmp_path):
    """Each model of both arms, written by the reference copy of the
    version-1 writer, ranks the test rows as its version-2 file does."""
    for run in (low_run, high_run):
        X = run.test.feature_matrix()
        for kind, path in run.model_files.items():
            v2 = load_model(path)
            save_model_v1(v2, str(tmp_path / "v1.json"))
            v1 = load_model(str(tmp_path / "v1.json"))
            assert v1.rank_classes_many(X).tobytes() == v2.rank_classes_many(X).tobytes(), kind


def test_criterion_10_collector_integration():
    gated = collector.interface_available()
    title = "collector integration" + ("" if gated else " (counting parts skipped)")
    with criterion(10, title):
        # Access-level mapping against the live paranoid file, with the
        # thresholds restated independently here.
        try:
            with open(collector.PARANOID_PATH) as fh:
                value = int(fh.read().strip())
        except OSError:
            pytest.skip("no perf interface on this system")
        if value < 0:
            expected = AccessLevel.FULL_INCLUDING_KERNEL
        elif value == 0:
            expected = AccessLevel.NO_KERNEL_DETAIL
        elif value == 1:
            expected = AccessLevel.NO_CORE_WIDE
        elif value == 2:
            expected = AccessLevel.PROCESS_USER_ONLY
        else:
            expected = AccessLevel.DISABLED
        assert collector.detect_access_level() is expected

        if not gated:
            return  # no usable PMU: the counting half of this criterion skips

        import subprocess
        import sys

        def spawn(code):
            return subprocess.Popen([sys.executable, "-c", code])

        busy = spawn("x = 0\nwhile True:\n    x += 1\n")
        sleeper = spawn("import time\ntime.sleep(30)\n")
        try:
            time.sleep(0.1)
            from perfprint.events import CollectorConfig, EventSpec, ProfilingScope

            def grab(pid):
                config = CollectorConfig(
                    events=(EventSpec("instructions"),),
                    scope=ProfilingScope.process(pid),
                    duration_s=0.2,
                )
                return collector.collect(config).counts["instructions"]

            busy_deltas = grab(busy.pid)
            sleep_deltas = grab(sleeper.pid)
        finally:
            for child in (busy, sleeper):
                child.kill()
                child.wait()
        assert (busy_deltas > 0).mean() > 0.99
        assert sleep_deltas.mean() < 0.01 * busy_deltas.mean()
