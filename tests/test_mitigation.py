import numpy as np
import pytest

from perfprint.classifiers import make_trainer, train_knn
from perfprint.errors import ConfigError, DataError
from perfprint.evaluation import evaluate
from perfprint.mitigation import MitigationPolicy, PolicyKind, apply, leakage_report
from perfprint.synth import NoiseModel, gen_dataset, gen_profiles

from helpers import build_dataset


@pytest.fixture(scope="module")
def balanced():
    profiles = gen_profiles(6, 2, 400, seed=20)
    return gen_dataset(
        profiles, 12, NoiseModel(additive_sigma=0.05, max_shift=0.01), seed=21
    )


def test_zero_sigma_noise_is_identity(balanced):
    policy = MitigationPolicy.noise_injection(0.0, seed=1)
    assert apply(policy, balanced) is balanced


def test_noise_injection_is_seeded_and_label_preserving(balanced):
    policy = MitigationPolicy.noise_injection(0.5, seed=2)
    a = apply(policy, balanced)
    b = apply(policy, balanced)
    assert np.array_equal(a.feature_matrix(), b.feature_matrix())
    assert a.labels() == balanced.labels()
    assert a.feature_length == balanced.feature_length
    assert a.feature_matrix().min() >= 0.0
    c = apply(MitigationPolicy.noise_injection(0.5, seed=3), balanced)
    assert not np.array_equal(a.feature_matrix(), c.feature_matrix())


def test_noise_scale_follows_reference_rms():
    base = build_dataset([[100.0, 1.0]] * 200, [f"m{i}" for i in range(200)])
    policy = MitigationPolicy.noise_injection(1.0, seed=4)
    noisy = apply(policy, base, rms_reference=base)
    x = noisy.feature_matrix()
    # column RMS 100 vs 1: injected deviations scale accordingly
    dev0 = np.sqrt(np.mean((x[:, 0] - 100.0) ** 2))
    dev1 = np.sqrt(np.mean(np.clip(x[:, 1] - 1.0, None, None) ** 2))
    assert 80.0 < dev0 < 120.0
    assert dev1 < 2.0


def test_noise_that_overflows_is_judged_by_its_values():
    # RMS 1 per column: sigma 1e308 scales to a finite 1e308 only where the
    # reference is 1, and a column of RMS 2 overflows the scale itself.
    ones = build_dataset([[1.0, 1.0]] * 50, [f"m{i % 2}" for i in range(50)])
    with pytest.raises(DataError, match=r"noise scale \(sigma 1e\+308 times each feature's RMS\) is not finite"):
        apply(MitigationPolicy.noise_injection(1e308, seed=0), ones,
              rms_reference=build_dataset([[1.0, 2.0]], ["m0"]))
    # A finite scale: draws beyond the float limit become infinite
    # features, which the trainers refuse, and no warning is raised.
    x = apply(MitigationPolicy.noise_injection(1.5e308, seed=0), ones).feature_matrix()
    assert np.isposinf(x).any() and np.isfinite(x).any() and not np.isnan(x).any()


def test_sampling_degradation_is_downsampling(balanced):
    policy = MitigationPolicy.sampling_degradation(5)
    out = apply(policy, balanced)
    assert out.feature_length == balanced.feature_length // 5
    assert out.labels() == balanced.labels()


def test_access_denied_empties_features(balanced):
    out = apply(MitigationPolicy.access_denied(), balanced)
    assert out.feature_length == 0
    assert out.labels() == balanced.labels()


def test_access_denied_drives_all_classifiers_to_chance(balanced):
    trainers = {
        "knn": make_trainer("knn", k=1),
        "tree": make_trainer("tree"),
        "svm": make_trainer("svm"),
        "net": make_trainer("net", seed=1, max_iterations=5, hidden1=8, hidden2=4),
    }
    n = balanced.n_classes
    for kind, trainer in trainers.items():
        report = leakage_report(
            trainer, balanced, MitigationPolicy.access_denied(), 8, 4, split_seed=5
        )
        assert report.after.success_rate <= 1.0 / n + 0.05, kind


def test_identity_policy_has_zero_delta(balanced):
    policy = MitigationPolicy.noise_injection(0.0, seed=0)
    report = leakage_report(make_trainer("knn", k=1), balanced, policy, 8, 4, split_seed=6)
    assert report.accuracy_delta == 0.0
    assert report.before.success_rate == report.after.success_rate


# Computed once with this module's fixed seeds and frozen; the synthetic
# baseline is fully separable, and sigma=5 noise floors 1-NN.
FROZEN_BEFORE = 1.0
FROZEN_AFTER_MAX = 0.5


def test_strong_noise_costs_twenty_points_for_1nn(balanced):
    policy = MitigationPolicy.noise_injection(5.0, seed=7)
    report = leakage_report(make_trainer("knn", k=1), balanced, policy, 8, 4, split_seed=7)
    assert report.before.success_rate == FROZEN_BEFORE
    assert report.after.success_rate <= FROZEN_AFTER_MAX
    assert report.accuracy_delta >= 0.20
    assert report.seeds == {
        "split_seed": 7,
        "policy_seed_train": 7,
        "policy_seed_test": 8,
    }


def test_policy_invariants():
    with pytest.raises(ConfigError):
        MitigationPolicy.noise_injection(-1.0)
    with pytest.raises(ConfigError):
        MitigationPolicy.sampling_degradation(1)
    assert MitigationPolicy.access_denied().kind is PolicyKind.ACCESS_DENIED
