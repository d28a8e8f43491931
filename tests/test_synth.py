import hashlib

import numpy as np
import pytest

from perfprint import dataset
from perfprint.classifiers import train_knn
from perfprint.errors import ConfigError
from perfprint.evaluation import evaluate
from perfprint.synth import ClassProfile, NoiseModel, gen_dataset, gen_profiles


def test_profiles_have_requested_shape():
    profiles = gen_profiles(30, 3, 1000, seed=1)
    assert len(profiles) == 30
    for p in profiles:
        assert len(p.waveforms) == 3
        assert all(len(w) == 1000 for w in p.waveforms)
        assert len(p.concatenated) == 3000


def test_profiles_are_deterministic_per_seed_and_class():
    a = gen_profiles(5, 2, 300, seed=9)
    b = gen_profiles(5, 2, 300, seed=9)
    for pa, pb in zip(a, b):
        assert np.array_equal(pa.concatenated, pb.concatenated)
    # a profile depends only on (seed, class index), not on how many
    # classes were requested
    wider = gen_profiles(8, 2, 300, seed=9)
    assert np.array_equal(a[2].concatenated, wider[2].concatenated)


def test_profiles_are_pairwise_distinct():
    profiles = gen_profiles(10, 2, 400, seed=2)
    smallest = np.inf
    for i in range(len(profiles)):
        for j in range(i + 1, len(profiles)):
            gap = np.linalg.norm(profiles[i].concatenated - profiles[j].concatenated)
            smallest = min(smallest, gap)
    assert smallest > 0


def test_profiles_are_nonnegative():
    for p in gen_profiles(6, 3, 500, seed=3):
        assert p.concatenated.min() >= 0


def test_zero_noise_reproduces_profiles_exactly():
    profiles = gen_profiles(4, 2, 200, seed=4)
    d = gen_dataset(profiles, 3, NoiseModel(), seed=5)
    assert len(d) == 12
    for i, profile in enumerate(profiles):
        for k in range(3):
            m = d.measurements[i * 3 + k]
            assert m.label == profile.label
            assert np.array_equal(m.features, profile.concatenated)


def test_generation_is_bit_reproducible():
    profiles = gen_profiles(3, 2, 150, seed=6)
    noise = NoiseModel(additive_sigma=0.3, max_shift=0.05, amplitude_jitter=0.1,
                       background_floor=2.0)
    a = gen_dataset(profiles, 4, noise, seed=7)
    b = gen_dataset(profiles, 4, noise, seed=7)
    assert np.array_equal(a.feature_matrix(), b.feature_matrix())


def test_additive_noise_matches_requested_scale():
    profiles = gen_profiles(2, 1, 4000, seed=8)
    noise = NoiseModel(additive_sigma=0.1)
    d = gen_dataset(profiles, 10, noise, seed=9)
    for profile in profiles:
        wave = profile.waveforms[0]
        target = 0.1 * np.sqrt(np.mean(wave * wave))
        rows = [m.features for m in d.measurements if m.label == profile.label]
        deviation = np.sqrt(np.mean((np.stack(rows) - wave) ** 2))
        assert target * 0.8 <= deviation <= target * 1.2


def test_shift_stays_within_bound():
    length, max_shift = 500, 0.05
    profiles = gen_profiles(3, 2, length, seed=10)
    d = gen_dataset(profiles, 6, NoiseModel(max_shift=max_shift), seed=11)
    bound = int(max_shift * length)
    for m in d.measurements:
        profile = next(p for p in profiles if p.label == m.label)
        halves = np.split(m.features, 2)
        shifts = set()
        for wave, part in zip(profile.waveforms, halves):
            match = [
                s for s in range(-bound, bound + 1)
                if np.array_equal(np.roll(wave, s), part)
            ]
            assert match, "observed shift exceeds the configured bound"
            shifts.add(match[0])
        # one shared draw per measurement: both events shifted together
        assert len(shifts) == 1


def test_features_stay_nonnegative_under_heavy_noise():
    profiles = gen_profiles(2, 2, 300, seed=12)
    noise = NoiseModel(additive_sigma=3.0, background_floor=5.0)
    d = gen_dataset(profiles, 5, noise, seed=13)
    assert d.feature_matrix().min() >= 0


def test_noise_free_data_is_1nn_separable():
    profiles = gen_profiles(6, 2, 250, seed=14)
    reference = gen_dataset(profiles, 2, NoiseModel(), seed=15)
    probes = gen_dataset(profiles, 1, NoiseModel(), seed=16)
    model = train_knn(reference, k=1)
    report = evaluate(model, probes)
    assert report.success_rate == 1.0


def test_event_names_come_from_the_closed_set(tmp_path):
    profiles = gen_profiles(2, 3, 50, seed=17)
    d = gen_dataset(profiles, 2, NoiseModel(), seed=18)
    assert d.meta["events"] == ["instructions", "branch-instructions", "cache-references"]
    path = tmp_path / "synthetic.csv"
    dataset.save(d, str(path))
    assert dataset.load(str(path)).meta["events"] == d.meta["events"]


def test_invalid_parameters_rejected():
    with pytest.raises(ConfigError):
        NoiseModel(additive_sigma=-0.1)
    with pytest.raises(ConfigError):
        NoiseModel(max_shift=0.5)
    # Non-finite values, and what the generator cannot draw from.
    for field, value in [("additive_sigma", np.nan), ("max_shift", np.nan), ("amplitude_jitter", np.inf),
                         ("amplitude_jitter", 9e307), ("background_floor", np.inf),
                         ("background_floor", 1e20)]:
        with pytest.raises(ConfigError):
            NoiseModel(**{field: value})
    with pytest.raises(ConfigError):
        gen_profiles(0, 1, 100, seed=0)
    with pytest.raises(ConfigError):
        gen_profiles(2, 9, 100, seed=0)
    profiles = gen_profiles(2, 1, 100, seed=0)
    with pytest.raises(ConfigError):
        gen_dataset(profiles, 0, NoiseModel(), seed=0)
    with pytest.raises(ConfigError):
        gen_dataset(profiles, 1, "loud", seed=0)  # type: ignore[arg-type]


def test_short_waveforms_have_at_most_one_phase_per_sample():
    for length in range(2, 7):
        for profile in gen_profiles(6, 2, length, seed=12):
            assert all(w.shape == (length,) for w in profile.waveforms)


def test_profiles_that_fit_their_phases_keep_their_bytes():
    # Frozen from the generator before phase counts were capped at the
    # waveform length: lengths of 6 or more never needed the cap.
    digest = hashlib.sha256()
    for length in (6, 7, 8, 40):
        for profile in gen_profiles(5, 3, length, seed=11):
            digest.update(profile.concatenated.tobytes())
    assert digest.hexdigest() == "7c5a8640c29a0afd56472fdc3eb7f37c0f2114a6d7adf7245de0fe69df8f5d9f"
