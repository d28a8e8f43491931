"""The whole-matrix dataset transforms and the shared per-class sampler
against per-row reference copies (tests/oracles.py): the same feature bits,
labels, row meta, dataset meta and chosen rows, on random datasets."""

import numpy as np
import pytest

from perfprint import dataset, evaluation
from perfprint.dataset import Dataset, Measurement, NormParams
from perfprint.errors import DataError
from perfprint.mitigation import MitigationPolicy, apply

from oracles import (
    reference_curve_indices,
    reference_deny,
    reference_downsample,
    reference_kfold_indices,
    reference_noise,
    reference_normalize_apply,
    reference_split_indices,
)

SEEDS = range(8)
WIDTHS = [1, 2, 7, 13, 31, 257]


def _random_dataset(rng, n_rows, width, n_classes=3):
    """Rows of mixed magnitudes in shuffled label order, with constant
    columns, per-row meta on some rows and a dataset meta."""
    x = rng.random((n_rows, width)) * 10.0 ** rng.integers(0, 7, size=(n_rows, width))
    if width:
        constant = rng.random(width) < 0.25
        x[:, constant] = rng.integers(0, 5)
    labels = [f"class-{c}" for c in rng.integers(0, n_classes, size=n_rows)]
    return Dataset(
        measurements=tuple(
            Measurement(label=label, features=row, meta={"row": i} if i % 3 else {})
            for i, (label, row) in enumerate(zip(labels, x))
        ),
        meta={"scenario": "oracle", "samples_per_event": width},
    )


def _empty(meta=None):
    return Dataset(measurements=(), meta=dict(meta or {"scenario": "oracle"}))


def _assert_same(got: Dataset, want: Dataset):
    assert len(got) == len(want)
    for g, w in zip(got.measurements, want.measurements):
        assert g.label == w.label
        assert g.meta == w.meta
        assert g.features.shape == w.features.shape
        assert g.features.tobytes() == w.features.tobytes()
    assert got.meta == want.meta
    assert got.feature_length == want.feature_length
    if want.normalization is None:
        assert got.normalization is None
    else:
        assert got.normalization.feature_min.tobytes() == want.normalization.feature_min.tobytes()
        assert got.normalization.feature_max.tobytes() == want.normalization.feature_max.tobytes()


def _indices(part: Dataset, whole: Dataset) -> list[int]:
    """Row positions in `whole` of `part`'s rows, matched by object identity."""
    position = {id(m): i for i, m in enumerate(whole.measurements)}
    return [position[id(m)] for m in part.measurements]


# -- transforms ----------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_normalize_apply_matches_the_per_row_reference(seed):
    rng = np.random.default_rng(seed)
    for width in WIDTHS:
        fit = _random_dataset(rng, 9, width).feature_matrix()
        params = NormParams(feature_min=fit.min(axis=0), feature_max=fit.max(axis=0))
        d = _random_dataset(rng, int(rng.integers(1, 12)), width)
        _assert_same(dataset.normalize_apply(params, d), reference_normalize_apply(params, d))
        _assert_same(dataset.normalize_apply(params, _empty()), reference_normalize_apply(params, _empty()))


def test_normalize_fit_matches_the_per_row_reference():
    d = _random_dataset(np.random.default_rng(40), 20, 13)
    fitted = dataset.normalize_fit(d)
    _assert_same(fitted, reference_normalize_apply(fitted.normalization, d))


@pytest.mark.parametrize("seed", SEEDS)
def test_downsample_matches_the_per_row_reference(seed):
    rng = np.random.default_rng(seed)
    for width in WIDTHS:
        d = _random_dataset(rng, int(rng.integers(1, 8)), width)
        for factor in sorted({1, 2, 3, 4, 7, 10, 64, width, width + 5}):
            _assert_same(dataset.downsample(d, factor), reference_downsample(d, factor))
    _assert_same(dataset.downsample(_empty(), 3), reference_downsample(_empty(), 3))


def test_downsample_of_protocol_width_matches_the_per_row_reference():
    d = _random_dataset(np.random.default_rng(41), 6, 30000)
    for factor in (10, 7, 300):
        _assert_same(dataset.downsample(d, factor), reference_downsample(d, factor))


@pytest.mark.parametrize("seed", SEEDS)
def test_noise_injection_matches_the_per_row_reference(seed):
    rng = np.random.default_rng(seed)
    for width in [0, *WIDTHS]:
        d = _random_dataset(rng, int(rng.integers(1, 10)), width)
        train = _random_dataset(rng, 7, width)
        for sigma in (0.0, 0.3, 5.0):
            policy = MitigationPolicy.noise_injection(sigma, seed=seed + 100)
            _assert_same(apply(policy, d), reference_noise(d, sigma, seed + 100))
            _assert_same(
                apply(policy, d, rms_reference=train),
                reference_noise(d, sigma, seed + 100, rms_reference=train),
            )


@pytest.mark.parametrize("seed", SEEDS)
def test_access_denial_matches_the_per_row_reference(seed):
    rng = np.random.default_rng(seed)
    for width in WIDTHS:
        d = _random_dataset(rng, int(rng.integers(1, 10)), width)
        _assert_same(apply(MitigationPolicy.access_denied(), d), reference_deny(d))


def test_transforms_copy_row_meta():
    d = _random_dataset(np.random.default_rng(42), 6, 5)
    params = NormParams(feature_min=np.zeros(5), feature_max=np.ones(5))
    for out in (dataset.normalize_apply(params, d), dataset.downsample(d, 2),
                apply(MitigationPolicy.noise_injection(1.0), d),
                apply(MitigationPolicy.access_denied(), d)):
        for before, after in zip(d.measurements, out.measurements):
            assert after.meta == before.meta and after.meta is not before.meta


# -- per-class sampling --------------------------------------------------------


def _random_labels(rng):
    """Shuffled labels of up to four classes with uneven sizes, some tiny."""
    sizes = rng.integers(0, 13, size=int(rng.integers(1, 5)))
    labels = [f"class-{c}" for c, size in enumerate(sizes) for _ in range(size)]
    return [labels[i] for i in rng.permutation(len(labels))]


def _labeled(labels):
    return Dataset(
        measurements=tuple(Measurement(label=label, features=[float(i)]) for i, label in enumerate(labels))
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_split_matches_the_per_row_reference(seed):
    rng = np.random.default_rng(seed)
    for _ in range(20):
        labels = _random_labels(rng)
        d = _labeled(labels)
        n_train, n_test = (int(v) for v in rng.integers(1, 6, size=2))
        want = reference_split_indices(labels, n_train, n_test, seed)
        if isinstance(want, str):
            with pytest.raises(DataError) as exc:
                dataset.split(d, n_train, n_test, seed)
            assert str(exc.value) == want
            continue
        train, test = dataset.split(d, n_train, n_test, seed)
        assert (_indices(train, d), _indices(test, d)) == want
    empty_train, empty_test = dataset.split(_labeled([]), 2, 1, seed)
    assert len(empty_train) == len(empty_test) == 0


@pytest.mark.parametrize("seed", SEEDS)
def test_kfold_matches_the_per_row_reference(seed):
    rng = np.random.default_rng(seed)
    for _ in range(20):
        labels = _random_labels(rng)
        d = _labeled(labels)
        k = int(rng.integers(2, 6))
        want = reference_kfold_indices(labels, k, seed)
        if isinstance(want, str):
            with pytest.raises(DataError) as exc:
                dataset.kfold(d, k, seed)
            assert str(exc.value) == want
            continue
        got = [(_indices(t, d), _indices(v, d)) for t, v in dataset.kfold(d, k, seed)]
        assert got == want
    assert [(len(t), len(v)) for t, v in dataset.kfold(_labeled([]), 3, seed)] == [(0, 0)] * 3


@pytest.mark.parametrize("seed", SEEDS)
def test_learning_curve_matches_the_per_row_reference(seed, monkeypatch):
    rng = np.random.default_rng(seed)
    seen = []

    def record_train(train):
        seen.append(("train", train))
        return None

    def record_test(model, test, g_max=None):
        seen.append(("test", test))
        # one row whose first guess is its class: a success rate of 1
        return evaluation.EvalReport(np.zeros((1, 1), dtype=np.int64), np.zeros(1, dtype=np.int64),
                                     ["a"])

    monkeypatch.setattr(evaluation, "evaluate", record_test)
    for _ in range(20):
        labels = _random_labels(rng)
        d = _labeled(labels)
        sizes = sorted({int(v) for v in rng.integers(1, 6, size=int(rng.integers(1, 4)))})
        n_test = int(rng.integers(1, 4))
        want = reference_curve_indices(labels, sizes, n_test, seed)
        seen.clear()
        if isinstance(want, str):
            with pytest.raises(DataError) as exc:
                evaluation.learning_curve(record_train, d, sizes, n_test, seed)
            assert str(exc.value) == want
            continue
        evaluation.learning_curve(record_train, d, sizes, n_test, seed)
        trains = [_indices(part, d) for kind, part in seen if kind == "train"]
        tests = {tuple(_indices(part, d)) for kind, part in seen if kind == "test"}
        assert tests == {tuple(want[0])}
        assert trains == [want[1][size] for size in sizes]
