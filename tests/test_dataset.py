import json

import numpy as np
import pytest

from perfprint import dataset
from perfprint.collector import RawTraceSet
from perfprint.dataset import Dataset, Measurement, NormParams
from perfprint.errors import ConfigError, DataError
from perfprint.evaluation import CrossValResult, EvalReport
from perfprint.events import CollectorConfig, EventSpec, ProfilingScope, preset
from perfprint.mitigation import LeakageReport
from perfprint.synth import ClassProfile

from helpers import build_dataset


def _raw(counts, duration_s=0.001, read_interval_us=200):
    config = CollectorConfig(
        events=tuple(EventSpec(name) for name in counts),
        scope=ProfilingScope.core(0),
        duration_s=duration_s,
        read_interval_us=read_interval_us,
    )
    n = max(len(v) for v in counts.values())
    return RawTraceSet(
        counts={k: np.asarray(v) for k, v in counts.items()},
        timestamps=np.arange(n, dtype=float),
        config=config,
    )


@pytest.mark.parametrize("series", [[5, 7], [1, 2, 3, 4, 5, 6]], ids=["short", "long"])
def test_concatenate_refuses_a_series_of_another_length(series):
    raw = _raw({"instructions": series}, duration_s=0.0008)  # expects 4 samples
    with pytest.raises(DataError, match=f"holds {len(series)} samples per event, its config expects 4"):
        dataset.concatenate(raw, "site-a")


def test_concatenate_follows_config_event_order():
    raw = _raw(
        {"branch-instructions": [1, 2], "cache-references": [3, 4]},
        duration_s=0.0004,
    )
    m = dataset.concatenate(raw, "a")
    assert m.features.tolist() == [1.0, 2.0, 3.0, 4.0]
    assert m.label == "a" and m.meta == {}


def test_concatenate_chrome_arm_length():
    config = preset("ChromeArm").config
    counts = {name: np.ones(25000, dtype=np.int64) for name in config.event_names}
    raw = RawTraceSet(counts=counts, timestamps=np.arange(25000, dtype=float), config=config)
    m = dataset.concatenate(raw, "netflix.com")
    assert len(m.features) == 150000


def test_normalize_min_max_columns():
    d = build_dataset([[0.0], [5.0], [10.0]], ["a", "b", "c"])
    fitted = dataset.normalize_fit(d)
    col = [m.features[0] for m in fitted.measurements]
    assert col == [0.0, 0.5, 1.0]


def test_normalize_constant_column_maps_to_zero():
    d = build_dataset([[7.0, 1.0], [7.0, 2.0]], ["a", "b"])
    fitted = dataset.normalize_fit(d)
    assert [m.features[0] for m in fitted.measurements] == [0.0, 0.0]


def test_normalize_apply_does_not_clamp():
    train = build_dataset([[0.0], [10.0]], ["a", "b"])
    fitted = dataset.normalize_fit(train)
    other = build_dataset([[12.0]], ["a"])
    out = dataset.normalize_apply(fitted.normalization, other)
    assert out.measurements[0].features[0] == pytest.approx(1.2)


def test_normalize_training_features_in_unit_interval():
    rng = np.random.default_rng(5)
    d = build_dataset(rng.normal(size=(20, 6)) * 50, [f"c{i%4}" for i in range(20)])
    fitted = dataset.normalize_fit(d)
    x = fitted.feature_matrix()
    assert x.min() >= 0.0 and x.max() <= 1.0


def test_normalize_refit_on_normalized_is_identity():
    rng = np.random.default_rng(6)
    d = build_dataset(rng.normal(size=(10, 4)), list("abcdefghij"))
    once = dataset.normalize_fit(d)
    twice = dataset.normalize_fit(once)
    assert np.allclose(once.feature_matrix(), twice.feature_matrix(), atol=1e-12)


def test_normalize_apply_length_mismatch():
    params = NormParams(feature_min=np.zeros(3), feature_max=np.ones(3))
    d = build_dataset([[1.0, 2.0]], ["a"])
    with pytest.raises(DataError, match="features"):
        dataset.normalize_apply(params, d)


def test_downsample_block_means():
    d = build_dataset([[2.0, 4.0, 6.0, 8.0]], ["a"])
    out = dataset.downsample(d, 2)
    assert out.measurements[0].features.tolist() == [3.0, 7.0]


def test_downsample_identity_at_factor_one():
    d = build_dataset([[1.0, 2.0, 3.0]], ["a"])
    assert dataset.downsample(d, 1) is d


def test_downsample_partial_tail_mean():
    d = build_dataset([[1.0, 2.0, 3.0]], ["a"])
    out = dataset.downsample(d, 2)
    assert out.measurements[0].features.tolist() == [1.5, 3.0]


def test_downsample_rejects_bad_factor():
    d = build_dataset([[1.0]], ["a"])
    with pytest.raises(ConfigError):
        dataset.downsample(d, 0)


def test_downsample_composes_when_factors_divide_evenly():
    rng = np.random.default_rng(7)
    d = build_dataset(rng.normal(size=(3, 24)), ["a", "b", "c"])
    left = dataset.downsample(dataset.downsample(d, 2), 3)
    right = dataset.downsample(d, 6)
    assert np.allclose(left.feature_matrix(), right.feature_matrix(), atol=1e-12)


def test_downsample_length_is_ceil():
    d = build_dataset([np.arange(10.0)], ["a"])
    assert dataset.downsample(d, 4).feature_length == 3


def _per_class_dataset(per_class, n_classes=3, n_features=2, seed=0):
    rng = np.random.default_rng(seed)
    rows, labels = [], []
    for c in range(n_classes):
        for _ in range(per_class):
            rows.append(rng.normal(size=n_features))
            labels.append(f"class-{c}")
    return build_dataset(rows, labels)


def test_split_forty_ten():
    d = _per_class_dataset(50)
    train, test = dataset.split(d, 40, 10, seed=1)
    assert len(train) == 40 * 3 and len(test) == 10 * 3
    for part, want in ((train, 40), (test, 10)):
        for label, members in part.by_class().items():
            assert len(members) == want


def test_split_insufficient_names_class():
    d = _per_class_dataset(20)
    with pytest.raises(DataError, match="class-0"):
        dataset.split(d, 40, 10, seed=1)


def test_split_is_deterministic_and_disjoint():
    d = _per_class_dataset(12)
    t1, e1 = dataset.split(d, 8, 4, seed=9)
    t2, e2 = dataset.split(d, 8, 4, seed=9)
    assert [m.features.tolist() for m in t1.measurements] == [
        m.features.tolist() for m in t2.measurements
    ]
    ids_train = {id(m) for m in t1.measurements}
    assert not ids_train & {id(m) for m in e1.measurements}


def test_split_different_seeds_differ():
    d = _per_class_dataset(12)
    t1, _ = dataset.split(d, 8, 4, seed=1)
    t2, _ = dataset.split(d, 8, 4, seed=2)
    assert [m.features.tolist() for m in t1.measurements] != [
        m.features.tolist() for m in t2.measurements
    ]


def test_kfold_stratified_counts():
    d = _per_class_dataset(20)
    folds = dataset.kfold(d, 10, seed=4)
    assert len(folds) == 10
    for train, validation in folds:
        for label, members in validation.by_class().items():
            assert len(members) == 2
        assert len(train) + len(validation) == len(d)


def test_kfold_partitions_whole_dataset():
    d = _per_class_dataset(6)
    folds = dataset.kfold(d, 3, seed=4)
    seen = []
    for _, validation in folds:
        seen.extend(m.features.tobytes() for m in validation.measurements)
    assert sorted(seen) == sorted(m.features.tobytes() for m in d.measurements)


def test_kfold_leave_one_out_limit():
    d = _per_class_dataset(4)
    folds = dataset.kfold(d, 4, seed=0)
    for _, validation in folds:
        for label, members in validation.by_class().items():
            assert len(members) == 1


def test_kfold_errors():
    d = _per_class_dataset(4)
    with pytest.raises(ConfigError):
        dataset.kfold(d, 1, seed=0)
    with pytest.raises(DataError, match="class-"):
        dataset.kfold(d, 5, seed=0)


def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(11)
    d = build_dataset(
        rng.normal(size=(6, 5)) * 1000,
        ["u", "v", "w", "u", "v", "w"],
        meta={"scenario": "synthetic", "events": ["instructions"], "samples_per_event": 5},
    )
    d = dataset.normalize_fit(d)
    path = tmp_path / "d.csv"
    dataset.save(d, str(path))
    loaded = dataset.load(str(path))
    assert loaded.labels() == d.labels()
    assert loaded.classes == d.classes
    assert np.allclose(loaded.feature_matrix(), d.feature_matrix(), rtol=1e-8)
    assert np.array_equal(loaded.normalization.feature_min, d.normalization.feature_min)
    assert loaded.meta["scenario"] == "synthetic"


def test_save_load_save_is_byte_stable(tmp_path):
    rng = np.random.default_rng(12)
    d = build_dataset(rng.normal(size=(4, 3)), ["a", "b", "a", "b"])
    first = tmp_path / "one.csv"
    second = tmp_path / "two.csv"
    dataset.save(d, str(first))
    dataset.save(dataset.load(str(first)), str(second))
    assert first.read_bytes() == second.read_bytes()


def test_load_rejects_wrong_feature_count(tmp_path):
    path = tmp_path / "bad.csv"
    header = {"format": "perfprint-dataset", "version": 1, "feature_length": 2,
              "classes": ["a"], "normalization": None, "row_meta": None,
              "scenario": None, "events": None, "samples_per_event": None, "meta": {}}
    path.write_text(json.dumps(header) + "\na,1.0\n")
    with pytest.raises(DataError, match="line 2"):
        dataset.load(str(path))


def test_load_rejects_unknown_event_name(tmp_path):
    path = tmp_path / "bad.csv"
    header = {"format": "perfprint-dataset", "version": 1, "feature_length": 1,
              "classes": ["a"], "normalization": None, "row_meta": None,
              "scenario": None, "events": ["tlb-misses"], "samples_per_event": None, "meta": {}}
    path.write_text(json.dumps(header) + "\na,1.0\n")
    with pytest.raises(DataError, match="tlb-misses"):
        dataset.load(str(path))


def test_load_rejects_malformed_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("not json\na,1.0\n")
    with pytest.raises(DataError, match="header"):
        dataset.load(str(path))


def test_save_rejects_reserved_label_characters(tmp_path):
    d = build_dataset([[1.0]], ["with,comma"])
    with pytest.raises(DataError, match="reserved"):
        dataset.save(d, str(tmp_path / "x.csv"))


@pytest.mark.parametrize("brk", ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
                                 "\x85", "\u2028", "\u2029"])
@pytest.mark.parametrize("write", ["save", "append"])
def test_labels_with_any_line_break_are_rejected(tmp_path, brk, write):
    path = tmp_path / "x.csv"
    label = f"a{brk}b"
    with pytest.raises(DataError, match="reserved"):
        if write == "save":
            dataset.save(build_dataset([[1.0]], [label]), str(path))
        else:
            dataset.append_measurement(str(path), Measurement(label=label, features=[1.0]))
    assert not path.exists()


def test_append_measurement(tmp_path):
    path = tmp_path / "trace.csv"
    m1 = Measurement(label="a", features=np.array([1.0, 2.0]))
    m2 = Measurement(label="b", features=np.array([3.0, 4.0]))
    dataset.append_measurement(str(path), m1, dataset_meta={"scenario": "TorIntel"})
    dataset.append_measurement(str(path), m2)
    d = dataset.load(str(path))
    assert d.labels() == ["a", "b"]
    assert d.meta["scenario"] == "TorIntel"
    bad = Measurement(label="c", features=np.array([1.0]))
    with pytest.raises(DataError, match="append"):
        dataset.append_measurement(str(path), bad)


def _preset_trace(name, read_interval_us):
    config = preset(name, read_interval_us).config
    counts = {event: np.ones(config.expected_samples, dtype=np.int64) for event in config.event_names}
    raw = RawTraceSet(counts=counts, timestamps=np.arange(config.expected_samples, dtype=float),
                      config=config)
    meta = {"scenario": name, "events": config.event_names,
            "samples_per_event": config.expected_samples}
    return dataset.concatenate(raw, name), meta


def test_append_of_another_layout_is_refused(tmp_path):
    # At these intervals both presets give 15,000 features: 3 x 5,000 on
    # Intel, 6 x 2,500 on ARM. So the feature length alone cannot tell them apart.
    path = tmp_path / "traces.csv"
    tor, tor_meta = _preset_trace("TorIntel", 1000)
    arm, arm_meta = _preset_trace("ChromeArm", 2000)
    assert len(tor.features) == len(arm.features) == 15_000
    dataset.append_measurement(str(path), tor, dataset_meta=tor_meta)
    before = path.read_bytes()
    with pytest.raises(DataError) as exc:
        dataset.append_measurement(str(path), arm, dataset_meta=arm_meta)
    message = str(exc.value)
    for key in ("scenario", "events", "samples_per_event"):
        assert f"{key} is {tor_meta[key]!r} in the file, {arm_meta[key]!r} in the append" in message
    assert path.read_bytes() == before

    # The same layout appends, also with its events as a tuple, and a key
    # the file lacks is added.
    dataset.append_measurement(str(path), tor, dataset_meta={
        **tor_meta, "events": tuple(tor_meta["events"]), "host": "h1"})
    d = dataset.load(str(path))
    assert len(d) == 2 and d.meta == {**tor_meta, "host": "h1"}
    assert [m.meta for m in d.measurements] == [{}, {}]


def _header(**overrides):
    header = {"format": "perfprint-dataset", "version": 1, "feature_length": 2,
              "classes": ["a"], "normalization": None, "row_meta": None,
              "scenario": None, "events": None, "samples_per_event": None, "meta": {}}
    header.update(overrides)
    return json.dumps(header)


def test_append_gives_the_same_bytes_as_save(tmp_path):
    rng = np.random.default_rng(13)
    scaled = [rng.normal(size=7) * 10.0 ** (i - 3) for i in range(6)]
    # Counter rows as wide as a campaign's, one also holding a count of 1e9
    # or more (written by `%.9g`) and one a -0.0 (whose sign `%.9g` keeps).
    counts = rng.integers(0, 10**6, size=(6, 30_000)).astype(np.float64)
    counts[2, 17] = 1_234_567_890.0
    counts[4, 29_999] = -0.0
    for name, x in [("scaled", scaled), ("counts", counts)]:
        meta = {"scenario": "TorIntel", "events": ["instructions"], "samples_per_event": len(x[0])}
        measurements = [
            Measurement(label=f"site-{i % 3}", features=row, meta={"visit": i})
            for i, row in enumerate(x)
        ]
        appended = tmp_path / f"{name}-appended.csv"
        for m in measurements:
            dataset.append_measurement(str(appended), m, dataset_meta=meta)
        saved = tmp_path / f"{name}-saved.csv"
        dataset.save(Dataset(measurements=tuple(measurements), meta=meta), str(saved))
        assert appended.read_bytes() == saved.read_bytes(), name
    assert dataset.load(str(saved)).feature_matrix().tobytes() == counts.tobytes()


@pytest.mark.parametrize("header, rows, match", [
    (_header(), "a,1.0,2.0\na,1.0,x\n", "line 3: non-numeric"),
    (_header(), "a,1.0,2.0\na,1.0\n", "line 3"),
    (_header(row_meta=[{"visit": 0}]), "a,1.0,2.0\na,3.0,4.0\n", "line 3: header row_meta"),
    (_header(row_meta=[{"visit": 0}, {"visit": 1}, {"visit": 2}]), "a,1.0,2.0\na,3.0,4.0\n",
     "line 1: header row_meta has 3 entries, more than the 2 rows"),
], ids=["non-numeric", "field-count", "short-row-meta", "surplus-row-meta"])
def test_append_rejects_what_load_rejects(tmp_path, header, rows, match):
    path = tmp_path / "trace.csv"
    path.write_text(header + "\n" + rows)
    before = path.read_bytes()
    with pytest.raises(DataError, match=match):
        dataset.load(str(path))
    with pytest.raises(DataError, match=match):
        dataset.append_measurement(str(path), Measurement(label="a", features=[5.0, 6.0]))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["trace.csv"]


def test_append_keeps_hand_written_rows_as_written(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text(_header() + "\na,1.50,2e3\n\n")
    dataset.append_measurement(str(path), Measurement(label="a", features=[0.25, 3.0]))
    assert path.read_text().splitlines()[1:] == ["a,1.50,2e3", "a,0.25,3"]
    assert dataset.load(str(path)).feature_matrix().tolist() == [[1.5, 2000.0], [0.25, 3.0]]


@pytest.mark.parametrize("header, match", [
    (_header(row_meta=[]), "line 2: header row_meta"),
    (json.dumps([1, 2]), "line 1: header is not a JSON object"),
    (_header(row_meta={"visit": 0}), "line 1: row_meta is not a list"),
    (_header(row_meta=[{}, {}, {}]), "line 1: header row_meta has 3 entries, more than the 1 rows"),
], ids=["short-row-meta", "list-header", "dict-row-meta", "surplus-row-meta"])
def test_load_rejects_malformed_header_fields(tmp_path, header, match):
    path = tmp_path / "bad.csv"
    path.write_text(header + "\na,1.0,2.0\n")
    with pytest.raises(DataError, match=match):
        dataset.load(str(path))


def test_failed_save_leaves_the_old_file(tmp_path, monkeypatch):
    path = tmp_path / "d.csv"
    dataset.save(build_dataset([[1.0], [2.0]], ["a", "b"]), str(path))
    before = path.read_bytes()

    def disk_full(m):
        raise OSError("no space left on device")

    monkeypatch.setattr(dataset, "_format_row", disk_full)
    with pytest.raises(OSError, match="no space"):
        dataset.save(build_dataset([[3.0]], ["c"]), str(path))
    with pytest.raises(OSError, match="no space"):
        dataset.append_measurement(str(path), Measurement(label="c", features=[3.0]))
    monkeypatch.undo()
    with pytest.raises(DataError, match="reserved"):
        dataset.save(build_dataset([[3.0]], ["with,comma"]), str(path))
    with pytest.raises(DataError, match="reserved"):
        dataset.append_measurement(str(path), Measurement(label="c\nd", features=[3.0]))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["d.csv"]


def test_save_refuses_a_normalization_that_does_not_fit_the_rows(tmp_path):
    path = tmp_path / "d.csv"
    d = dataset.normalize_fit(build_dataset([[1.0, 2.0], [3.0, 5.0]], ["a", "b"]))
    for bad in (d.subset([]), d.with_features(np.zeros((2, 1)), normalization=d.normalization)):
        with pytest.raises(DataError, match="normalization"):
            dataset.save(bad, str(path))
    assert not path.exists()
    dataset.save(d, str(path))
    np.testing.assert_array_equal(dataset.load(str(path)).normalization.feature_max, [3.0, 5.0])


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_a_non_finite_dataset_meta_value_is_refused_and_nothing_is_written(tmp_path, value):
    path = tmp_path / "d.csv"
    d = build_dataset([[1.0], [2.0]], ["a", "b"])
    with pytest.raises(DataError, match="non-finite"):
        dataset.save(Dataset(measurements=d.measurements, meta={"x": value}), str(path))
    with pytest.raises(DataError, match="non-finite"):
        dataset.append_measurement(str(path), d.measurements[0], dataset_meta={"x": value})
    assert not path.exists()
    dataset.save(d, str(path))
    before = path.read_bytes()
    with pytest.raises(DataError, match="non-finite"):
        dataset.append_measurement(str(path), d.measurements[0], dataset_meta={"x": [value]})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["d.csv"]


def test_save_keeps_the_permission_bits_of_the_file_it_replaces(tmp_path):
    path = tmp_path / "d.csv"
    dataset.save(build_dataset([[1.0]], ["a"]), str(path))
    path.chmod(0o600)
    dataset.append_measurement(str(path), Measurement(label="b", features=[2.0]))
    assert path.stat().st_mode & 0o777 == 0o600


def test_dataset_rejects_ragged_features():
    with pytest.raises(DataError, match="length"):
        Dataset(
            measurements=(
                Measurement(label="a", features=np.array([1.0])),
                Measurement(label="b", features=np.array([1.0, 2.0])),
            )
        )


def test_classes_are_sorted_unique():
    d = build_dataset([[1.0], [2.0], [3.0]], ["beta", "alpha", "beta"])
    assert d.classes == ["alpha", "beta"]
    assert d.n_classes == 2


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_features_are_refused(tmp_path, value):
    path = tmp_path / "d.csv"
    dataset.save(build_dataset([[1.0, 2.0]], ["a"]), str(path))
    before = path.read_bytes()
    with pytest.raises(DataError, match="non-finite"):
        dataset.save(build_dataset([[1.0, 2.0], [value, 2.0]], ["a", "b"]), str(path))
    with pytest.raises(DataError, match="non-finite"):
        dataset.append_measurement(str(path), Measurement(label="b", features=[1.0, value]))
    assert path.read_bytes() == before

    path.write_text(before.decode() + f"b,{value!r},2.0\n")
    with pytest.raises(DataError, match=f"^{path}: line 3 \\(label 'b'\\): non-finite"):
        dataset.load(str(path))
    with pytest.raises(DataError, match=f"^{path}: line 3 "):
        dataset.append_measurement(str(path), Measurement(label="c", features=[1.0, 2.0]))


def test_zero_width_datasets_round_trip(tmp_path):
    # The deny policy's datasets: every row keeps its label and meta, no features.
    rows = [Measurement(label=label, features=np.zeros(0), meta={"visit": i})
            for i, label in enumerate(["a", "b", "a"])]
    saved, appended = tmp_path / "saved.csv", tmp_path / "appended.csv"
    dataset.save(Dataset(measurements=tuple(rows), meta={"scenario": "deny"}), str(saved))
    for m in rows:
        dataset.append_measurement(str(appended), m, dataset_meta={"scenario": "deny"})
    assert appended.read_bytes() == saved.read_bytes()
    assert saved.read_text().splitlines()[1:] == ["a", "b", "a"]
    loaded = dataset.load(str(saved))
    assert loaded.labels() == ["a", "b", "a"] and loaded.feature_length == 0
    assert [m.meta for m in loaded.measurements] == [{"visit": i} for i in range(3)]
    assert loaded.meta == {"scenario": "deny"}

    with pytest.raises(DataError, match="cannot append 1"):
        dataset.append_measurement(str(saved), Measurement(label="a", features=[1.0]))
    with pytest.raises(DataError, match="non-empty label"):
        dataset.append_measurement(str(saved), Measurement(label="", features=np.zeros(0)))
    assert saved.read_bytes() == appended.read_bytes()
    saved.write_text(saved.read_text() + "b,\n")  # a trailing comma is one empty feature
    with pytest.raises(DataError, match="line 5 \\(label 'b'\\): expected 0 features, found 1"):
        dataset.load(str(saved))


def _report():
    return EvalReport(rankings=np.array([[0, 1], [1, 0]]), truth=np.array([0, 1]),
                      classes=["a", "b"])


# Every record that holds numpy arrays, built twice from the same values.
@pytest.mark.parametrize("make", [
    lambda: Measurement(label="a", features=np.arange(3.0)),
    lambda: NormParams(np.zeros(3), np.ones(3)),
    lambda: Dataset((Measurement("a", np.arange(3.0)), Measurement("b", np.ones(3)))),
    _report,
    lambda: CrossValResult([_report(), _report()]),
    lambda: LeakageReport(_report(), _report(), {"split": 0}),
    lambda: ClassProfile("a", (np.arange(3.0), np.ones(3))),
    lambda: _raw({"instructions": [1, 2, 3], "bus-cycles": [4, 5, 6]}),
], ids=["Measurement", "NormParams", "Dataset", "EvalReport", "CrossValResult",
        "LeakageReport", "ClassProfile", "RawTraceSet"])
def test_records_holding_arrays_compare_without_raising(make):
    # A generated __eq__ would compare the arrays and raise; these compare
    # by identity.
    a, b = make(), make()
    assert (a == b) is False and (a == a) is True
