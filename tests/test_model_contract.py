"""Uniform contract shared by all four model kinds, plus persistence."""

import base64
import json
import os
import re

import numpy as np
import pytest

from perfprint.classifiers import (MODEL_KINDS, KnnModel, Model, io, load_model, make_trainer,
                                   net, save_model)
from perfprint.classifiers.base import rank_by
from perfprint.dataset import write_json
from perfprint.errors import ConfigError, DataError

from helpers import build_dataset, random_dataset
from oracles import save_model_v1

KINDS_AND_PARAMS = [
    ("knn", {"k": 3}),
    ("tree", {"min_parent": 4}),
    ("svm", {}),
    ("net", {"seed": 2, "max_iterations": 8, "hidden1": 12, "hidden2": 6}),
]


@pytest.fixture(scope="module")
def toy():
    rng = np.random.default_rng(77)
    d = random_dataset(rng, 4, 6, 5, spread=6.0)
    queries = rng.normal(scale=4.0, size=(12, 5))
    return d, queries


NAN = float("nan")


# Each keyword outside its range. A nan fails every range, so each check is
# written to refuse it.
@pytest.mark.parametrize("kind,keyword,value", [
    ("net", "learning_rate", -0.1),
    ("net", "learning_rate", 0.0),
    ("net", "learning_rate", NAN),
    ("net", "l2_weight", -1.0),
    ("net", "l2_weight", NAN),
    ("net", "max_iterations", NAN),
    ("net", "softmax_iterations", -2),
    ("net", "finetune_iterations", -3),
    ("net", "hidden1", 0),
    ("svm", "c", NAN),
    ("svm", "max_passes", 0),
    ("svm", "max_passes", -1),
    ("svm", "tol", -1.0),
    ("svm", "tol", NAN),
    ("tree", "max_splits", -4),
    ("tree", "min_leaf", -2),
    ("tree", "min_leaf", NAN),
])
def test_a_trainer_keyword_outside_its_range_is_refused(toy, kind, keyword, value):
    d, _ = toy
    name = "C" if keyword == "c" else keyword
    with pytest.raises(ConfigError, match=rf"^{name} must be >=? [01], got {re.escape(str(value))}$"):
        make_trainer(kind, **{keyword: value})(d)


@pytest.mark.parametrize("kind,params", KINDS_AND_PARAMS)
def test_predict_equals_top1(toy, kind, params):
    d, queries = toy
    model = make_trainer(kind, **params)(d)
    for q in queries:
        assert model.predict(q) == model.predict_topk(q, 1)[0]


@pytest.mark.parametrize("kind,params", KINDS_AND_PARAMS)
def test_full_topk_is_permutation(toy, kind, params):
    d, queries = toy
    model = make_trainer(kind, **params)(d)
    for q in queries:
        ranked = model.predict_topk(q, model.n_classes)
        assert sorted(ranked) == sorted(model.classes)


@pytest.mark.parametrize("kind,params", KINDS_AND_PARAMS)
def test_topk_prefix_is_stable(toy, kind, params):
    d, queries = toy
    model = make_trainer(kind, **params)(d)
    for q in queries:
        full = model.predict_topk(q, model.n_classes)
        assert model.predict_topk(q, 2) == full[:2]


@pytest.mark.parametrize("kind,params", KINDS_AND_PARAMS)
def test_same_inputs_same_predictions(toy, kind, params):
    d, queries = toy
    a = make_trainer(kind, **params)(d)
    b = make_trainer(kind, **params)(d)
    assert np.array_equal(a.rank_classes_many(queries), b.rank_classes_many(queries))


@pytest.mark.parametrize("kind,params", KINDS_AND_PARAMS)
def test_save_load_preserves_predictions(toy, tmp_path, kind, params):
    d, queries = toy
    model = make_trainer(kind, **params)(d)
    path = tmp_path / f"{kind}.model.json"
    save_model(model, str(path), provenance={"train_data": "toy"})
    loaded = load_model(str(path))
    assert loaded.kind == kind
    assert loaded.classes == model.classes
    assert loaded.hyperparams == model.hyperparams
    assert loaded.provenance == {"train_data": "toy"}
    assert np.array_equal(loaded.rank_classes_many(queries), model.rank_classes_many(queries))


@pytest.mark.parametrize("kind,params", KINDS_AND_PARAMS)
def test_model_files_are_byte_stable(toy, tmp_path, kind, params):
    d, _ = toy
    first = tmp_path / "one.json"
    second = tmp_path / "two.json"
    save_model(make_trainer(kind, **params)(d), str(first))
    save_model(make_trainer(kind, **params)(d), str(second))
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("kind,params", KINDS_AND_PARAMS)
def test_resaving_a_loaded_model_gives_the_same_bytes(toy, tmp_path, kind, params):
    d, _ = toy
    first = tmp_path / "one.json"
    second = tmp_path / "two.json"
    save_model(make_trainer(kind, **params)(d), str(first), provenance={"train_data": "toy"})
    loaded = load_model(str(first))
    save_model(loaded, str(second), provenance=loaded.provenance)
    assert first.read_bytes() == second.read_bytes()


# Text JSON escapes: a quote, a backslash, non-ASCII, a line separator and a
# control character.
ODD_TEXT = ['quo"te', "back\\slash", "é ü 漢", "line\u2028sep", "ctrl\x01"]


@pytest.mark.parametrize("kind,params", KINDS_AND_PARAMS)
def test_save_model_writes_the_bytes_write_json_writes(toy, tmp_path, kind, params):
    """A version-2 file is the envelope as `write_json` writes it, then each
    payload array's little-endian float64 bytes, in payload order."""
    d, _ = toy
    labels = [ODD_TEXT[i % 4] for i in range(len(d))]
    model = make_trainer(kind, **params)(build_dataset(d.feature_matrix(), labels))
    provenance = {"train_data": ODD_TEXT, "rows": [1.5, None, True, -0.0], ODD_TEXT[4]: {}}
    save_model(model, str(tmp_path / "saved.json"), provenance=provenance)
    payload, data = model.to_payload(), b""
    for name, value in payload.items():
        if isinstance(value, np.ndarray):
            payload[name] = {"dtype": "<f8", "shape": list(value.shape), "offset": len(data)}
            data += value.astype("<f8").tobytes()
    write_json(str(tmp_path / "written.json"), {
        "format": io.FILE_FORMAT,
        "version": io.FILE_VERSION,
        "kind": model.kind,
        "classes": model.classes,
        "seed": model.seed,
        "hyperparams": model.hyperparams,
        "provenance": provenance,
        "diagnostics": model.diagnostics(),
        "payload": payload,
    })
    saved = (tmp_path / "saved.json").read_bytes()
    assert saved == (tmp_path / "written.json").read_bytes() + data
    assert json.loads(saved.partition(b"\n")[0])["version"] == 2
    assert (kind == "tree") == (not data)  # a tree's payload holds no array
    assert load_model(str(tmp_path / "saved.json")).classes == sorted(set(labels))


def _bits(value):
    """`value` with each float as its hex form, so that == compares bits."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {k: _bits(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_bits(v) for v in value]
    return value


@pytest.mark.parametrize("kind,params", KINDS_AND_PARAMS)
def test_a_reloaded_model_keeps_its_diagnostics(toy, tmp_path, kind, params):
    d, _ = toy
    model = make_trainer(kind, **params)(d)
    save_model(model, str(tmp_path / "m.json"))
    loaded = load_model(str(tmp_path / "m.json"))
    assert _bits(loaded.diagnostics()) == _bits(model.diagnostics())
    if kind == "svm":
        assert len(loaded.solve_stats) == len(loaded.pairs)
        assert _bits(loaded.solve_stats) == _bits(model.solve_stats)
        assert loaded.solve_summary() == model.solve_summary()
    if kind == "tree":
        assert len(loaded.split_gains) == sum("feature" in n for n in loaded.nodes) > 0
    if kind == "net":
        assert list(loaded.loss_history) == list(loaded.stop_reasons) == list(net._STAGES)
        assert _bits(loaded.loss_history) == _bits(model.loss_history)


def test_each_net_stage_records_why_it_stopped(toy, tmp_path, monkeypatch):
    # A rate floor of 1 stops the first autoencoder, whose huge first
    # steps are all rejected, long before its budget.
    monkeypatch.setattr(net, "_MIN_LEARNING_RATE", 1.0)
    model = make_trainer("net", seed=2, max_iterations=30, hidden1=12, hidden2=6,
                         learning_rate=1e3)(toy[0])
    assert model.stop_reasons == {"autoencoder1": "rate underflow", "autoencoder2": "budget",
                                  "softmax": "budget", "finetune": "budget"}
    assert len(model.loss_history["autoencoder1"]) < 31
    assert [len(model.loss_history[s]) for s in net._STAGES[1:]] == [31, 31, 31]
    save_model(model, str(tmp_path / "m.json"))
    assert load_model(str(tmp_path / "m.json")).stop_reasons == model.stop_reasons


def test_a_net_file_whose_stop_reason_disagrees_with_its_history_fails_to_load(toy, tmp_path):
    model = make_trainer("net", seed=2, max_iterations=3, hidden1=12, hidden2=6)(toy[0])
    assert model.stop_reasons["softmax"] == "budget"
    path = tmp_path / "m.json"
    save_model(model, str(path))
    line, newline, data = path.read_bytes().partition(b"\n")
    doc = json.loads(line)
    doc["diagnostics"]["stop_reasons"]["softmax"] = "rate underflow"
    path.write_bytes(json.dumps(doc, separators=(",", ":")).encode() + newline + data)
    with pytest.raises(DataError, match="stop reasons .* do not follow from the loss histories"):
        load_model(str(path))


@pytest.mark.parametrize("kind,params", KINDS_AND_PARAMS)
def test_a_version_1_file_loads_and_ranks_as_version_2(toy, tmp_path, kind, params):
    d, queries = toy
    model = make_trainer(kind, **params)(d)
    save_model_v1(model, str(tmp_path / "v1.json"), provenance={"train_data": "toy"})
    save_model(model, str(tmp_path / "v2.json"), provenance={"train_data": "toy"})
    v1, v2 = load_model(str(tmp_path / "v1.json")), load_model(str(tmp_path / "v2.json"))
    assert (v1.kind, v1.classes, v1.hyperparams, v1.provenance) == (
        v2.kind, v2.classes, v2.hyperparams, v2.provenance)
    assert not any(v1.diagnostics().values())  # version 1 holds none
    np.testing.assert_array_equal(v1.rank_classes_many(queries), v2.rank_classes_many(queries))
    # Resaved, it is a version-2 file that ranks alike.
    save_model(v1, str(tmp_path / "resaved.json"))
    resaved = load_model(str(tmp_path / "resaved.json"))
    np.testing.assert_array_equal(resaved.rank_classes_many(queries), v2.rank_classes_many(queries))


@pytest.mark.parametrize("kind,params", [kp for kp in KINDS_AND_PARAMS if kp[0] != "tree"])
@pytest.mark.parametrize("version", [1, 2])
def test_a_model_file_array_holding_a_non_finite_value_is_refused(toy, tmp_path, kind, params, version):
    path = tmp_path / "m.json"
    (save_model_v1 if version == 1 else save_model)(make_trainer(kind, **params)(toy[0]), str(path))
    if version == 2:  # the last value of the last array
        path.write_bytes(path.read_bytes()[:-8] + np.array([np.nan], dtype="<f8").tobytes())
    else:  # the first value of the first array
        doc = json.loads(path.read_bytes())
        array = next(v for v in doc["payload"].values() if isinstance(v, dict))
        values = np.frombuffer(base64.b64decode(array["data"]), dtype="<f8").copy()
        values[0] = np.inf
        array["data"] = base64.b64encode(values.tobytes()).decode("ascii")
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")
    with pytest.raises(DataError, match="not finite"):
        load_model(str(path))


def test_failed_save_leaves_the_old_model_file(toy, tmp_path, monkeypatch):
    d, _ = toy
    path = tmp_path / "m.json"
    save_model(make_trainer("knn", k=1)(d), str(path))
    before = path.read_bytes()

    def disk_full(fd):
        raise OSError("no space left on device")

    monkeypatch.setattr(os, "fsync", disk_full)
    with pytest.raises(OSError, match="no space"):
        save_model(make_trainer("knn", k=3)(d), str(path))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["m.json"]


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{}")
    with pytest.raises(DataError):
        load_model(str(path))
    path.write_text("not json")
    with pytest.raises(DataError):
        load_model(str(path))


def test_the_kind_table_holds_the_four_kinds_in_trainer_order():
    assert tuple(io.MODEL_CLASSES) == MODEL_KINDS


def test_a_later_model_subclass_does_not_take_over_its_kind(toy, tmp_path):
    d, queries = toy
    path = tmp_path / "knn.model"
    save_model(make_trainer("knn", k=3)(d), str(path))
    before = load_model(str(path))

    class Wrapper(Model):
        kind = "knn"

    loaded = load_model(str(path))
    assert type(loaded) is KnnModel
    np.testing.assert_array_equal(loaded.rank_classes_many(queries), before.rank_classes_many(queries))


def test_a_kind_outside_the_table_is_refused_though_a_model_class_carries_it(toy, tmp_path):
    d, _ = toy
    path = tmp_path / "oracle.model"
    save_model(make_trainer("knn", k=1)(d), str(path))
    line, _, data = path.read_bytes().partition(b"\n")
    path.write_bytes(line.replace(b'"kind":"knn"', b'"kind":"oracle"') + b"\n" + data)

    class Oracle(Model):
        kind = "oracle"

    with pytest.raises(DataError, match="unknown model kind 'oracle'"):
        load_model(str(path))


def test_rank_by_orders_by_its_keys_then_by_class_index():
    # Small integer keys, so most classes tie on at least one of them.
    rng = np.random.default_rng(5)
    first, second = rng.integers(0, 3, size=(2, 40, 7))
    ranked = rank_by(first, -second)
    for row, (a, b) in enumerate(zip(first, second)):
        expected = sorted(range(7), key=lambda c: (a[c], -b[c], c))
        assert ranked[row].tolist() == expected
        assert rank_by(a, -b).tolist() == expected
