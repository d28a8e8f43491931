"""Uniform contract shared by all four model kinds, plus persistence."""

import os

import numpy as np
import pytest

from perfprint.classifiers import io, load_model, make_trainer, save_model
from perfprint.dataset import write_json
from perfprint.errors import DataError

from helpers import build_dataset, random_dataset

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
    assert a.predict_many(queries) == b.predict_many(queries)


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
    assert loaded.predict_topk_many(queries, loaded.n_classes) == model.predict_topk_many(
        queries, model.n_classes
    )


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
    d, _ = toy
    labels = [ODD_TEXT[i % 4] for i in range(len(d))]
    model = make_trainer(kind, **params)(build_dataset(d.feature_matrix(), labels))
    provenance = {"train_data": ODD_TEXT, "rows": [1.5, None, True, -0.0], ODD_TEXT[4]: {}}
    save_model(model, str(tmp_path / "saved.json"), provenance=provenance)
    write_json(str(tmp_path / "written.json"), {
        "format": io.FILE_FORMAT,
        "version": io.FILE_VERSION,
        "kind": model.kind,
        "classes": model.classes,
        "seed": model.seed,
        "hyperparams": model.hyperparams,
        "provenance": provenance,
        "payload": model.to_payload(),
    })
    assert (tmp_path / "saved.json").read_bytes() == (tmp_path / "written.json").read_bytes()
    assert load_model(str(tmp_path / "saved.json")).classes == sorted(set(labels))


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
