"""Saved model files of every kind, truncated, with base64 characters
flipped, shapes edited, or keys dropped or retyped: `load_model` either
returns a model or raises DataError, never another exception."""

import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perfprint.classifiers import load_model, make_trainer, save_model
from perfprint.classifiers.base import Model
from perfprint.errors import DataError

from helpers import random_dataset

# derandomize keeps the examples fixed from run to run.
PROPERTY = settings(derandomize=True, database=None, max_examples=300, deadline=None)

KINDS_AND_PARAMS = {
    "knn": {"k": 3},
    "tree": {"min_parent": 4},
    "svm": {},
    "net": {"seed": 2, "max_iterations": 3, "hidden1": 4, "hidden2": 3},
}
# Values of every JSON type, for a key whose value is retyped or a shape entry.
JSON_VALUES = [None, True, 0, 1, -1, 2, 3, 1.5, -0.0, 1e300, 10**20, "", "x", "AAAA", [], [1],
               [[0, 1]], {}, {"shape": [1], "data": "AAAAAAAAAAA="}]
FLIPPED = st.sampled_from(list("A/+=9z") + ["!", " ", "-", "_", "é", '"', "\\", "\x00", "\u2028"])


@pytest.fixture(scope="module")
def saved():
    d = random_dataset(np.random.default_rng(79), 3, 5, 4, spread=6.0)
    texts = {}
    with tempfile.TemporaryDirectory() as tmp:
        for kind, params in KINDS_AND_PARAMS.items():
            path = os.path.join(tmp, kind)
            save_model(make_trainer(kind, **params)(d), path, provenance={"train_data": "d.csv"})
            with open(path) as fh:
                texts[kind] = fh.read()
    return texts


def _paths(value, prefix=()):
    """Every key path into a parsed JSON document, outermost first."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def corrupted(draw, text):
    doc = json.loads(text)
    arrays = _base64_texts(doc)  # a tree has none
    mutation = draw(st.sampled_from(["truncate", "drop", "retype"] + ["flip", "shape"] * bool(arrays)))
    if mutation == "truncate":
        return text[:draw(st.integers(0, len(text) - 1))]
    if mutation == "flip":
        spans = [(m, m + len(data)) for data in arrays for m in [text.index('"' + data + '"') + 1] if data]
        chars = list(text)
        for _ in range(draw(st.integers(1, 3))):
            start, end = draw(st.sampled_from(spans))
            chars[draw(st.integers(start, end - 1))] = draw(FLIPPED)
        return "".join(chars)
    if mutation == "shape":
        shape = draw(st.sampled_from([p for p in _paths(doc) if p[-1] == "shape"]))
        entries = _at(doc, shape)
        if entries and draw(st.booleans()):
            entries[draw(st.integers(0, len(entries) - 1))] = draw(st.sampled_from(JSON_VALUES))
        else:
            _at(doc, shape[:-1])[shape[-1]] = draw(st.lists(st.integers(-2, 12), max_size=3))
    else:
        path = draw(st.sampled_from(list(_paths(doc))))
        parent = _at(doc, path[:-1])
        if mutation == "drop":
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(st.sampled_from(JSON_VALUES))
    return json.dumps(doc)


def _base64_texts(doc):
    return [value["data"] for value in doc["payload"].values()
            if isinstance(value, dict) and "data" in value]


@PROPERTY
@given(data=st.data())
@pytest.mark.parametrize("kind", KINDS_AND_PARAMS)
def test_a_corrupted_model_file_loads_or_raises_data_error(saved, kind, data):
    text = data.draw(corrupted(saved[kind]))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        try:
            model = load_model(path)
        except DataError:
            return
    assert isinstance(model, Model) and model.kind == kind
    # What loads can rank rows of its own width, as `perfprint evaluate` does.
    width = model.n_features if model.n_features is not None else 4
    try:
        model.check_width(width)
    except DataError:  # a tree splitting on a feature beyond `width`
        return
    rankings = model.rank_classes_many(np.zeros((2, width)))
    assert sorted(rankings[0]) == list(range(model.n_classes))


@pytest.mark.parametrize("kind", KINDS_AND_PARAMS)
def test_a_model_file_that_is_not_utf8_raises_data_error(saved, kind, tmp_path):
    path = tmp_path / "m.json"
    raw = saved[kind].encode()
    path.write_bytes(raw[:40] + b"\xff\xfe" + raw[40:])
    with pytest.raises(DataError, match="malformed model file"):
        load_model(str(path))
