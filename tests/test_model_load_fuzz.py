"""Saved model files of every kind, corrupted: `load_model` either returns
a model or raises DataError, never another exception.

Version-1 files (from the reference copy of the old writer) are truncated,
have base64 characters flipped, shapes edited, or keys dropped or retyped.
Version-2 files are truncated, have trailing bytes, data bytes flipped,
array offsets, shapes or dtypes edited, or envelope keys dropped or
retyped; a broken layout is refused before any array is allocated."""

import json
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perfprint.classifiers import load_model, make_trainer, save_model
from perfprint.classifiers.base import Model
from perfprint.errors import DataError

from helpers import random_dataset
from oracles import save_model_v1

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
def models():
    d = random_dataset(np.random.default_rng(79), 3, 5, 4, spread=6.0)
    return {kind: make_trainer(kind, **params)(d) for kind, params in KINDS_AND_PARAMS.items()}


def _file_bytes(write, model):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m")
        write(model, path, provenance={"train_data": "d.csv"})
        with open(path, "rb") as fh:
            return fh.read()


@pytest.fixture(scope="module")
def saved(models):
    """Version-1 texts, by kind."""
    return {kind: _file_bytes(save_model_v1, m).decode() for kind, m in models.items()}


@pytest.fixture(scope="module")
def saved_v2(models):
    """Version-2 files, by kind."""
    return {kind: _file_bytes(save_model, m) for kind, m in models.items()}


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


# Values for a dtype, and shape entries beyond any file's size.
DTYPES = ["<f4", ">f8", "f8", "<i8", "float64", "", None, 8, ["<f8"]]
HUGE = [10**6, 2**31, 2**62, 2**63, 10**20]


@st.composite
def corrupted_v2(draw, raw):
    line, _, data = raw.partition(b"\n")
    doc = json.loads(line)
    arrays = [p for p in _paths(doc) if len(p) == 2 and p[0] == "payload"
              and isinstance(_at(doc, p), dict)]
    mutation = draw(st.sampled_from(["truncate", "trail", "drop", "retype"]
                                    + ["flip", "offset", "shape", "dtype"] * bool(arrays)))
    if mutation == "truncate":
        return raw[:draw(st.integers(0, len(raw) - 1))]
    if mutation == "trail":
        return raw + draw(st.binary(min_size=1, max_size=16))
    if mutation == "flip":
        flipped = bytearray(data)
        for _ in range(draw(st.integers(1, 3))):
            flipped[draw(st.integers(0, len(data) - 1))] = draw(st.integers(0, 255))
        return line + b"\n" + bytes(flipped)
    if mutation in ("offset", "shape", "dtype"):
        entry = _at(doc, draw(st.sampled_from(arrays)))
        if mutation == "offset":
            entry["offset"] = draw(st.integers(-16, len(data) + 16) | st.sampled_from(JSON_VALUES))
        elif mutation == "dtype":
            entry["dtype"] = draw(st.sampled_from(DTYPES))
        elif entry["shape"] and draw(st.booleans()):
            entries = entry["shape"]
            entries[draw(st.integers(0, len(entries) - 1))] = draw(st.sampled_from(JSON_VALUES + HUGE))
        else:
            entry["shape"] = draw(st.lists(st.integers(-2, 12) | st.sampled_from(HUGE), max_size=3))
    else:
        path = draw(st.sampled_from(list(_paths(doc))))
        parent = _at(doc, path[:-1])
        if mutation == "drop":
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(st.sampled_from(JSON_VALUES))
    return json.dumps(doc).encode() + b"\n" + data


def _load_or_data_error(raw: bytes, kind: str):
    """Load `raw` as a model file: DataError passes; a model must be of
    `kind` and rank rows of its own width, as `perfprint evaluate` does."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.json")
        with open(path, "wb") as fh:
            fh.write(raw)
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


@PROPERTY
@given(data=st.data())
@pytest.mark.parametrize("kind", KINDS_AND_PARAMS)
def test_a_corrupted_model_file_loads_or_raises_data_error(saved, kind, data):
    _load_or_data_error(data.draw(corrupted(saved[kind])).encode(), kind)


@PROPERTY
@given(data=st.data())
@pytest.mark.parametrize("kind", KINDS_AND_PARAMS)
def test_a_corrupted_v2_model_file_loads_or_raises_data_error(saved_v2, kind, data):
    _load_or_data_error(data.draw(corrupted_v2(saved_v2[kind])), kind)


def _edit(raw: bytes, edit) -> bytes:
    """`raw` with `edit(doc, data)` applied to its envelope and data section;
    `edit` returns the new data section."""
    line, _, data = raw.partition(b"\n")
    doc = json.loads(line)
    data = edit(doc, data)
    return json.dumps(doc).encode() + b"\n" + data


def _last_array(doc):
    return [v for v in doc["payload"].values() if isinstance(v, dict)][-1]


def _set(key, value):
    def edit(doc, data):
        _last_array(doc)[key] = value(_last_array(doc)[key]) if callable(value) else value
        return data
    return edit


# Every layout break below must be refused, never loaded.
BROKEN_LAYOUTS = {
    "data-one-byte-short": lambda doc, data: data[:-1],
    "data-one-array-short": lambda doc, data: data[:-8],
    "no-data": lambda doc, data: b"",
    "trailing-byte": lambda doc, data: data + b"\0",
    "offset-plus-8": _set("offset", lambda offset: offset + 8),
    "offset-minus-8": _set("offset", lambda offset: offset - 8),
    "offset-as-float": _set("offset", float),
    "shape-plus-1": _set("shape", lambda shape: [shape[0] + 1] + shape[1:]),
    "shape-negative": _set("shape", lambda shape: [-1] + shape),
    "shape-as-float": _set("shape", lambda shape: [float(n) for n in shape]),
    "shape-huge": _set("shape", lambda shape: [2**62, 2**62]),
    "dtype-f4": _set("dtype", "<f4"),
    "dtype-big-endian": _set("dtype", ">f8"),
    "extra-key": _set("order", "C"),
    "diagnostics-dropped": lambda doc, data: (doc.pop("diagnostics"), data)[1],
    "version-3": lambda doc, data: (doc.update(version=3), data)[1],
}


@pytest.mark.parametrize("kind", ["knn", "svm", "net"])
@pytest.mark.parametrize("name", BROKEN_LAYOUTS)
def test_a_broken_v2_layout_raises_data_error(saved_v2, tmp_path, kind, name):
    path = tmp_path / "m.json"
    path.write_bytes(_edit(saved_v2[kind], BROKEN_LAYOUTS[name]))
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}: "):
        load_model(str(path))


def test_a_huge_shape_is_refused_before_allocation(saved_v2, tmp_path, monkeypatch):
    path = tmp_path / "m.json"
    path.write_bytes(_edit(saved_v2["knn"], _set("shape", lambda shape: [10**9, 10**9])))

    def no_allocation(*args, **kwargs):
        raise AssertionError("allocated an array")

    monkeypatch.setattr(np, "empty", no_allocation)
    with pytest.raises(DataError, match="the arrays take 8000000000000000000 bytes"):
        load_model(str(path))


def test_a_v2_file_of_every_kind_loads(saved_v2, tmp_path):
    for kind, raw in saved_v2.items():
        (tmp_path / kind).write_bytes(raw)
        assert load_model(str(tmp_path / kind)).kind == kind


@pytest.mark.parametrize("kind", KINDS_AND_PARAMS)
def test_a_model_file_that_is_not_utf8_raises_data_error(saved, saved_v2, kind, tmp_path):
    path = tmp_path / "m.json"
    for raw in (saved[kind].encode(), saved_v2[kind]):
        path.write_bytes(raw[:40] + b"\xff\xfe" + raw[40:])
        with pytest.raises(DataError, match="malformed model file"):
            load_model(str(path))
