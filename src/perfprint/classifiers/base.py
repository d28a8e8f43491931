"""Uniform train/predict/top-k contract shared by all four classifiers.

Every model ranks the full class list; predict(x) is predict_topk(x, 1)[0]
by construction, and predict_topk(x, N) is a permutation of the classes.
Every model orders its classes through `rank_by`, the one home of the
tie-break: ties go to the lower class index (classes are sorted, so indices
are stable across runs).

A model kind lives in one module. Its class implements one batch ranking
method, `rank_classes_many(X)`, and owns the payload of its model file:
`to_payload()` gives it as JSON values and float64 arrays, and the
classmethod `from_payload(classes, payload, hyperparams, seed)` reads it
back, with each array as a fresh, writable float64 array. How training
went (solver steps, loss histories, split gains) is kept apart from the
payload: `diagnostics()` gives it as JSON values, which ranking never
reads, and `restore_diagnostics(diagnostics)` puts a saved copy back.

Every trainer starts with `training_arrays`, which refuses a set it cannot
train on and reads its classes, feature matrix and label indices once.
"""

from __future__ import annotations

import base64

import numpy as np

from ..errors import DataError


class Model:
    kind = "base"

    def __init__(self, classes, seed=None, hyperparams=None):
        self.classes = list(classes)
        self.seed = seed
        self.hyperparams = dict(hyperparams or {})

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    def rank_classes_many(self, X: np.ndarray) -> np.ndarray:
        """(n, N) matrix of full rankings of class indices, best first, one
        row per row of X. Subclasses implement."""
        raise NotImplementedError

    @property
    def n_features(self) -> int | None:
        """The feature width the model was trained on, where it needs rows
        of exactly that width."""
        return None

    def check_width(self, width: int):
        """Raise DataError when rows `width` features wide cannot be ranked."""
        if self.n_features is not None and width != self.n_features:
            raise DataError(
                f"{self.kind} model takes {self.n_features} features per row, data has {width}"
            )

    def rank_classes(self, x: np.ndarray) -> np.ndarray:
        return self.rank_classes_many(np.asarray(x, dtype=np.float64)[None, :])[0]

    def predict_topk(self, x, g: int) -> list[str]:
        if g < 1:
            raise DataError(f"top-k size must be >= 1, got {g}")
        return [self.classes[i] for i in self.rank_classes(x)[:g]]

    def predict(self, x) -> str:
        return self.predict_topk(x, 1)[0]

    def diagnostics(self) -> dict:
        """How training went, as deterministic JSON values."""
        return {}

    def restore_diagnostics(self, diagnostics: dict):
        """Put back what `diagnostics()` gave; DataError if it does not fit."""
        if diagnostics != {}:
            raise DataError(f"{self.kind} models have no diagnostics")


def rank_by(*keys) -> np.ndarray:
    """Class indices along the last axis, ordered by `keys` (arrays of one
    shape; most significant first, each ascending), ties to the lower index:
    lexsort's sort is stable, so classes equal in every key keep their
    index order."""
    return np.lexsort(keys[::-1], axis=-1)


def _array(value) -> np.ndarray:
    """A payload entry that must be an array."""
    if not isinstance(value, np.ndarray):
        raise DataError(f"expected an array, found {type(value).__name__}")
    return value


def _floats(value) -> list[float]:
    """A JSON list of numbers, as floats."""
    if not (isinstance(value, list) and all(type(v) in (int, float) for v in value)):
        raise DataError("expected a list of numbers")
    return [float(v) for v in value]


def _decode(obj: dict) -> np.ndarray:
    """A version-1 file's array: its shape and base64-packed little-endian
    bytes."""
    raw = base64.b64decode(obj["data"])
    return np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(obj["shape"])


def training_arrays(train, min_classes: int = 1):
    """The prologue of every trainer: a DataError for an empty dataset or
    one with fewer than `min_classes` classes, else (classes, X, y) with
    the class list, the (n, d) feature matrix and each row's class index,
    each read from `train` once."""
    if not len(train):
        raise DataError("cannot train on an empty dataset")
    classes = train.classes
    if len(classes) < min_classes:
        raise DataError(f"need at least {min_classes} classes, dataset has {len(classes)}")
    return classes, train.feature_matrix(), train.label_indices(classes)
