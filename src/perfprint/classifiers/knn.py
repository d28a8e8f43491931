"""k-nearest-neighbor classifier (lazy learner, Euclidean metric)."""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError, DataError
from .base import Model, _array, rank_by, training_arrays


class KnnModel(Model):
    kind = "knn"

    def __init__(self, classes, train_x, train_y, k, seed=None):
        super().__init__(classes, seed=seed, hyperparams={"k": int(k)})
        # A read-only view, so the squared norms cached from it cannot go
        # stale; the norms are derived state and never saved.
        self.train_x = np.asarray(train_x, dtype=np.float64).view()
        self.train_x.flags.writeable = False
        with np.errstate(over="ignore", invalid="ignore"):
            self._train_sq = (self.train_x * self.train_x).sum(axis=1)
        # An overflowing norm makes every distance to its row nan or inf,
        # and the ranking silently wrong. Training and load_model both
        # build through here, so both refuse it.
        if not np.isfinite(self._train_sq).all():
            raise DataError("knn: the training features must be finite and small enough "
                            "that their squares are")
        self.train_y = np.asarray(train_y, dtype=np.int64)
        self.k = int(k)

    @property
    def n_features(self) -> int:
        return self.train_x.shape[1]

    def to_payload(self) -> dict:
        return {"k": self.k, "train_x": self.train_x, "train_y": self.train_y.tolist()}

    @classmethod
    def from_payload(cls, classes, payload, hyperparams, seed):
        train_x, train_y, k = _array(payload["train_x"]), payload["train_y"], payload["k"]
        n_classes = len(classes)
        if not (isinstance(train_y, list) and train_y
                and all(type(c) is int and 0 <= c < n_classes for c in train_y)):
            raise DataError(f"knn train_y must be a non-empty list of class indices below {n_classes}")
        if not (train_x.ndim == 2 and train_x.shape[0] == len(train_y)
                and type(k) is int and 1 <= k <= len(train_y)):
            raise DataError(f"knn has {len(train_y)} labels, k {k!r} and training rows of shape "
                            f"{train_x.shape}")
        return cls(classes, train_x, np.array(train_y, dtype=np.int64), k, seed=seed)

    def _distances(self, X: np.ndarray) -> np.ndarray:
        # ||a-b||^2 = |a|^2 + |b|^2 - 2ab, clipped against tiny negatives.
        # np.clip(sq, 0.0, None) is this same maximum, behind a slower call.
        with np.errstate(over="ignore", invalid="ignore"):
            sq = (
                (X * X).sum(axis=1)[:, None]
                + self._train_sq[None, :]
                - 2.0 * (X @ self.train_x.T)
            )
            return np.sqrt(np.maximum(sq, 0.0))

    def rank_classes_many(self, X: np.ndarray) -> np.ndarray:
        """Voted classes first by (votes, mean distance, class index); the
        rest by their nearest member's distance.

        Equidistant training points are taken in class-index order, so a
        duplicate feature vector with two labels resolves to the lower class
        index.
        """
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        dists = self._distances(X)
        if not np.isfinite(dists).all():
            raise DataError("knn: a query's distances are not finite; its features must be "
                            "finite and small enough that their squares are")
        rows = np.arange(self.train_x.shape[0])
        out = np.empty((X.shape[0], self.n_classes), dtype=np.int64)
        for q in range(X.shape[0]):
            d = dists[q]
            order = np.lexsort((rows, self.train_y, d))
            nearest = order[: self.k]
            nearest_y = self.train_y[nearest]
            votes = np.bincount(nearest_y, minlength=self.n_classes)
            dist_sum = np.bincount(nearest_y, weights=d[nearest], minlength=self.n_classes)
            class_min = np.full(self.n_classes, np.inf)
            np.minimum.at(class_min, self.train_y, d)
            distance = np.where(votes > 0, dist_sum / np.maximum(votes, 1), class_min)
            out[q] = rank_by(votes == 0, -votes, distance)
        return out


def train_knn(train, k: int = 1) -> KnnModel:
    """Store the training set verbatim; k defaults to the single nearest
    neighbor."""
    classes, X, y = training_arrays(train)
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    if k > len(y):
        raise ConfigError(f"k={k} exceeds training set size {len(y)}")
    return KnnModel(classes=classes, train_x=X, train_y=y, k=k)
