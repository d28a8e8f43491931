"""Linear multi-class SVM via one-versus-one decomposition.

Each class pair gets a linear soft-margin classifier minimizing
0.5*||w||^2 + C * sum(hinge), solved in the dual by deterministic
coordinate ascent. The bias rides along as an augmented constant feature
(so it is regularized too, and the dual has simple box constraints only).
"""

from __future__ import annotations

import itertools
import time

import numpy as np

from ..errors import ConfigError
from .base import Model, _decode, _encode, check_trainable

DEFAULT_TOL = 1e-3
DEFAULT_MAX_PASSES = 1000


def solve_pair(X, y, c: float, tol: float = DEFAULT_TOL, max_passes: int = DEFAULT_MAX_PASSES):
    """Dual coordinate ascent for one binary problem.

    X: (n, d) features, y: +/-1 labels. Returns (w, b, alpha, dual_objective).
    Coordinates are visited in fixed index order; the solver stops when the
    largest projected-gradient violation in a full pass drops below `tol`
    or after `max_passes` passes.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = X.shape[0]
    xa = np.hstack([X, np.ones((n, 1))])
    q = (xa @ xa.T) * np.outer(y, y)
    # The sweep reads and writes single coordinates, so alpha and the
    # diagonal are Python floats (the same IEEE doubles, without numpy's
    # per-scalar overhead); only the running Q @ alpha stays a vector.
    q_rows = list(q)
    q_diag = np.diag(q).tolist()
    alpha = [0.0] * n
    q_alpha = np.zeros(n)  # running Q @ alpha

    for _ in range(max_passes):
        worst = 0.0
        for i in range(n):
            g = q_alpha.item(i) - 1.0
            a = alpha[i]
            if a <= 0.0:
                pg = min(g, 0.0)
            elif a >= c:
                pg = max(g, 0.0)
            else:
                pg = g
            if abs(pg) > worst:
                worst = abs(pg)
            if abs(pg) > 1e-14:
                new_a = min(max(a - g / q_diag[i], 0.0), c)
                delta = new_a - a
                if delta != 0.0:
                    alpha[i] = new_a
                    q_alpha += delta * q_rows[i]
        if worst < tol:
            break

    alpha = np.array(alpha, dtype=np.float64)
    w_aug = xa.T @ (alpha * y)
    dual = float(alpha.sum() - 0.5 * (alpha @ q_alpha))
    return w_aug[:-1], float(w_aug[-1]), alpha, dual


def dual_objective(alpha, X, y) -> float:
    """Dual objective for given multipliers; used by oracle comparisons."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    alpha = np.asarray(alpha, dtype=np.float64)
    xa = np.hstack([X, np.ones((X.shape[0], 1))])
    v = xa.T @ (alpha * y)
    return float(alpha.sum() - 0.5 * (v @ v))


class LinearSvmModel(Model):
    kind = "svm"

    def __init__(
        self, classes, pairs, weights, biases, hyperparams=None, seed=None, train_seconds=0.0
    ):
        super().__init__(
            classes, seed=seed, hyperparams=hyperparams, train_seconds=train_seconds
        )
        self.pairs = [tuple(p) for p in pairs]  # (lower idx, higher idx) per model
        self._lower, self._higher = np.array(self.pairs, dtype=np.int64).reshape(-1, 2).T
        self.weights = np.asarray(weights, dtype=np.float64)  # (n_pairs, d)
        self.biases = np.asarray(biases, dtype=np.float64)

    @property
    def n_features(self) -> int:
        return self.weights.shape[1]

    def to_payload(self) -> dict:
        return {
            "pairs": [list(p) for p in self.pairs],
            "weights": _encode(self.weights),
            "biases": _encode(self.biases),
        }

    @classmethod
    def from_payload(cls, classes, payload, hyperparams, seed):
        return cls(
            classes,
            pairs=payload["pairs"],
            weights=_decode(payload["weights"]),
            biases=_decode(payload["biases"]),
            hyperparams=hyperparams,
            seed=seed,
        )

    def _vote_scores(self, X: np.ndarray):
        """(votes, magnitude), each (n, N): the pair classifiers won by each
        class, and the summed |decision value| of those wins."""
        decisions = X @ self.weights.T + self.biases  # (n, n_pairs)
        n, n_classes = X.shape[0], self.n_classes
        winners = np.where(decisions >= 0, self._lower, self._higher)  # ties to the lower index
        bins = (np.arange(n)[:, None] * n_classes + winners).ravel()
        # bincount adds in input order, so each class's magnitude is summed
        # in pair order from 0.0.
        votes = np.bincount(bins, minlength=n * n_classes).astype(np.float64)
        magnitude = np.bincount(bins, weights=np.abs(decisions).ravel(), minlength=n * n_classes)
        return votes.reshape(n, n_classes), magnitude.reshape(n, n_classes)

    def rank_classes_many(self, X: np.ndarray) -> np.ndarray:
        """Rank by vote count, then by summed |decision value| of the votes
        won, then by class index."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        votes, magnitude = self._vote_scores(X)
        idx = np.broadcast_to(np.arange(self.n_classes), votes.shape)
        return np.lexsort((idx, -magnitude, -votes), axis=-1)


def train_svm(
    train,
    c: float = 1.0,
    tol: float = DEFAULT_TOL,
    max_passes: int = DEFAULT_MAX_PASSES,
    seed=None,
) -> LinearSvmModel:
    """Fit all N*(N-1)/2 pairwise linear classifiers."""
    check_trainable(train, min_classes=2)
    if c <= 0:
        raise ConfigError(f"C must be > 0, got {c}")
    t0 = time.perf_counter()
    classes = train.classes
    X = train.feature_matrix()
    y = train.label_indices(classes)
    pairs = list(itertools.combinations(range(len(classes)), 2))
    weights = np.zeros((len(pairs), X.shape[1]))
    biases = np.zeros(len(pairs))
    for p, (ci, cj) in enumerate(pairs):
        mask = (y == ci) | (y == cj)
        labels = np.where(y[mask] == ci, 1.0, -1.0)  # +1 is the lower index
        w, b, _, _ = solve_pair(X[mask], labels, c, tol=tol, max_passes=max_passes)
        weights[p] = w
        biases[p] = b
    return LinearSvmModel(
        classes=classes,
        pairs=pairs,
        weights=weights,
        biases=biases,
        hyperparams={"C": float(c), "tol": float(tol), "max_passes": int(max_passes)},
        seed=seed,
        train_seconds=time.perf_counter() - t0,
    )
