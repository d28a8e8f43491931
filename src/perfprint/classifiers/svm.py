"""Linear multi-class SVM via one-versus-one decomposition.

Each class pair gets a linear soft-margin classifier minimizing
0.5*||w||^2 + C * sum(hinge). The bias rides along as an augmented constant
feature (so it is regularized too, and the dual has simple box constraints
only). Each pair's dual, min 0.5*a'Qa - sum(a) over 0 <= a <= C, is solved
by a primal active-set method whose result is certified against `tol`;
a pair it cannot certify within its iteration cap keeps the result it
reached, and its stats say by how much it misses tol. `solve_pair` returns
the plain 4-tuple (w, b, alpha, SolveStats); no dual objective is returned.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

import numpy as np

from ..errors import ConfigError, DataError
from .base import Model, _array, _floats, rank_by, training_arrays

DEFAULT_TOL = 1e-3
DEFAULT_MAX_PASSES = 1000


class SolveStats(NamedTuple):
    """How one pair was solved: `steps` the active-set iterations,
    `violation` the largest projected-gradient entry of the returned
    alpha."""

    steps: int
    violation: float


def _with_ones(X):
    """X with a constant 1 column, the augmented bias feature."""
    return np.hstack([X, np.ones((X.shape[0], 1))])


def _violation(g, alpha, c) -> float:
    """The largest projected-gradient entry for gradient g = Q @ alpha - 1."""
    pg = np.where(alpha <= 0.0, np.minimum(g, 0.0), np.where(alpha >= c, np.maximum(g, 0.0), g))
    return float(np.max(np.abs(pg), initial=0.0))


def solve_pair(X, y, c: float, tol: float = DEFAULT_TOL, max_passes: int = DEFAULT_MAX_PASSES,
               q=None):
    """Solve one binary problem; X: (n, d) features, y: +/-1 labels.

    Returns the plain 4-tuple (w, b, alpha, SolveStats(steps, violation));
    no dual objective is returned. The active-set method runs for at most
    min(10 * (n + 1), max_passes) iterations; the pair is certified when
    every projected-gradient entry, recomputed from the result, is below
    `tol`. An uncertified pair keeps the alpha the solver stopped at; its
    stats give the violation.

    `q` is the dual's Q, (xa @ xa.T) * outer(y, y) for X with a constant 1
    column appended; it is computed when not given.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    xa = _with_ones(X)
    if q is None:
        q = (xa @ xa.T) * np.outer(y, y)
    alpha, steps = _active_set(q, c, tol, min(10 * (len(y) + 1), max_passes))
    q_alpha = q @ alpha
    w_aug = xa.T @ (alpha * y)
    w, b = w_aug[:-1], float(w_aug[-1])
    # The larger of the violations from Q @ alpha and from the returned w
    # and b, so a result below tol is below it however the gradient is
    # recomputed.
    violation = max(_violation(q_alpha - 1.0, alpha, c), _violation(y * (X @ w + b) - 1.0, alpha, c))
    return w, b, alpha, SolveStats(steps, violation)


def _newton_direction(q_ff, g_f):
    """A descent direction on the free set, with its slope g'p and
    curvature p'Qp: the Newton step when Q_FF is nonsingular; otherwise the
    part of -g_F in Q_FF's null space (zero curvature, so the objective
    falls until a bound), or the pseudo-inverse step when -g_F has no such
    part."""
    try:
        p = np.linalg.solve(q_ff, -g_f)
    except np.linalg.LinAlgError:
        pass
    else:
        slope, curvature = float(g_f @ p), float(p @ (q_ff @ p))
        # An exact Newton step has p'Qp = -g'p; a singular Q_FF breaks that.
        if curvature > 0.0 and abs(curvature + slope) <= 1e-6 * -slope:
            return p, slope, curvature
    lam, v = np.linalg.eigh(q_ff)
    # Eigenvalues within rounding of zero span the null space; a part of
    # -g_F there smaller than 1e-8 of it is rounding too.
    null = lam <= lam[-1] * g_f.size * np.finfo(np.float64).eps * 8
    coef = v.T @ -g_f
    if np.linalg.norm(coef[null]) > 1e-8 * np.linalg.norm(g_f):
        p = v[:, null] @ coef[null]
    else:
        p = v[:, ~null] @ (coef[~null] / lam[~null])
    return p, float(g_f @ p), float(p @ (q_ff @ p))


def _active_set(q, c, tol, max_iterations):
    """Minimize 0.5*a'Qa - sum(a) over 0 <= a <= c from a = 0 with every
    coordinate on its lower bound. Returns (alpha, iterations).

    Each iteration either steps on the free set (the exact minimizer along
    the direction, or up to the first bound it meets, which then holds that
    coordinate) or, once the free set is minimized, releases the bound
    coordinate whose multiplier breaks tol the most. It stops when none
    does, or after max_iterations; the caller certifies alpha.
    """
    n = q.shape[0]
    alpha = np.zeros(n)
    free = np.zeros(n, dtype=bool)
    minimized = True  # over the (empty) free set
    iteration = 0
    for iteration in range(1, max_iterations + 1):
        g = q @ alpha - 1.0
        f = np.flatnonzero(free)
        if minimized or not f.size or np.abs(g[f]).max() < tol:
            # Multipliers: -g on the lower bound, g on the upper.
            broken = np.where(alpha <= 0.0, -g, g)
            broken[f] = -np.inf
            i = int(np.argmax(broken))
            if broken[i] < tol:
                return alpha, iteration
            free[i] = True
            minimized = False
            continue
        p, slope, curvature = _newton_direction(q[np.ix_(f, f)], g[f])
        if not slope < 0.0:  # no descent left in floating point
            minimized = True
            continue
        step = -slope / curvature if curvature > 0.0 else np.inf
        a_f = alpha[f]
        with np.errstate(divide="ignore", invalid="ignore"):
            room = np.where(p < 0.0, -a_f / p, np.where(p > 0.0, (c - a_f) / p, np.inf))
        j = int(np.argmin(room))
        minimized = step < room[j]
        a_f = np.clip(a_f + min(step, room[j]) * p, 0.0, c)
        if not minimized:
            a_f[j] = 0.0 if p[j] < 0.0 else c
        alpha[f] = a_f
        free[f[(a_f <= 0.0) | (a_f >= c)]] = False
    return alpha, iteration


class LinearSvmModel(Model):
    kind = "svm"

    def __init__(
        self,
        classes,
        pairs,
        weights,
        biases,
        hyperparams=None,
        seed=None,
        solve_stats=(),
    ):
        super().__init__(classes, seed=seed, hyperparams=hyperparams)
        self.pairs = [tuple(p) for p in pairs]  # (lower idx, higher idx) per model
        self._lower, self._higher = np.array(self.pairs, dtype=np.int64).reshape(-1, 2).T
        self.weights = np.asarray(weights, dtype=np.float64)  # (n_pairs, d)
        self.biases = np.asarray(biases, dtype=np.float64)
        # One SolveStats per pair from training, or none; saved as the
        # model file's diagnostics.
        self.solve_stats = list(solve_stats)

    @property
    def n_features(self) -> int:
        return self.weights.shape[1]

    def to_payload(self) -> dict:
        return {
            "pairs": [list(p) for p in self.pairs],
            "weights": self.weights,
            "biases": self.biases,
        }

    @classmethod
    def from_payload(cls, classes, payload, hyperparams, seed):
        pairs, n_classes = payload["pairs"], len(classes)
        if not isinstance(pairs, list) or not all(
            isinstance(p, list) and len(p) == 2 and all(type(i) is int for i in p)
            and 0 <= p[0] < p[1] < n_classes
            for p in pairs
        ):
            raise DataError(f"svm pairs must be class indices [i, j] with i < j < {n_classes}")
        weights, biases = _array(payload["weights"]), _array(payload["biases"])
        if weights.ndim != 2 or weights.shape[0] != len(pairs) or biases.shape != (len(pairs),):
            raise DataError(
                f"svm has {len(pairs)} pairs but weights of shape {weights.shape} "
                f"and biases of shape {biases.shape}"
            )
        return cls(classes, pairs, weights, biases, hyperparams=hyperparams, seed=seed)

    def diagnostics(self) -> dict:
        """Each pair's active-set steps and final violation, in pair order."""
        return {
            "steps": [s.steps for s in self.solve_stats],
            "violation": [s.violation for s in self.solve_stats],
        }

    def restore_diagnostics(self, diagnostics: dict):
        steps, violation = diagnostics["steps"], _floats(diagnostics["violation"])
        if not (isinstance(steps, list) and all(type(s) is int and s >= 0 for s in steps)
                and len(steps) == len(violation) in (0, len(self.pairs))):
            raise DataError(f"svm diagnostics need steps and violations for all {len(self.pairs)} "
                            "pairs or for none")
        self.solve_stats = [SolveStats(s, v) for s, v in zip(steps, violation)]

    def solve_summary(self) -> str:
        """How training solved the pairs: how many were certified against
        tol, and how many ended uncertified within max_passes."""
        tol, max_passes = self.hyperparams["tol"], self.hyperparams["max_passes"]
        capped = sum(s.violation >= tol for s in self.solve_stats)
        return (
            f"svm pairs: {len(self.solve_stats) - capped} certified, {capped} uncertified "
            f"at max_passes {max_passes} (tol {tol:g})"
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
        return rank_by(-votes, -magnitude)


def train_svm(
    train,
    c: float = 1.0,
    tol: float = DEFAULT_TOL,
    max_passes: int = DEFAULT_MAX_PASSES,
) -> LinearSvmModel:
    """Fit all N*(N-1)/2 pairwise linear classifiers. The model keeps how
    each pair was solved as `solve_stats`, one SolveStats per pair."""
    classes, X, y = training_arrays(train, min_classes=2)
    if c <= 0:
        raise ConfigError(f"C must be > 0, got {c}")
    pairs = list(itertools.combinations(range(len(classes)), 2))
    xa = _with_ones(X)
    with np.errstate(over="ignore", invalid="ignore"):
        gram = xa @ xa.T  # one product for all pairs, sliced per pair
    if not np.isfinite(gram).all():
        raise DataError("svm: the features must be finite and small enough that their "
                        "squares are")
    weights = np.zeros((len(pairs), X.shape[1]))
    biases = np.zeros(len(pairs))
    stats = []
    for p, (ci, cj) in enumerate(pairs):
        mask = (y == ci) | (y == cj)
        labels = np.where(y[mask] == ci, 1.0, -1.0)  # +1 is the lower index
        rows = np.flatnonzero(mask)
        q = gram[np.ix_(rows, rows)] * np.outer(labels, labels)
        weights[p], biases[p], _, pair_stats = solve_pair(X[mask], labels, c, tol=tol,
                                                          max_passes=max_passes, q=q)
        stats.append(pair_stats)
    return LinearSvmModel(
        classes=classes,
        pairs=pairs,
        weights=weights,
        biases=biases,
        hyperparams={"C": float(c), "tol": float(tol), "max_passes": int(max_passes)},
        solve_stats=stats,
    )
