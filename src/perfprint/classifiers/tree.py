"""Greedy binary decision tree with entropy-based splits.

Growth is best-first under a global split budget: the frontier node whose
best split removes the most weighted entropy is expanded next. Candidate
thresholds are midpoints between consecutive distinct sorted values of a
feature within the node.
"""

from __future__ import annotations

import heapq

import numpy as np

from ..errors import DataError
from .base import Model, _floats, check_floors, rank_by, training_arrays

_FEATURE_CHUNK = 128  # bounds the (n, chunk, classes) temporaries


def _entropy_terms(n: int) -> np.ndarray:
    """Flat table of entropy terms: entry t*(n+1) + c holds (c/t)*log2(c/t)
    for a count c out of a total t, both in 0..n (0 where c is 0).

    The entropy of a count vector is minus the sum of its terms. Summing
    terms gathered from the table over the class axis adds the same floats
    in the same order as computing them per node, so gains, ties and the
    chosen splits do not change.
    """
    c = np.arange(n + 1, dtype=np.float64)
    t = c[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        p = c / np.where(t > 0, t, 1.0)
        term = np.where(c > 0, p * np.log2(p), 0.0)
    return term.ravel()


def _split_threshold(lo: float, hi: float) -> float:
    """The midpoint of two consecutive distinct values, or `lo` where the
    midpoint rounds onto `hi` (adjacent doubles) or overflows, so that
    routing by x <= threshold separates them as the scored split did."""
    mid = (lo + hi) / 2.0
    return mid if lo <= mid < hi else lo


def best_split(X: np.ndarray, y: np.ndarray, n_classes: int, min_leaf: int = 1):
    """Exhaustive scan for the (feature, threshold) with maximal information
    gain; returns (gain, feature, threshold) or None when no valid split
    exists. Ties resolve to the lowest feature index, then lowest threshold.
    """
    n, n_features = X.shape
    if n < 2:
        return None
    parent_counts = np.bincount(y, minlength=n_classes)
    terms = _entropy_terms(n)
    h_parent = -float(terms[n * (n + 1) + parent_counts].sum())
    best = None
    n_left = np.arange(1, n, dtype=np.float64)[:, None]
    n_right = n - n_left
    # Row i of the cumulative counts splits after sorted row i: i+1 rows go
    # left, the rest right. Offsets pick each side's total in the table, so
    # right-hand indices are (right offset + parent counts) - left counts.
    n_left_rows = np.arange(1, n)[:, None, None]
    left_offset = n_left_rows * (n + 1)
    right_base = (n - n_left_rows) * (n + 1) + parent_counts
    for start in range(0, n_features, _FEATURE_CHUNK):
        cols = slice(start, min(start + _FEATURE_CHUNK, n_features))
        xc = X[:, cols]
        order = np.argsort(xc, axis=0, kind="stable")
        vals = np.take_along_axis(xc, order, axis=0)
        y_sorted = y[order]  # (n, chunk)
        onehot = y_sorted[:, :, None] == np.arange(n_classes)[None, None, :]
        left_counts = onehot.cumsum(axis=0, dtype=np.intp)[:-1]  # split after row i
        h_right = -terms[right_base - left_counts].sum(axis=-1)
        left_counts += left_offset
        h_left = -terms[left_counts].sum(axis=-1)
        child = (n_left * h_left + n_right * h_right) / n
        gain = h_parent - child
        valid = (vals[:-1] < vals[1:]) & (n_left >= min_leaf) & (n_right >= min_leaf)
        gain = np.where(valid, gain, -np.inf)
        # The first best row of each column, then the first best column.
        pos = gain.argmax(axis=0)
        col_best = gain[pos, np.arange(gain.shape[1])]
        j = int(col_best.argmax())
        g = col_best[j]
        if np.isfinite(g) and (best is None or g > best[0]):
            thr = _split_threshold(float(vals[pos[j], j]), float(vals[pos[j] + 1, j]))
            best = (float(g), start + j, thr)
    return best


class DecisionTreeModel(Model):
    kind = "tree"

    def __init__(self, classes, nodes, class_frequency, hyperparams=None, seed=None,
                 split_gains=()):
        super().__init__(classes, seed=seed, hyperparams=hyperparams)
        # nodes[i] is either {"counts": [int, ...]} (leaf) or
        # {"feature": int, "threshold": float, "left": i, "right": j}, as
        # the model file holds them; node 0 is the root, and children come
        # after their parent. Routing sends x[feature] <= threshold to the
        # left child.
        self.nodes = nodes
        # The information gain of each split, one per internal node in node
        # order, or none.
        self.split_gains = list(split_gains)
        self.class_frequency = np.asarray(class_frequency, dtype=np.int64)
        # Each leaf's ranking, computed once: the classes present in the leaf
        # by count, then the absent ones by class frequency. A split node's
        # row is never read.
        counts = np.array([node.get("counts", [0] * self.n_classes) for node in nodes],
                          dtype=np.int64).reshape(len(nodes), self.n_classes)
        self._rankings = rank_by(counts <= 0, np.where(counts > 0, -counts, -self.class_frequency))

    def rank_classes_many(self, X: np.ndarray) -> np.ndarray:
        """Route each row from the root to its leaf and return that leaf's
        ranking."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        leaves = []
        for x in X:
            i, node = 0, self.nodes[0]
            while "counts" not in node:
                i = node["left"] if x[node["feature"]] <= node["threshold"] else node["right"]
                node = self.nodes[i]
            leaves.append(i)
        return self._rankings[leaves]

    def check_width(self, width: int):
        """Any width that holds every split feature routes."""
        used = [node["feature"] for node in self.nodes if "counts" not in node]
        if used and max(used) >= width:
            raise DataError(f"tree model splits on feature {max(used)}, data has {width} features")

    def diagnostics(self) -> dict:
        return {"split_gains": self.split_gains}

    def restore_diagnostics(self, diagnostics: dict):
        gains = _floats(diagnostics["split_gains"])
        n_splits = sum("counts" not in node for node in self.nodes)
        if len(gains) not in (0, n_splits):
            raise DataError(f"tree diagnostics need gains for all {n_splits} splits or for none")
        self.split_gains = gains

    def to_payload(self) -> dict:
        return {"nodes": self.nodes, "class_frequency": self.class_frequency.tolist()}

    @classmethod
    def from_payload(cls, classes, payload, hyperparams, seed):
        """Rebuild the tree, checking that every internal node's children
        are later nodes (so routing always ends at a leaf) and that every
        leaf, like the class frequencies, is a list of one int per class."""
        n_nodes, n_classes = len(payload["nodes"]), len(classes)

        def per_class_ints(value) -> bool:
            return (isinstance(value, list) and len(value) == n_classes
                    and all(type(v) is int for v in value))

        class_frequency = payload["class_frequency"]
        if not (n_nodes and per_class_ints(class_frequency)):
            raise DataError(f"tree needs nodes and {n_classes} int class frequencies")
        nodes = []
        for i, node in enumerate(payload["nodes"]):
            if "counts" in node:
                if not per_class_ints(node["counts"]):
                    raise DataError(f"tree leaf {i} does not have {n_classes} int counts")
                nodes.append({"counts": node["counts"]})
                continue
            feature, threshold, children = node["feature"], node["threshold"], (node["left"], node["right"])
            if not all(type(c) is int and i < c < n_nodes for c in children):
                raise DataError(f"tree node {i}: children {children} must be later nodes, below {n_nodes}")
            if not (type(feature) is int and feature >= 0 and isinstance(threshold, (int, float))):
                raise DataError(f"tree node {i}: bad split on feature {feature!r} at {threshold!r}")
            nodes.append({"feature": feature, "threshold": float(threshold),
                          "left": children[0], "right": children[1]})
        return cls(classes, nodes, class_frequency, hyperparams=hyperparams, seed=seed)


def train_tree(
    train,
    max_splits: int | None = None,
    min_leaf: int = 1,
    min_parent: int = 10,
) -> DecisionTreeModel:
    """Grow a tree best-first until purity, the size floors, or the split
    budget stop it. Defaults follow the N-1 split cap with leaf floor 1 and
    parent floor 10.
    """
    classes, X, y = training_arrays(train)
    n_classes = len(classes)
    if max_splits is None:
        max_splits = max(n_classes - 1, 1)
    check_floors(("max_splits", max_splits, 0), ("min_leaf", min_leaf, 1))
    n_total = len(y)
    class_frequency = np.bincount(y, minlength=n_classes)

    nodes: list[dict] = [{"counts": class_frequency.tolist()}]
    members_of = {0: np.arange(n_total)}  # the training rows of each unsplit leaf
    heap: list = []
    counter = 0

    def consider(node_idx: int):
        nonlocal counter
        members = members_of[node_idx]
        if len(members) < min_parent or np.count_nonzero(nodes[node_idx]["counts"]) <= 1:
            return
        found = best_split(X[members], y[members], n_classes, min_leaf)
        if found is None or found[0] <= 0.0:
            return
        gain, feature, threshold = found
        weighted = gain * len(members) / n_total
        heapq.heappush(heap, (-weighted, counter, node_idx, feature, threshold, gain))
        counter += 1

    consider(0)
    splits_done = 0
    gains = {}
    while heap and splits_done < max_splits:
        _, _, node_idx, feature, threshold, gains[node_idx] = heapq.heappop(heap)
        members = members_of.pop(node_idx)
        go_left = X[members, feature] <= threshold
        left_idx, right_idx = len(nodes), len(nodes) + 1
        members_of[left_idx], members_of[right_idx] = members[go_left], members[~go_left]
        for child in (left_idx, right_idx):
            nodes.append({"counts": np.bincount(y[members_of[child]], minlength=n_classes).tolist()})
        nodes[node_idx] = {
            "feature": feature,
            "threshold": threshold,
            "left": left_idx,
            "right": right_idx,
        }
        splits_done += 1
        consider(left_idx)
        consider(right_idx)

    return DecisionTreeModel(
        classes=classes,
        nodes=nodes,
        class_frequency=class_frequency,
        hyperparams={"max_splits": max_splits, "min_leaf": min_leaf, "min_parent": min_parent},
        split_gains=[gains[i] for i in sorted(gains)],
    )
