"""Greedy binary decision tree with entropy-based splits.

Growth is best-first under a global split budget: the frontier node whose
best split removes the most weighted entropy is expanded next. Candidate
thresholds are midpoints between consecutive distinct sorted values of a
feature within the node.
"""

from __future__ import annotations

import heapq
import time

import numpy as np

from ..errors import DataError
from .base import Model, check_trainable

_FEATURE_CHUNK = 128  # bounds the (n, chunk, classes) temporaries


def _entropy(counts: np.ndarray) -> np.ndarray:
    """Shannon entropy in bits along the last axis of a count array."""
    counts = np.asarray(counts, dtype=np.float64)
    total = counts.sum(axis=-1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        p = counts / np.where(total > 0, total, 1.0)
        term = np.where(counts > 0, p * np.log2(p), 0.0)
    return -term.sum(axis=-1)


def best_split(X: np.ndarray, y: np.ndarray, n_classes: int, min_leaf: int = 1):
    """Exhaustive scan for the (feature, threshold) with maximal information
    gain; returns (gain, feature, threshold) or None when no valid split
    exists. Ties resolve to the lowest feature index, then lowest threshold.
    """
    n, n_features = X.shape
    parent_counts = np.bincount(y, minlength=n_classes)
    h_parent = float(_entropy(parent_counts))
    best = None
    n_left = np.arange(1, n, dtype=np.float64)[:, None]
    n_right = n - n_left
    for start in range(0, n_features, _FEATURE_CHUNK):
        cols = slice(start, min(start + _FEATURE_CHUNK, n_features))
        xc = X[:, cols]
        order = np.argsort(xc, axis=0, kind="stable")
        vals = np.take_along_axis(xc, order, axis=0)
        y_sorted = y[order]  # (n, chunk)
        onehot = y_sorted[:, :, None] == np.arange(n_classes)[None, None, :]
        left_counts = onehot.cumsum(axis=0, dtype=np.int32)[:-1]  # split after row i
        right_counts = parent_counts[None, None, :] - left_counts
        child = (n_left * _entropy(left_counts) + n_right * _entropy(right_counts)) / n
        gain = h_parent - child
        valid = (vals[:-1] < vals[1:]) & (n_left >= min_leaf) & (n_right >= min_leaf)
        gain = np.where(valid, gain, -np.inf)
        if not np.isfinite(gain).any():
            continue
        for j in range(gain.shape[1]):
            pos = int(np.argmax(gain[:, j]))
            g = gain[pos, j]
            if not np.isfinite(g):
                continue
            if best is None or g > best[0]:
                thr = (vals[pos, j] + vals[pos + 1, j]) / 2.0
                best = (float(g), start + j, float(thr))
    return best


class DecisionTreeModel(Model):
    kind = "tree"

    def __init__(
        self,
        classes,
        nodes,
        class_frequency,
        hyperparams=None,
        seed=None,
        train_seconds=0.0,
    ):
        super().__init__(
            classes, seed=seed, hyperparams=hyperparams, train_seconds=train_seconds
        )
        # nodes[i] is either {"counts": array} (leaf) or
        # {"feature": f, "threshold": t, "left": i, "right": j}; node 0 is
        # the root, and children come after their parent. Routing sends
        # x[feature] <= threshold to the left child.
        self.nodes = nodes
        self.class_frequency = np.asarray(class_frequency, dtype=np.int64)
        # Each leaf's ranking, computed once: the classes present in the leaf
        # by (-count, index), then the absent ones by (-class_frequency, index).
        idx = np.arange(self.n_classes)
        self._rankings = np.zeros((len(nodes), self.n_classes), dtype=np.int64)
        for i, node in enumerate(nodes):
            if "counts" in node:
                counts = np.asarray(node["counts"], dtype=np.int64)
                present = counts > 0
                key = np.where(present, -counts, -self.class_frequency)
                self._rankings[i] = np.lexsort((idx, key, ~present))

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

    def to_payload(self) -> dict:
        nodes = [
            {"counts": np.asarray(n["counts"]).tolist()} if "counts" in n
            else {"feature": int(n["feature"]), "threshold": float(n["threshold"]),
                  "left": int(n["left"]), "right": int(n["right"])}
            for n in self.nodes
        ]
        return {"nodes": nodes, "class_frequency": self.class_frequency.tolist()}

    @classmethod
    def from_payload(cls, classes, payload, hyperparams, seed):
        """Rebuild the tree, checking that every internal node's children
        are later nodes (so routing always ends at a leaf) and that every
        leaf counts each class once."""
        n_nodes, n_classes = len(payload["nodes"]), len(classes)
        class_frequency = np.array(payload["class_frequency"], dtype=np.int64)
        if not n_nodes or class_frequency.shape != (n_classes,):
            raise DataError(f"tree needs nodes and {n_classes} class frequencies")
        nodes = []
        for i, node in enumerate(payload["nodes"]):
            if "counts" in node:
                counts = np.array(node["counts"], dtype=np.int64)
                if counts.shape != (n_classes,):
                    raise DataError(f"tree leaf {i} does not have {n_classes} counts")
                nodes.append({"counts": counts})
                continue
            feature, threshold, children = node["feature"], node["threshold"], (node["left"], node["right"])
            if not all(type(c) is int and i < c < n_nodes for c in children):
                raise DataError(f"tree node {i}: children {children} must be later nodes, below {n_nodes}")
            if not (type(feature) is int and feature >= 0 and isinstance(threshold, (int, float))):
                raise DataError(f"tree node {i}: bad split on feature {feature!r} at {threshold!r}")
            nodes.append(dict(node))
        return cls(classes, nodes, class_frequency, hyperparams=hyperparams, seed=seed)


def train_tree(
    train,
    max_splits: int | None = None,
    min_leaf: int = 1,
    min_parent: int = 10,
    seed=None,
) -> DecisionTreeModel:
    """Grow a tree best-first until purity, the size floors, or the split
    budget stop it. Defaults follow the N-1 split cap with leaf floor 1 and
    parent floor 10.
    """
    check_trainable(train)
    t0 = time.perf_counter()
    classes = train.classes
    n_classes = len(classes)
    if max_splits is None:
        max_splits = max(n_classes - 1, 1)
    X = train.feature_matrix()
    y = train.label_indices(classes)
    n_total = len(y)
    class_frequency = np.bincount(y, minlength=n_classes)

    nodes: list[dict] = [{"counts": class_frequency.copy(), "members": np.arange(n_total)}]
    heap: list = []
    counter = 0

    def consider(node_idx: int):
        nonlocal counter
        members = nodes[node_idx]["members"]
        counts = nodes[node_idx]["counts"]
        if len(members) < min_parent or np.count_nonzero(counts) <= 1:
            return
        found = best_split(X[members], y[members], n_classes, min_leaf)
        if found is None or found[0] <= 0.0:
            return
        gain, feature, threshold = found
        weighted = gain * len(members) / n_total
        heapq.heappush(heap, (-weighted, counter, node_idx, feature, threshold))
        counter += 1

    consider(0)
    splits_done = 0
    while heap and splits_done < max_splits:
        _, _, node_idx, feature, threshold = heapq.heappop(heap)
        members = nodes[node_idx].pop("members")
        go_left = X[members, feature] <= threshold
        left_members = members[go_left]
        right_members = members[~go_left]
        left_idx, right_idx = len(nodes), len(nodes) + 1
        nodes.append(
            {"counts": np.bincount(y[left_members], minlength=n_classes), "members": left_members}
        )
        nodes.append(
            {"counts": np.bincount(y[right_members], minlength=n_classes), "members": right_members}
        )
        nodes[node_idx] = {
            "feature": feature,
            "threshold": threshold,
            "left": left_idx,
            "right": right_idx,
        }
        splits_done += 1
        consider(left_idx)
        consider(right_idx)

    for node in nodes:
        node.pop("members", None)

    return DecisionTreeModel(
        classes=classes,
        nodes=nodes,
        class_frequency=class_frequency,
        hyperparams={"max_splits": max_splits, "min_leaf": min_leaf, "min_parent": min_parent},
        seed=seed,
        train_seconds=time.perf_counter() - t0,
    )
