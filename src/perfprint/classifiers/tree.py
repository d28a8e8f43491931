"""Greedy binary decision tree with entropy-based splits.

Growth is best-first under a global split budget: the frontier node whose
best split removes the most weighted entropy is expanded next. Candidate
thresholds are midpoints between consecutive distinct sorted values of a
feature within the node.

`best_split` finds a node's split in two steps. A screen scores every cut
of every feature in O(n) per feature with the count update of CART and
C4.5: moving one row from the right side to the left changes one class
count on each side, so the children's entropies follow from two running
sums. It keeps only the cuts whose screened score is within its proven
rounding bound of the best one. Those few are scored from their class
counts exactly as the O(n·d·C) scan scored every cut, so the chosen
splits, their gains and the model files are the ones that scan gave. The
screen works in feature chunks whose temporaries hold about `_SCREEN_BYTES`.
"""

from __future__ import annotations

import heapq

import numpy as np

from ..errors import DataError
from .base import Model, _floats, check_floors, rank_by, training_arrays

# The screen's (chunk, n) temporaries hold about _SCREEN_BYTES together: at
# most three 8-byte arrays and a few byte-wide ones are live at once.
_SCREEN_BYTES = 2 << 20
_SCREEN_CELL_BYTES = 32
# np.log2 of a float64 is taken to be within 4 ulp of the exact value, so
# its relative error is at most _LOG2_ERROR units of roundoff.
_LOG2_ERROR = 8
_UNIT_ROUNDOFF = 2.0**-53


def _entropy(counts: np.ndarray) -> np.ndarray:
    """Shannon entropy in bits of each row of class counts."""
    p = counts / counts.sum(axis=-1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        return -np.where(counts > 0, p * np.log2(p), 0.0).sum(axis=-1)


def _split_threshold(lo: float, hi: float) -> float:
    """The midpoint of two consecutive distinct values, or `lo` where the
    midpoint rounds onto `hi` (adjacent doubles) or overflows, so that
    routing by x <= threshold separates them as the scored split did."""
    mid = (lo + hi) / 2.0
    return mid if lo <= mid < hi else lo


def _screen_margin(n: int, n_classes: int) -> float:
    """How far below the best screened score a cut may sit and still be the
    cut that the exact scoring ranks first.

    Write f(c) = c*log2(c), u = 2**-53 for the unit roundoff, L = log2(n),
    K = log2(max(C, 2)) for C classes, and λ = `_LOG2_ERROR` for the
    relative error of np.log2. A side of m rows with class counts c has
    m*H = f(m) - Σ f(c), so a cut with i+1 rows on the left has
    n*gain = const + s, where s = Σ_{rows r <= i} w_r - f(i+1) - f(n-i-1)
    and w_r = [f(o+1) - f(o)] - [f(P-o) - f(P-o-1)] for a row of a class
    with P rows in the node and o rows before it in the sorted order.

    ε_screen, how far the computed s can be from the true s, in units of
    n*gain:
      - each f(c) has relative error (λ+1)u, and f(c) <= n*L, so each w
        is off by at most 4(λ+2)u*n*L from its four f values plus 3u(L+2)
        from its three subtractions (|w| <= L + 1.45);
      - the running sum of at most n of them adds (n-1)u*Σ|w|, the
        recursive-summation bound (Higham, Accuracy and Stability of
        Numerical Algorithms, 2nd ed., 2002, §4.2);
      - the two size terms and two subtractions add 2(λ+2)u*n*L +
        2u*n(3L+2).
    For n >= 2 the sum is below u*n²*((5λ+16)L + 8); the rounding up of
    the constants covers the second-order terms.

    ε_exact, how far the gain that the exact scoring computes (the
    arithmetic whose result `best_split` returns) can be from the true
    gain, in bits:
      - each term p*log2(p) of a side's counts, p = c/t, is off by at most
        (λ+3)u*|p*log2 p| + 2u*p (the rounding of c/t moves log2 by at
        most 1.45u), so one side's C terms are off by (λ+3)u*H + 2u;
      - summing them over the class axis, in any order, adds (C-1)u*H,
        and H <= K;
      - the parent's entropy has the same bound, and the weighted child
        and the subtraction add at most 4u*K.
    So ε_exact <= u*((2C + 2λ + 9)K + 5).

    Any cut c whose computed gain is the highest and the cut c' with the
    best screened score satisfy s(c) >= s(c') - 2(ε_screen + n*ε_exact):
    c's true gain is at most ε_exact below its computed gain, which is not
    below c''s computed gain, which is at most ε_exact below c''s true
    gain; and each screened score is within ε_screen of its true value.
    So every cut that could win survives the screen.
    """
    big_l = np.log2(n)
    big_k = np.log2(max(n_classes, 2))
    eps_screen = _UNIT_ROUNDOFF * n * n * ((5 * _LOG2_ERROR + 16) * big_l + 8)
    eps_exact = _UNIT_ROUNDOFF * ((2 * n_classes + 2 * _LOG2_ERROR + 9) * big_k + 5)
    return 2.0 * (eps_screen + n * eps_exact)


def best_split(X: np.ndarray, y: np.ndarray, n_classes: int, min_leaf: int = 1):
    """Exhaustive scan for the (feature, threshold) with maximal information
    gain; returns (gain, feature, threshold) or None when no valid split
    exists. Ties resolve to the lowest feature index, then lowest threshold.

    The screen (see the module docstring and `_screen_margin`) finds every
    cut that could rank first. `_score_cuts` scores them exactly, and the
    first of the highest wins.
    """
    n, n_features = X.shape
    # Cut i sends the i+1 lowest rows left; both sides need min_leaf rows,
    # and every cut leaves at least one.
    min_leaf = max(min_leaf, 1)
    first, stop = min_leaf - 1, n - min_leaf
    if n < 2 or first >= stop:
        return None
    parent_counts = np.bincount(y, minlength=n_classes)
    f = np.arange(n + 1, dtype=np.float64)
    f *= np.log2(np.maximum(f, 1.0))  # f(c) = c*log2(c), f(0) = 0
    # In the class-sorted order, class k fills one block: the row at
    # position p there has `occurrence` rows of its class before it.
    classes = np.repeat(np.arange(n_classes), parent_counts)
    occurrence = np.arange(n) - (np.cumsum(parent_counts) - parent_counts)[classes]
    size = parent_counts[classes]
    step = (f[occurrence + 1] - f[occurrence]) - (f[size - occurrence] - f[size - occurrence - 1])
    n_left = np.arange(first + 1, stop + 1)
    size_terms = f[n_left] + f[n - n_left]
    margin = _screen_margin(n, n_classes)
    labels = y.astype(np.min_scalar_type(n_classes))  # a radix sort's keys

    top = -np.inf
    held = []  # (score, feature, cut, lo, hi) arrays of the cuts near the top
    width = max(1, _SCREEN_BYTES // (_SCREEN_CELL_BYTES * n))
    for start in range(0, n_features, width):
        xt = X[:, start:start + width].T
        order = np.argsort(xt, axis=1)
        vals = np.take_along_axis(xt, order, axis=1)
        # Each sorted column's rows in class-sorted order; each row's step
        # goes back to the row's place in the sorted column.
        pos = np.argsort(labels[order], axis=1, kind="stable")
        del order
        pos += np.arange(0, pos.size, n).reshape(-1, 1)
        score = np.empty(vals.shape)
        np.put(score, pos, step)
        del pos
        np.cumsum(score, axis=1, out=score)
        cut_scores = score[:, first:stop]
        cut_scores -= size_terms
        lo, hi = vals[:, first:stop], vals[:, first + 1:stop + 1]
        cut_scores[~(lo < hi)] = -np.inf
        chunk_top = cut_scores.max()
        if chunk_top == -np.inf:
            continue
        if chunk_top > top:
            top = chunk_top
            held = [tuple(a[cells[0] >= top - margin] for a in cells) for cells in held]
        rows, cols = np.nonzero(cut_scores >= top - margin)
        held.append((cut_scores[rows, cols], rows + start, cols + first,
                     lo[rows, cols], hi[rows, cols]))
    if not held:
        return None
    _, feature, cut, lo, hi = (np.concatenate(a) for a in zip(*held))
    return _score_cuts(X, y, parent_counts, feature, cut, lo, hi)


def _score_cuts(X, y, parent_counts, feature, cut, lo, hi):
    """Score the given cuts as the full scan scored every cut, and return
    the first of the highest as (gain, feature, threshold). Cut k sends the
    cut[k]+1 rows with X[:, feature[k]] <= lo[k] left; hi[k] is the next
    value. Cuts come sorted by feature, then by cut.

    Each side's entropy is computed from its class counts with the same
    operations as that scan, and the children are weighted as it did.
    """
    n, n_classes = len(y), len(parent_counts)
    h_parent = float(_entropy(parent_counts))
    best = None
    width = max(1, _SCREEN_BYTES // (_SCREEN_CELL_BYTES * n))
    for start in range(0, len(feature), width):
        part = slice(start, start + width)
        goes_left = X[:, feature[part]] <= lo[part]
        cells = y[:, None] + n_classes * np.arange(goes_left.shape[1])
        left_counts = np.bincount(cells[goes_left], minlength=cells.size // n * n_classes)
        left_counts = left_counts.reshape(-1, n_classes)
        n_left = (cut[part] + 1).astype(np.float64)
        child = n_left * _entropy(left_counts) + (n - n_left) * _entropy(parent_counts - left_counts)
        gain = h_parent - child / n
        k = int(gain.argmax())
        if best is None or gain[k] > best[0]:
            threshold = _split_threshold(float(lo[part][k]), float(hi[part][k]))
            best = (float(gain[k]), int(feature[part][k]), threshold)
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
    # A split needs two rows, so every min_parent the check lets through
    # has an effect.
    check_floors(("max_splits", max_splits, 0), ("min_leaf", min_leaf, 1),
                 ("min_parent", min_parent, 2))
    n_total = len(y)
    class_frequency = np.bincount(y, minlength=n_classes)

    nodes: list[dict] = [{"counts": class_frequency.tolist()}]
    members_of = {0: np.arange(n_total)}  # the training rows of each unsplit leaf
    heap: list = []  # equal weighted gains pop in node order, and node indices are unique

    def consider(node_idx: int):
        members = members_of[node_idx]
        if len(members) < min_parent or np.count_nonzero(nodes[node_idx]["counts"]) <= 1:
            return
        found = best_split(X[members], y[members], n_classes, min_leaf)
        if found is None or found[0] <= 0.0:
            return
        gain, feature, threshold = found
        weighted = gain * len(members) / n_total
        heapq.heappush(heap, (-weighted, node_idx, feature, threshold, gain))

    consider(0)
    gains = {}
    while heap and len(gains) < max_splits:
        _, node_idx, feature, threshold, gains[node_idx] = heapq.heappop(heap)
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
        consider(left_idx)
        consider(right_idx)

    return DecisionTreeModel(
        classes=classes,
        nodes=nodes,
        class_frequency=class_frequency,
        hyperparams={"max_splits": max_splits, "min_leaf": min_leaf, "min_parent": min_parent},
        split_gains=[gains[i] for i in sorted(gains)],
    )
