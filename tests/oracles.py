"""Independent reference implementations used to cross-check the package.

Everything here is written the slow, obvious way (plain Python loops over
lists, fresh formulas) on purpose: these are the oracles the fast numpy
paths are verified against, so they must not share code with them.
"""

import base64
import itertools
import json
import math
from collections import Counter

import numpy as np

from perfprint.classifiers.net import _MIN_LEARNING_RATE, _cross_entropy, sigmoid, softmax
from perfprint.dataset import _write_atomic


def knn_rank(train_x, train_y, n_classes, query, k):
    """Full class ranking for one query, mirroring the documented contract:
    sort points by (distance, class, row); majority vote among the first k
    with (votes, mean distance, class index) ordering; unvoted classes by
    nearest-member distance."""
    entries = []
    for row, (vec, cls) in enumerate(zip(train_x, train_y)):
        dist = math.sqrt(sum((a - b) ** 2 for a, b in zip(vec, query)))
        entries.append((dist, cls, row))
    entries.sort()
    nearest = entries[:k]
    votes = Counter(cls for _, cls, _ in nearest)
    dist_sum = Counter()
    for dist, cls, _ in nearest:
        dist_sum[cls] += dist
    nearest_member = {}
    for dist, cls, _ in entries:
        if cls not in nearest_member:
            nearest_member[cls] = dist
    voted = sorted(votes, key=lambda c: (-votes[c], dist_sum[c] / votes[c], c))
    unvoted = sorted(
        (c for c in range(n_classes) if c not in votes),
        key=lambda c: (nearest_member[c], c),
    )
    return voted + unvoted


def entropy_bits(labels):
    n = len(labels)
    return -sum(
        (count / n) * math.log2(count / n) for count in Counter(labels).values()
    )


def split_gain(rows, labels, feature, threshold):
    """Information gain of one candidate split, computed from scratch."""
    left = [lab for row, lab in zip(rows, labels) if row[feature] <= threshold]
    right = [lab for row, lab in zip(rows, labels) if row[feature] > threshold]
    n = len(labels)
    parent = entropy_bits(labels)
    children = (len(left) * entropy_bits(left) + len(right) * entropy_bits(right)) / n
    return parent - children


def all_split_gains(rows, labels):
    """Every (gain, feature, threshold) candidate: midpoints between
    consecutive sorted distinct values of each feature."""
    n_features = len(rows[0])
    out = []
    for f in range(n_features):
        values = sorted(set(row[f] for row in rows))
        for lo, hi in zip(values, values[1:]):
            thr = (lo + hi) / 2.0
            out.append((split_gain(rows, labels, f, thr), f, thr))
    return out


def svm_grid_dual_max(X, y, c, points=21, refine=2):
    """Grid search over the box-constrained dual, zooming twice around the
    best cell. X has at most a handful of rows."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n = X.shape[0]
    xa = np.hstack([X, np.ones((n, 1))])
    lo, hi = np.zeros(n), np.full(n, float(c))
    best_val, best_pt = -np.inf, None
    for _ in range(refine + 1):
        axes = [np.linspace(lo[i], hi[i], points) for i in range(n)]
        combos = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
        v = (combos * y) @ xa
        vals = combos.sum(axis=1) - 0.5 * (v * v).sum(axis=1)
        k = int(vals.argmax())
        if vals[k] > best_val:
            best_val, best_pt = float(vals[k]), combos[k]
        step = (hi - lo) / (points - 1)
        lo = np.clip(best_pt - step, 0.0, c)
        hi = np.clip(best_pt + step, 0.0, c)
    return best_val


def finite_difference_grads(loss_fn, params, h=1e-5):
    """Central differences of a scalar loss over a list of arrays."""
    grads = []
    for p in params:
        g = np.zeros_like(p)
        flat_p = p.reshape(-1)
        flat_g = g.reshape(-1)
        for i in range(flat_p.size):
            orig = flat_p[i]
            flat_p[i] = orig + h
            up = loss_fn(params)
            flat_p[i] = orig - h
            down = loss_fn(params)
            flat_p[i] = orig
            flat_g[i] = (up - down) / (2.0 * h)
        grads.append(g)
    return grads


# -- reference copies of replaced hot loops -----------------------------------
# The trainers' fast paths must reproduce these bit for bit; the equivalence
# tests compare them on random small problems.


def reference_sigmoid(z):
    """The logistic function by two masked gathers, exp(-z) where z >= 0 and
    exp(z) elsewhere, so neither overflows."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _reference_entropy(counts):
    """Shannon entropy in bits along the last axis, from float counts."""
    counts = np.asarray(counts, dtype=np.float64)
    total = counts.sum(axis=-1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        p = counts / np.where(total > 0, total, 1.0)
        term = np.where(counts > 0, p * np.log2(p), 0.0)
    return -term.sum(axis=-1)


def reference_best_split(X, y, n_classes, min_leaf=1, chunk=128):
    """The tree's split scan before the entropy table: float entropies of
    every candidate's children and a per-column argmax loop. Thresholds are
    plain midpoints."""
    n, n_features = X.shape
    parent_counts = np.bincount(y, minlength=n_classes)
    h_parent = float(_reference_entropy(parent_counts))
    best = None
    n_left = np.arange(1, n, dtype=np.float64)[:, None]
    n_right = n - n_left
    for start in range(0, n_features, chunk):
        cols = slice(start, min(start + chunk, n_features))
        xc = X[:, cols]
        order = np.argsort(xc, axis=0, kind="stable")
        vals = np.take_along_axis(xc, order, axis=0)
        y_sorted = y[order]
        onehot = y_sorted[:, :, None] == np.arange(n_classes)[None, None, :]
        left_counts = onehot.cumsum(axis=0, dtype=np.int32)[:-1]
        right_counts = parent_counts[None, None, :] - left_counts
        child = (n_left * _reference_entropy(left_counts)
                 + n_right * _reference_entropy(right_counts)) / n
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


def reference_solve_pair(X, y, c, tol, max_passes):
    """Dual coordinate ascent for one SVM pair, a solver independent of the
    package's active-set method. Coordinates are visited in index order; it
    stops when no projected-gradient entry seen during a full pass reaches
    tol, or after max_passes passes. Returns (w, b, alpha, dual)."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = X.shape[0]
    xa = np.hstack([X, np.ones((n, 1))])
    q = (xa @ xa.T) * np.outer(y, y)
    q_diag = np.diag(q).copy()
    alpha = np.zeros(n)
    q_alpha = np.zeros(n)
    for _ in range(max_passes):
        worst = 0.0
        for i in range(n):
            g = q_alpha[i] - 1.0
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
                    q_alpha += delta * q[i]
        if worst < tol:
            break
    w_aug = xa.T @ (alpha * y)
    dual = float(alpha.sum() - 0.5 * (alpha @ q_alpha))
    return w_aug[:-1], float(w_aug[-1]), alpha, dual


def dual_objective(alpha, X, y):
    """The SVM pair dual sum(alpha) - 0.5 * ||Xa' (alpha * y)||^2, for Xa
    the features with a constant 1 column appended."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    alpha = np.asarray(alpha, dtype=np.float64)
    v = np.hstack([X, np.ones((X.shape[0], 1))]).T @ (alpha * y)
    return float(alpha.sum() - 0.5 * (v @ v))


# -- reference copies of the per-row dataset transforms -----------------------
# Each rebuilds the dataset one Measurement at a time, as the package did
# before its transforms became whole-matrix expressions. Features, labels and
# row meta must come out the same bit for bit.


def reference_normalize_apply(params, d):
    from perfprint.dataset import Dataset, Measurement

    span = params.feature_max - params.feature_min
    safe = np.where(span > 0, span, 1.0)
    scaled = [
        Measurement(
            label=m.label,
            features=np.where(span > 0, (m.features - params.feature_min) / safe, 0.0),
            meta=dict(m.meta),
        )
        for m in d.measurements
    ]
    return Dataset(measurements=tuple(scaled), normalization=params, meta=dict(d.meta))


def reference_downsample(d, factor):
    from perfprint.dataset import Dataset, Measurement

    if factor == 1 or not len(d):
        return d
    length = d.feature_length
    starts = np.arange(0, length, factor)
    sizes = np.minimum(starts + factor, length) - starts
    out = []
    for m in d.measurements:
        sums = np.add.reduceat(m.features, starts)
        out.append(Measurement(label=m.label, features=sums / sizes, meta=dict(m.meta)))
    meta = dict(d.meta)
    meta["downsample_factor"] = meta.get("downsample_factor", 1) * factor
    return Dataset(measurements=tuple(out), normalization=None, meta=meta)


def reference_deny(d):
    from perfprint.dataset import Dataset, Measurement

    empty = np.zeros(0)
    return Dataset(
        measurements=tuple(
            Measurement(label=m.label, features=empty, meta=dict(m.meta))
            for m in d.measurements
        ),
        meta=dict(d.meta),
    )


def reference_noise(d, sigma, seed, rms_reference=None):
    """Noise injection with one normal draw per row, in row order."""
    from perfprint.dataset import Dataset, Measurement

    if sigma == 0:
        return d
    reference = rms_reference if rms_reference is not None else d
    scale = sigma * np.sqrt((reference.feature_matrix() ** 2).mean(axis=0))
    rng = np.random.default_rng(seed)
    noisy = []
    for m in d.measurements:
        sample = m.features + rng.normal(0.0, 1.0, size=len(m.features)) * scale
        noisy.append(Measurement(label=m.label, features=np.clip(sample, 0.0, None), meta=dict(m.meta)))
    return Dataset(measurements=tuple(noisy), meta=dict(d.meta))


def _rows_by_class(labels):
    out = {}
    for i, label in enumerate(labels):
        out.setdefault(label, []).append(i)
    return {label: out[label] for label in sorted(out)}


def reference_split_indices(labels, n_train, n_test, seed):
    """(train, test) row indices of a per-class split, or the DataError text."""
    rng = np.random.default_rng(seed)
    train_idx, test_idx = [], []
    for label, indices in _rows_by_class(labels).items():
        needed = n_train + n_test
        if len(indices) < needed:
            return (f"class {label!r} has {len(indices)} measurements, "
                    f"needs {needed} for a {n_train}/{n_test} split")
        perm = rng.permutation(len(indices))
        chosen = [indices[p] for p in perm]
        train_idx.extend(chosen[:n_train])
        test_idx.extend(chosen[n_train:needed])
    return sorted(train_idx), sorted(test_idx)


def reference_kfold_indices(labels, k, seed):
    """[(train, validation)] row indices of stratified folds, or the
    DataError text."""
    rng = np.random.default_rng(seed)
    fold_members = [[] for _ in range(k)]
    for label, indices in _rows_by_class(labels).items():
        if len(indices) < k:
            return f"class {label!r} has {len(indices)} measurements, fewer than k={k}"
        perm = rng.permutation(len(indices))
        for j, p in enumerate(perm):
            fold_members[j % k].append(indices[p])
    folds = []
    for i in range(k):
        validation = set(fold_members[i])
        train = [j for j in range(len(labels)) if j not in validation]
        folds.append((train, sorted(validation)))
    return folds


def reference_curve_indices(labels, train_sizes, n_test, seed):
    """(test, {size: train}) row indices of a learning curve, or the
    DataError text."""
    rng = np.random.default_rng(seed)
    test_idx = []
    pools = {}
    for label, indices in _rows_by_class(labels).items():
        if len(indices) < n_test + max(train_sizes):
            return (f"class {label!r} has {len(indices)} measurements, needs "
                    f"{n_test + max(train_sizes)} for this curve")
        perm = rng.permutation(len(indices))
        shuffled = [indices[p] for p in perm]
        test_idx.extend(shuffled[:n_test])
        pools[label] = shuffled[n_test:]
    train = {}
    for size in sorted(train_sizes):
        train[size] = sorted(i for label in pools for i in pools[label][:size])
    return sorted(test_idx), train


# -- reference copies of the single-trace ranking paths -----------------------
# The rankers' fast paths must reproduce these bit for bit: kNN as it was
# before its training-row norms were cached, SVM votes as they were tallied
# before one bincount replaced the per-pair scatters.


def reference_knn_distances(train_x, X):
    """Euclidean distances, recomputing the training-row norms per call."""
    sq = (
        (X * X).sum(axis=1)[:, None]
        + (train_x * train_x).sum(axis=1)[None, :]
        - 2.0 * (X @ train_x.T)
    )
    return np.sqrt(np.clip(sq, 0.0, None))


def reference_knn_rankings(train_x, train_y, n_classes, k, X):
    """(n, N) kNN rankings of the rows of X, one lexsort per query."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    dists = reference_knn_distances(train_x, X)
    rows = np.arange(train_x.shape[0])
    out = np.empty((X.shape[0], n_classes), dtype=np.int64)
    for q in range(X.shape[0]):
        d = dists[q]
        order = np.lexsort((rows, train_y, d))
        nearest = order[:k]
        votes = np.bincount(train_y[nearest], minlength=n_classes)
        dist_sum = np.zeros(n_classes)
        np.add.at(dist_sum, train_y[nearest], d[nearest])
        class_min = np.full(n_classes, np.inf)
        np.minimum.at(class_min, train_y, d)
        voted = np.flatnonzero(votes > 0)
        mean_dist = dist_sum[voted] / votes[voted]
        voted_order = voted[np.lexsort((voted, mean_dist, -votes[voted]))]
        unvoted = np.flatnonzero(votes == 0)
        unvoted_order = unvoted[np.lexsort((unvoted, class_min[unvoted]))]
        out[q] = np.concatenate([voted_order, unvoted_order])
    return out


def reference_vote_scores(pairs, decisions, n_classes):
    """(votes, magnitude) from (n, n_pairs) decision values, four boolean
    scatters per class pair."""
    votes = np.zeros((decisions.shape[0], n_classes))
    magnitude = np.zeros((decisions.shape[0], n_classes))
    for p, (ci, cj) in enumerate(pairs):
        dec = decisions[:, p]
        wins_i = dec >= 0
        votes[wins_i, ci] += 1
        votes[~wins_i, cj] += 1
        magnitude[wins_i, ci] += np.abs(dec[wins_i])
        magnitude[~wins_i, cj] += np.abs(dec[~wins_i])
    return votes, magnitude


# -- reference copy of the per-line dataset parser ---------------------------
# `dataset._parse` as it was when it parsed one row at a time, copied
# verbatim but for three named intended differences, which the package
# shares: (a) the header is strict JSON, so `NaN`, `Infinity` and
# `-Infinity` are refused; (b) its version must be the int 1, not `true` or
# `1.0`; (c) its normalization must hold `feature_length` finite numbers in
# min and in max, checked after the rows. One difference is left to the
# test: this loads a file whose header row_meta has more entries than the
# file has rows, which the package refuses.


def reference_parse(path):
    """Parse and validate a dataset file; also return its non-empty row lines."""
    import json

    from perfprint.dataset import FILE_FORMAT, FILE_VERSION, Dataset, Measurement, NormParams
    from perfprint.errors import DataError
    from perfprint.events import EVENT_KINDS

    with open(path, "r") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise DataError(f"{path}: empty dataset file")

    def refuse_constant(name):  # intended difference (a)
        raise ValueError(f"{name} is not a JSON value")

    try:
        header = json.loads(lines[0], parse_constant=refuse_constant)
    except ValueError as exc:
        raise DataError(f"{path}: line 1: malformed header: {exc}") from exc
    if not isinstance(header, dict):
        raise DataError(f"{path}: line 1: header is not a JSON object")
    if header.get("format") != FILE_FORMAT:
        raise DataError(f"{path}: not a {FILE_FORMAT} file")
    if type(header.get("version")) is not int or header.get("version") != FILE_VERSION:  # (b)
        raise DataError(f"{path}: unsupported version {header.get('version')!r}")

    for key, kind, item in (("events", list, str), ("classes", list, str), ("row_meta", list, dict),
                            ("meta", dict, object), ("normalization", dict, object)):
        value = header.get(key)
        if value is not None and not (isinstance(value, kind) and all(isinstance(v, item) for v in value)):
            of = "" if item is object else f" of {item.__name__}"
            raise DataError(f"{path}: line 1: {key} is not a {kind.__name__}{of}")
    for name in header.get("events") or []:
        if name not in EVENT_KINDS:
            raise DataError(f"{path}: header references unknown event {name!r}")

    length = header.get("feature_length")
    row_meta = header.get("row_meta")
    measurements = []
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        fields = line.split(",")
        label = fields[0]
        if len(fields) - 1 != length:
            raise DataError(
                f"{path}: line {lineno} (label {label!r}): expected "
                f"{length} features, found {len(fields) - 1}"
            )
        try:
            features = np.array(fields[1:], dtype=np.float64)
        except ValueError as exc:
            raise DataError(f"{path}: line {lineno}: non-numeric feature: {exc}") from exc
        if not np.isfinite(features).all():
            raise DataError(f"{path}: line {lineno} (label {label!r}): non-finite feature")
        meta = {}
        if row_meta is not None:
            if len(measurements) >= len(row_meta):
                raise DataError(
                    f"{path}: line {lineno}: header row_meta has {len(row_meta)} "
                    f"entries, too few for the rows"
                )
            meta = row_meta[len(measurements)]
        measurements.append(Measurement(label=label, features=features, meta=meta))
        rows.append(line)

    classes = sorted({m.label for m in measurements})
    if header.get("classes") and classes != sorted(header["classes"]):
        raise DataError(
            f"{path}: header classes {header['classes']} do not match rows {classes}"
        )

    normalization = None
    if header.get("normalization") is not None:
        try:
            normalization = NormParams(
                feature_min=np.array(header["normalization"]["min"], dtype=np.float64),
                feature_max=np.array(header["normalization"]["max"], dtype=np.float64),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"{path}: line 1: malformed normalization: {exc!r}") from exc
        for bound in (normalization.feature_min, normalization.feature_max):  # (c)
            if bound.shape != (length,) or not np.isfinite(bound).all():
                raise DataError(
                    f"{path}: line 1: normalization min/max need {length} finite numbers")
    meta = dict(header.get("meta") or {})
    for key in ("scenario", "events", "samples_per_event"):
        if header.get(key) is not None:
            meta[key] = header[key]
    return Dataset(measurements=tuple(measurements), normalization=normalization, meta=meta), rows


# -- reference copies of the net's training step ------------------------------
# `descend` and the six losses and gradients of `perfprint.classifiers.net`
# as they were when every step formed fresh arrays, copied verbatim but for
# their names. They share with the package only its sigmoid, softmax and
# cross-entropy (the sigmoid is pinned to `reference_sigmoid` above).


def reference_autoencoder_loss(params, X, l2):
    """Mean squared reconstruction error over all entries plus L2 on both
    weight matrices (biases unregularized). Sigmoid encoder, linear decoder.
    Returns (loss, cache); the cache holds the forward pass for
    `reference_autoencoder_grads`."""
    we, be, wd, bd = params
    h = sigmoid(X @ we + be)
    err = h @ wd + bd - X
    # zero-width inputs (access-denied datasets) have nothing to reconstruct
    mse = 0.5 * float((err * err).mean()) if err.size else 0.0
    reg = 0.5 * l2 * (float((we * we).sum()) + float((wd * wd).sum()))
    return mse + reg, (h, err)


def reference_autoencoder_grads(params, X, l2, cache):
    we, be, wd, bd = params
    h, err = cache
    scale = 1.0 / X.size if X.size else 0.0
    d_out = err * scale
    g_wd = h.T @ d_out + l2 * wd
    g_bd = d_out.sum(axis=0)
    d_h = (d_out @ wd.T) * h * (1.0 - h)
    g_we = X.T @ d_h + l2 * we
    g_be = d_h.sum(axis=0)
    return [g_we, g_be, g_wd, g_bd]


def reference_softmax_loss(params, H, y_onehot, l2):
    """Cross-entropy plus L2 on the weights; returns (loss, cache)."""
    ws, bs = params
    p = softmax(H @ ws + bs)
    return _cross_entropy(p, y_onehot) + 0.5 * l2 * float((ws * ws).sum()), p


def reference_softmax_grads(params, H, y_onehot, l2, cache):
    ws, bs = params
    d_z = (cache - y_onehot) / H.shape[0]
    return [H.T @ d_z + l2 * ws, d_z.sum(axis=0)]


def reference_stack_loss(params, X, y_onehot, l2):
    """Cross-entropy of the full encoder stack plus L2 on all three weight
    matrices. `params` is (W1, b1, W2, b2, Ws, bs). Returns (loss, cache)."""
    w1, b1, w2, b2, ws, bs = params
    h1 = sigmoid(X @ w1 + b1)
    h2 = sigmoid(h1 @ w2 + b2)
    p = softmax(h2 @ ws + bs)
    reg = 0.5 * l2 * (
        float((w1 * w1).sum()) + float((w2 * w2).sum()) + float((ws * ws).sum())
    )
    return _cross_entropy(p, y_onehot) + reg, (h1, h2, p)


def reference_stack_grads(params, X, y_onehot, l2, cache):
    w1, b1, w2, b2, ws, bs = params
    h1, h2, p = cache
    d_z3 = (p - y_onehot) / X.shape[0]
    g_ws = h2.T @ d_z3 + l2 * ws
    g_bs = d_z3.sum(axis=0)
    d_h2 = (d_z3 @ ws.T) * h2 * (1.0 - h2)
    g_w2 = h1.T @ d_h2 + l2 * w2
    g_b2 = d_h2.sum(axis=0)
    d_h1 = (d_h2 @ w2.T) * h1 * (1.0 - h1)
    g_w1 = X.T @ d_h1 + l2 * w1
    g_b1 = d_h1.sum(axis=0)
    return [g_w1, g_b1, g_w2, g_b2, g_ws, g_bs]


def reference_descend(params, loss_fn, grad_fn, max_iterations, learning_rate):
    """Full-batch gradient descent with halving on loss increase.

    `loss_fn(params)` returns (loss, cache) and `grad_fn(params, cache)` the
    gradients from that cache, so each step runs one forward pass (the
    trial's) and, after an accepted step, one backward pass. A step that
    would raise the loss is rejected and the rate halved, keeping the
    gradients already computed, so the returned history is non-increasing.
    Stops early once the rate underflows.

    The stage takes ownership of the arrays in the list `params`: it empties
    the list and never writes to them, so the initial weights are freed once
    the first step is accepted.
    """
    given, params = params, list(params)
    given.clear()
    lr = learning_rate
    loss, cache = loss_fn(params)
    history = [loss]
    grads = None
    for _ in range(max_iterations):
        if grads is None:
            grads = grad_fn(params, cache)
            cache = None  # the activations are not needed once the gradients exist
        trial = [p - lr * g for p, g in zip(params, grads)]
        new_loss, new_cache = loss_fn(trial)
        if new_loss <= loss:
            params, loss, cache, grads = trial, new_loss, new_cache, None
        else:
            lr *= 0.5
            if lr < _MIN_LEARNING_RATE:
                break
        # A rejected trial and its activations are dropped before the next one.
        trial = new_cache = None
        history.append(loss)
    return params, history


def reference_train_net(X, y, n_classes, seed, hidden1, hidden2, max_iterations,
                        softmax_iterations, finetune_iterations, l2_weight, learning_rate):
    """`train_net`'s four stages through the copies above; returns the
    weights (w1, b1, w2, b2, ws, bs) and the four loss histories."""
    rng = np.random.default_rng(seed)

    def glorot(fan_in, fan_out):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-limit, limit, size=(fan_in, fan_out))

    n, d = X.shape
    h1, h2 = hidden1, hidden2
    ae1_init = [glorot(d, h1), np.zeros(h1), glorot(h1, d), np.zeros(d)]
    ae2_init = [glorot(h1, h2), np.zeros(h2), glorot(h2, h1), np.zeros(h1)]
    sm_init = [glorot(h2, n_classes), np.zeros(n_classes)]
    ae1, hist1 = reference_descend(
        ae1_init,
        lambda p: reference_autoencoder_loss(p, X, l2_weight),
        lambda p, cache: reference_autoencoder_grads(p, X, l2_weight, cache),
        max_iterations, learning_rate,
    )
    h1_act = sigmoid(X @ ae1[0] + ae1[1])
    ae2, hist2 = reference_descend(
        ae2_init,
        lambda p: reference_autoencoder_loss(p, h1_act, l2_weight),
        lambda p, cache: reference_autoencoder_grads(p, h1_act, l2_weight, cache),
        max_iterations, learning_rate,
    )
    h2_act = sigmoid(h1_act @ ae2[0] + ae2[1])
    y_onehot = np.zeros((n, n_classes))
    y_onehot[np.arange(n), y] = 1.0
    sm, hist3 = reference_descend(
        sm_init,
        lambda p: reference_softmax_loss(p, h2_act, y_onehot, l2_weight),
        lambda p, cache: reference_softmax_grads(p, h2_act, y_onehot, l2_weight, cache),
        softmax_iterations, learning_rate,
    )
    stack, hist4 = reference_descend(
        [ae1[0], ae1[1], ae2[0], ae2[1], sm[0], sm[1]],
        lambda p: reference_stack_loss(p, X, y_onehot, l2_weight),
        lambda p, cache: reference_stack_grads(p, X, y_onehot, l2_weight, cache),
        finetune_iterations, learning_rate,
    )
    return stack, {"autoencoder1": hist1, "autoencoder2": hist2, "softmax": hist3, "finetune": hist4}


# -- reference copy of the version-1 model writer -----------------------------
# `save_model` of `perfprint.classifiers.io` as it was when model files were
# one line of JSON with each array as base64 text, copied verbatim with
# `_encode`, `_dumps` and `_payload_chunks`. The one adaptation: `to_payload`
# now hands over arrays, which the copy encodes as the old `to_payload` did.


V1_FILE_FORMAT = "perfprint-model"
V1_FILE_VERSION = 1


def _v1_encode(arr: np.ndarray) -> dict:
    """A float64 array as its shape and base64-packed little-endian bytes."""
    arr = np.asarray(arr, dtype=np.float64)
    return {
        "shape": list(arr.shape),
        "data": base64.b64encode(np.ascontiguousarray(arr, dtype="<f8")).decode("ascii"),
    }


def save_model_v1(model, path: str, provenance: dict | None = None):
    """Write `model` atomically as one line of compact JSON.

    The bytes are those of `write_json` of the whole document, but each
    payload array's base64 text is written as it stands rather than passed
    through the JSON encoder: its characters ([A-Za-z0-9+/=]) are never
    escaped, and the text is most of the file.
    """
    envelope = {
        "format": V1_FILE_FORMAT,
        "version": V1_FILE_VERSION,
        "kind": model.kind,
        "classes": model.classes,
        "seed": model.seed,
        "hyperparams": model.hyperparams,
        "provenance": provenance,
        "payload": None,  # the last key; its value is written below
    }
    payload = {
        name: _v1_encode(value) if isinstance(value, np.ndarray) else value
        for name, value in model.to_payload().items()
    }
    head = _v1_dumps(envelope)[: -len("null}")]
    _write_atomic(path, itertools.chain([head], _v1_payload_chunks(payload), ["}\n"]))


def _v1_dumps(value) -> str:
    return json.dumps(value, separators=(",", ":"))


def _v1_payload_chunks(payload: dict):
    """`_dumps(payload)` in chunks, each array's base64 text one chunk."""
    yield "{"
    for i, (name, value) in enumerate(payload.items()):
        yield ("," if i else "") + _v1_dumps(name) + ":"
        if isinstance(value, dict) and list(value) == ["shape", "data"]:  # from `_encode`
            yield '{"shape":' + _v1_dumps(value["shape"]) + ',"data":"'
            yield value["data"]
            yield '"}'
        else:
            yield _v1_dumps(value)
    yield "}"
