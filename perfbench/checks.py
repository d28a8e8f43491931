"""Independent correctness checks for the benchmark's outputs.

Each check recomputes a result by a route other than the one perfprint
takes (a brute-force nearest neighbour, block means by reshaping, routing a
tree by hand) or tests a property the method must have, and returns a list
of problems: empty means the output passed.
"""

from __future__ import annotations

import numpy as np


def block_means(X: np.ndarray, factor: int) -> np.ndarray:
    """Means of consecutive blocks of `factor` columns; a trailing partial
    block is averaged over its own width."""
    X = np.asarray(X, dtype=np.float64)
    full = X.shape[1] // factor
    parts = [X[:, : full * factor].reshape(X.shape[0], full, factor).mean(axis=2)]
    if X.shape[1] % factor:
        parts.append(X[:, full * factor :].mean(axis=1, keepdims=True))
    return np.concatenate(parts, axis=1)


def nearest_neighbour(train_X, train_y, test_X) -> np.ndarray:
    """Class index of each test row's nearest training row by explicit
    differences; equal distances go to the lower class index."""
    train_X = np.asarray(train_X, dtype=np.float64)
    train_y = np.asarray(train_y)
    out = np.empty(len(test_X), dtype=np.int64)
    for i, x in enumerate(np.asarray(test_X, dtype=np.float64)):
        dist = np.sqrt(((train_X - x) ** 2).sum(axis=1))
        out[i] = train_y[dist == dist.min()].min()
    return out


def rates_from_rankings(rankings, y) -> tuple[float, list[float]]:
    """Top-1 rate and top-g curve recomputed from full class rankings."""
    rankings = np.asarray(rankings)
    position = np.argmax(rankings == np.asarray(y)[:, None], axis=1)
    n = len(y)
    curve = [float((position < g).sum() / n) for g in range(1, rankings.shape[1] + 1)]
    return curve[0], curve


def one_nn_rate(train_X, train_y, test_X, test_y) -> float:
    predicted = nearest_neighbour(train_X, train_y, test_X)
    return float((predicted == np.asarray(test_y)).sum() / len(test_y))


# -- checks ----------------------------------------------------------------


def check_floor(rates: dict[str, float], floor: float) -> list[str]:
    return [f"{kind}: top-1 {rate:.4f} below {floor:.4f}" for kind, rate in rates.items() if rate < floor]


def check_topk_curve(name: str, curve) -> list[str]:
    problems = []
    if any(b < a for a, b in zip(curve, curve[1:])):
        problems.append(f"{name}: top-k curve decreases")
    if curve[-1] != 1.0:
        problems.append(f"{name}: top-k curve ends at {curve[-1]}, not 1.0")
    return problems


def check_knn_top1(train_X, train_y, test_X, top1) -> list[str]:
    expected = nearest_neighbour(train_X, train_y, test_X)
    wrong = np.flatnonzero(expected != np.asarray(top1))
    return [f"knn: top-1 differs from the brute-force nearest neighbour on {len(wrong)} traces"] if len(wrong) else []


def check_rates_match(name: str, success_rate, topk_curve, rankings, y) -> list[str]:
    top1, curve = rates_from_rankings(rankings, y)
    problems = []
    if abs(top1 - success_rate) > 1e-12:
        problems.append(f"{name}: reported rate {success_rate} but predictions give {top1}")
    if len(curve) != len(topk_curve) or np.abs(np.subtract(curve, topk_curve)).max() > 1e-12:
        problems.append(f"{name}: reported top-k curve differs from the predictions'")
    return problems


def check_same_rankings(name: str, expected, got) -> list[str]:
    if np.array_equal(np.asarray(expected), np.asarray(got)):
        return []
    return [f"{name}: rankings differ"]


def check_tree_leaves(nodes, train_X, train_y, n_classes) -> list[str]:
    """Route every training row by hand; each leaf's stored counts must be
    the label counts of the rows that reach it."""
    reached = {i: np.zeros(n_classes, dtype=np.int64) for i, node in enumerate(nodes) if "counts" in node}
    for x, label in zip(np.asarray(train_X, dtype=np.float64), train_y):
        i = 0
        while "counts" not in nodes[i]:
            node = nodes[i]
            i = node["left"] if x[node["feature"]] <= node["threshold"] else node["right"]
        reached[i][label] += 1
    bad = [i for i, counts in reached.items() if not np.array_equal(counts, np.asarray(nodes[i]["counts"]))]
    return [f"tree: leaf counts differ from routed training labels at leaves {bad}"] if bad else []


def check_loss_histories(histories: dict[str, list[float]]) -> list[str]:
    return [
        f"net: {stage} loss history increases"
        for stage, history in histories.items()
        if any(b > a for a, b in zip(history, history[1:]))
    ]


def check_identical(name: str, digests: list[dict]) -> list[str]:
    """Every round's {file: sha256} must equal the first round's."""
    first = digests[0]
    differ = sorted({f for d in digests[1:] for f in set(d) | set(first) if d.get(f) != first.get(f)})
    return [f"{name}: files differ between rounds: {differ}"] if differ else []


def check_block_means(name: str, raw_X, downsampled_X, factor: int, rtol: float) -> list[str]:
    expected = block_means(raw_X, factor)
    got = np.asarray(downsampled_X, dtype=np.float64)
    if expected.shape != got.shape or not np.allclose(got, expected, rtol=rtol, atol=rtol):
        return [f"{name}: downsampled rows differ from independent block means"]
    return []


def check_split(train_ids, test_ids, train_labels, test_labels, n_train, n_test, classes) -> list[str]:
    problems = []
    if set(train_ids) & set(test_ids):
        problems.append("split: train and test share rows")
    if len(set(train_ids)) != len(train_ids) or len(set(test_ids)) != len(test_ids):
        problems.append("split: a row repeats within one side")
    for side, labels, wanted in (("train", train_labels, n_train), ("test", test_labels, n_test)):
        counts = {c: list(labels).count(c) for c in classes}
        if any(n != wanted for n in counts.values()) or len(labels) != wanted * len(classes):
            problems.append(f"split: {side} per-class counts {counts}, wanted {wanted}")
    return problems


def check_unit_range(name: str, X) -> list[str]:
    X = np.asarray(X)
    if X.size and (X.min() < 0.0 or X.max() > 1.0):
        return [f"{name}: normalized features outside [0, 1] ({X.min()}, {X.max()})"]
    return []


def nine_digits(values) -> np.ndarray:
    return np.array([float(format(v, ".9g")) for v in np.asarray(values, dtype=np.float64)])


def check_rows_reload(appended, loaded) -> list[str]:
    """Reloaded rows equal what was appended, to 9 significant digits, in
    order, with their labels and row metadata."""
    if len(appended) != len(loaded):
        return [f"campaign: appended {len(appended)} rows, file holds {len(loaded)}"]
    bad = [
        i for i, (a, b) in enumerate(zip(appended, loaded))
        if a.label != b.label or a.meta != b.meta or not np.array_equal(nine_digits(a.features), b.features)
    ]
    return [f"campaign: rows {bad} reload different from what was appended"] if bad else []


def check_concatenate(raw, measurement) -> list[str]:
    """The measurement is each event's series cut or zero-padded to the
    expected length, joined in config order."""
    expected_len = raw.config.expected_samples
    parts = []
    for name in raw.config.event_names:
        series = np.zeros(expected_len)
        counts = np.asarray(raw.counts[name], dtype=np.float64)[:expected_len]
        series[: len(counts)] = counts
        parts.append(series)
    if not np.array_equal(np.concatenate(parts), measurement.features):
        return [f"campaign: concatenate output for {measurement.label!r} differs from the raw counts"]
    return []


def check_equal(name: str, got: float, expected: float) -> list[str]:
    return [] if abs(got - expected) <= 1e-12 else [f"{name}: {got} but the independent computation gives {expected}"]
