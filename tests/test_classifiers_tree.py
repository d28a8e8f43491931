import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest

from perfprint.classifiers import train_tree
from perfprint.classifiers import tree
from perfprint.classifiers.tree import DecisionTreeModel, best_split

from helpers import build_dataset, random_dataset
from oracles import all_split_gains, reference_best_split, split_gain


def test_separable_1d_single_root_split():
    d = build_dataset([[0.0], [1.0], [10.0], [11.0]], ["A", "A", "B", "B"])
    model = train_tree(d, min_parent=2)
    root = model.nodes[0]
    assert "threshold" in root
    assert 1.0 < root["threshold"] < 10.0
    assert [model.predict(m.features) for m in d.measurements] == ["A", "A", "B", "B"]
    # one split was enough
    assert sum(1 for n in model.nodes if "threshold" in n) == 1


def test_pure_input_stays_single_leaf():
    d = build_dataset([[1.0], [2.0], [3.0]], ["A", "A", "A"])
    model = train_tree(d, min_parent=2)
    assert len(model.nodes) == 1
    assert "counts" in model.nodes[0]


def test_small_node_is_not_split():
    d = build_dataset([[0.0], [10.0]], ["A", "B"])
    model = train_tree(d, min_parent=10)
    assert len(model.nodes) == 1


def test_root_split_beats_exhaustive_scan():
    for seed in range(8):
        rng = np.random.default_rng(300 + seed)
        d = random_dataset(rng, 3, int(rng.integers(4, 14)), int(rng.integers(2, 7)))
        rows = [m.features.tolist() for m in d.measurements]
        labels = d.labels()
        found = best_split(d.feature_matrix(), d.label_indices(), 3)
        assert found is not None
        _, feature, threshold = found
        chosen_gain = split_gain(rows, labels, feature, threshold)
        best_scanned = max(g for g, _, _ in all_split_gains(rows, labels))
        assert chosen_gain >= best_scanned - 1e-12


def test_hand_built_tree_routing():
    # x0 <= 5 -> leaf A; else x1 <= 2 -> leaf B else leaf C
    nodes = [
        {"feature": 0, "threshold": 5.0, "left": 1, "right": 2},
        {"counts": np.array([4, 0, 0])},
        {"feature": 1, "threshold": 2.0, "left": 3, "right": 4},
        {"counts": np.array([0, 3, 0])},
        {"counts": np.array([0, 0, 2])},
    ]
    model = DecisionTreeModel(
        classes=["A", "B", "C"], nodes=nodes, class_frequency=np.array([4, 3, 2])
    )
    assert model.predict([0.0, 9.0]) == "A"
    assert model.predict([5.0, 9.0]) == "A"  # boundary goes left
    assert model.predict([6.0, 1.0]) == "B"
    assert model.predict([6.0, 3.0]) == "C"


def test_batch_ranking_equals_per_row_ranking():
    # Ties among present classes (B and D in the left leaf) and among
    # absent classes (A and C share the global frequency in both leaves).
    nodes = [
        {"feature": 1, "threshold": 0.5, "left": 1, "right": 2},
        {"counts": np.array([0, 2, 0, 2, 1])},
        {"counts": np.array([0, 0, 0, 0, 3])},
    ]
    model = DecisionTreeModel(
        classes=["A", "B", "C", "D", "E"], nodes=nodes,
        class_frequency=np.array([3, 2, 3, 2, 4]),
    )
    X = np.array([[9.0, 0.0], [9.0, 1.0], [-1.0, 0.5], [0.0, 0.6]])
    batch = model.rank_classes_many(X)
    assert np.array_equal(batch, np.stack([model.rank_classes(x) for x in X]))
    assert batch.tolist()[:2] == [[1, 3, 4, 0, 2], [4, 0, 2, 1, 3]]


def test_leaf_distribution_argmax_and_topk():
    nodes = [{"counts": np.array([7, 3, 0])}]
    model = DecisionTreeModel(
        classes=["A", "B", "C"], nodes=nodes, class_frequency=np.array([10, 5, 20])
    )
    assert model.predict([0.0]) == "A"
    assert model.predict_topk([0.0], 2) == ["A", "B"]
    # absent class ranks last despite the largest global frequency
    assert model.predict_topk([0.0], 3) == ["A", "B", "C"]


def test_absent_classes_ranked_by_global_frequency():
    nodes = [{"counts": np.array([5, 0, 0, 0])}]
    model = DecisionTreeModel(
        classes=["A", "B", "C", "D"],
        nodes=nodes,
        class_frequency=np.array([5, 2, 9, 2]),
    )
    # C has the highest global frequency; B vs D tie falls to the lower index
    assert model.predict_topk([0.0], 4) == ["A", "C", "B", "D"]


def test_unbounded_tree_memorizes_distinct_vectors():
    rng = np.random.default_rng(4)
    d = random_dataset(rng, 3, 6, 4)
    model = train_tree(d, max_splits=10_000, min_parent=2)
    hits = sum(model.predict(m.features) == m.label for m in d.measurements)
    assert hits == len(d)


def test_capped_tree_beats_majority_class():
    rng = np.random.default_rng(5)
    d = random_dataset(rng, 4, 12, 5)
    model = train_tree(d)  # default caps: N-1 splits, min_parent 10
    hits = sum(model.predict(m.features) == m.label for m in d.measurements)
    majority = max(len(v) for v in d.by_class().values())
    assert hits >= majority


def test_split_budget_is_respected():
    rng = np.random.default_rng(6)
    d = random_dataset(rng, 4, 10, 4)
    model = train_tree(d, max_splits=2, min_parent=2)
    assert sum(1 for n in model.nodes if "threshold" in n) <= 2


def test_threshold_is_midpoint_of_consecutive_values():
    d = build_dataset([[0.0], [2.0], [10.0], [14.0]], ["A", "A", "B", "B"])
    found = best_split(d.feature_matrix(), d.label_indices(), 2)
    assert found is not None
    assert found[2] == pytest.approx(6.0)  # (2 + 10) / 2


def _near_tie_columns(seed):
    """(X, y, n_classes): 40 columns of 0s and 1s whose one cut sends the
    same class counts left, permuted over classes of equal size. Their
    gains are one real number, which rounding tells apart in the last
    bits, differently in the screen and in the exact scoring."""
    rng = np.random.default_rng(seed)
    n_classes = int(rng.choice([3, 4, 5, 6, 9, 12]))
    per_class = int(rng.integers(4, 12))
    left_sizes = rng.integers(0, per_class + 1, size=n_classes)
    y = np.repeat(np.arange(n_classes), per_class)
    if seed % 2:
        y = rng.permutation(y)
    X = np.ones((len(y), 40))
    for j in range(X.shape[1]):
        for k, size in enumerate(rng.permutation(left_sizes)):
            X[np.flatnonzero(y == k)[:size], j] = 0.0
    return X, y, n_classes


def _split_case(case):
    """(X, y, n_classes, min_leaf, screen bytes or None) for one case."""
    if isinstance(case, int):
        # Small integer features tie often, within and across columns;
        # copied columns tie exactly; some classes may be absent.
        rng = np.random.default_rng(600 + case)
        n = int(rng.integers(2, 40))
        n_features = int(rng.choice([1, 5, 40, 300]))
        n_classes = int(rng.integers(2, 8))
        if case % 2:
            X = rng.integers(0, 4, size=(n, n_features)).astype(np.float64)
        else:
            X = rng.normal(size=(n, n_features))
        X[:, -1] = X[:, 0]
        y = rng.integers(0, n_classes, size=n)
        return X, y, n_classes, int(rng.integers(1, 4)), None
    rng = np.random.default_rng(700)
    if case in ("30 classes, n 1200", "6 classes, n 1002"):
        # The class-axis sum is pairwise from 8 classes up, sequential below.
        n_classes, per_class = (30, 40) if case.startswith("30") else (6, 167)
        y = np.repeat(np.arange(n_classes), per_class)
        X = np.hstack([rng.normal(size=(len(y), 20)) + 0.3 * y[:, None],
                       rng.integers(0, 6, size=(len(y), 12)).astype(np.float64)])
        return X, y, n_classes, 1, None
    if case == "duplicate and constant columns":
        y = rng.integers(0, 4, size=60)
        X = rng.integers(0, 3, size=(60, 30)).astype(np.float64)
        X[:, 3] = 2 * (y % 2)  # the best column, and its copy at 13
        X[:, ::7] = 2.5
        X[:, 10:20] = X[:, :10]
        return X, y, 4, 2, None
    if case == "exact ties across chunks":
        # The best column's 12 copies land in different chunks of the
        # screen and in both batches of the exact scoring.
        y = np.repeat(np.arange(3), 10)
        X = rng.normal(size=(30, 40))
        X[:, [7, *range(15, 25), 33]] = (y[:, None] > 0) + rng.normal(scale=0.1, size=(30, 1))
        return X, y, 3, 1, 8 * 30 * tree._SCREEN_CELL_BYTES  # 8 columns a chunk
    if case in NEAR_TIE_SEEDS:
        return (*_near_tie_columns(NEAR_TIE_SEEDS[case]), 1, None)
    raise AssertionError(case)


# A screen that kept only its own best cuts would pick another column in
# each of these.
NEAR_TIE_SEEDS = {"near ties, 4 classes": 38, "near ties, 9 classes": 59,
                  "exact ties, 12 classes": 13}


SPLIT_CASES = [*range(16), "30 classes, n 1200", "6 classes, n 1002",
               "duplicate and constant columns", "exact ties across chunks", *NEAR_TIE_SEEDS]


@pytest.mark.parametrize("case", SPLIT_CASES)
def test_split_scan_matches_the_reference_bit_for_bit(case, monkeypatch):
    X, y, n_classes, min_leaf, screen_bytes = _split_case(case)
    if screen_bytes is not None:
        monkeypatch.setattr(tree, "_SCREEN_BYTES", screen_bytes)
    found = best_split(X, y, n_classes, min_leaf)
    expected = reference_best_split(X, y, n_classes, min_leaf)
    assert found == expected
    if found is not None:
        assert np.float64(found[0]).tobytes() == np.float64(expected[0]).tobytes()


def test_near_tie_cases_differ_in_the_last_bits():
    # Each column's best gain is the same real number, rounded apart.
    for case in ("near ties, 4 classes", "near ties, 9 classes"):
        X, y, n_classes, _, _ = _split_case(case)
        gains = {reference_best_split(X[:, [j]], y, n_classes)[0] for j in range(X.shape[1])}
        assert len(gains) > 1 and max(gains) - min(gains) < 1e-14


def test_split_screen_holds_no_more_memory_than_the_reference():
    rng = np.random.default_rng(8)
    X, y = rng.normal(size=(240, 3000)), rng.integers(0, 6, size=240)
    peaks = []
    for scan in (best_split, reference_best_split):
        tracemalloc.start()
        try:
            scan(X, y, 6)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= peaks[1]


def test_log2_is_within_the_error_the_screen_margin_assumes():
    # The margin takes np.log2 to be within 4 ulp; check it on the counts
    # and count ratios the screen and the entropy table take logs of.
    x = np.unique(np.concatenate([np.arange(1, 1201, dtype=np.float64),
                                  (np.arange(1, 61)[:, None] / np.arange(1, 61)).ravel()]))
    computed = np.log2(x)
    with localcontext(prec=40):
        ln2 = Decimal(2).ln()
        exact = np.array([float(Decimal(v).ln() / ln2) for v in x.tolist()])
    ulps = np.abs(computed - exact) / np.spacing(np.maximum(np.abs(exact), 1e-300))
    assert ulps.max() <= tree._LOG2_ERROR / 2


def test_split_scan_of_fewer_than_two_rows_finds_nothing():
    for n in (0, 1):
        X, y = np.zeros((n, 3)), np.zeros(n, dtype=np.int64)
        assert best_split(X, y, 2) is None
        assert reference_best_split(X, y, 2) is None


def test_split_scan_picks_the_first_feature_among_equal_gains():
    # Columns 0 and 2 separate the classes equally well; 1 and 3 do not.
    X = np.array([[0.0, 5.0, 0.0, 1.0], [1.0, 5.0, 1.0, 1.0], [2.0, 5.0, 2.0, 1.0],
                  [3.0, 5.0, 3.0, 1.0]])
    y = np.array([0, 0, 1, 1])
    found = best_split(X, y, 2)
    assert found == reference_best_split(X, y, 2) == (1.0, 0, 1.5)
    # Far apart: the copy in column 200 loses the tie to column 3.
    wide = np.zeros((4, 201))
    wide[:, 3] = wide[:, 200] = X[:, 0]
    assert best_split(wide, y, 2) == reference_best_split(wide, y, 2) == (1.0, 3, 1.5)


def test_threshold_between_adjacent_doubles_routes_as_scored():
    # The midpoint of 1+ulp and 1+2ulp rounds to 1+2ulp, which would send
    # the upper value left as well; the threshold falls back to the lower.
    lo = np.nextafter(1.0, 2.0)
    hi = np.nextafter(lo, 2.0)
    assert (lo + hi) / 2.0 == hi
    d = build_dataset([[lo], [lo], [hi], [hi]], ["A", "A", "B", "B"])
    gain, feature, threshold = best_split(d.feature_matrix(), d.label_indices(), 2)
    assert (gain, feature, threshold) == (1.0, 0, lo)
    model = train_tree(d, min_parent=2)
    assert model.nodes[0]["threshold"] == lo
    assert [model.predict(m.features) for m in d.measurements] == ["A", "A", "B", "B"]


def test_threshold_falls_back_when_the_midpoint_overflows():
    big = np.finfo(np.float64).max
    d = build_dataset([[big / 2], [big / 2], [big], [big]], ["A", "A", "B", "B"])
    model = train_tree(d, min_parent=2)
    assert model.nodes[0]["threshold"] == big / 2
    assert [model.predict(m.features) for m in d.measurements] == ["A", "A", "B", "B"]
