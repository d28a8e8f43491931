import numpy as np
import pytest

from perfprint.classifiers import train_tree
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


@pytest.mark.parametrize("seed", range(16))
def test_split_scan_matches_the_reference_bit_for_bit(seed):
    # Small integer features tie often, within and across columns; copied
    # columns tie exactly, also across the 128-column chunks; some classes
    # may be absent from the node.
    rng = np.random.default_rng(600 + seed)
    n = int(rng.integers(2, 40))
    n_features = int(rng.choice([1, 5, 40, 300]))
    n_classes = int(rng.integers(2, 8))
    if seed % 2:
        X = rng.integers(0, 4, size=(n, n_features)).astype(np.float64)
    else:
        X = rng.normal(size=(n, n_features))
    X[:, -1] = X[:, 0]
    y = rng.integers(0, n_classes, size=n)
    min_leaf = int(rng.integers(1, 4))
    found = best_split(X, y, n_classes, min_leaf)
    expected = reference_best_split(X, y, n_classes, min_leaf)
    assert found == expected
    if found is not None:
        assert np.float64(found[0]).tobytes() == np.float64(expected[0]).tobytes()


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
    # Across chunks: the copy in column 200 loses the tie to column 3.
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
