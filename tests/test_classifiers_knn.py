import numpy as np
import pytest

from perfprint.classifiers import train_knn
from perfprint.classifiers.knn import KnnModel
from perfprint.errors import ConfigError, DataError

from helpers import build_dataset, random_dataset
from oracles import knn_rank


def test_k1_echoes_training_labels():
    rng = np.random.default_rng(0)
    d = random_dataset(rng, 4, 5, 3)
    model = train_knn(d, k=1)
    for m in d.measurements:
        assert model.predict(m.features) == m.label


def test_duplicate_vector_tie_goes_to_lower_class_index():
    # identical features under two labels; class index order breaks the tie
    d = build_dataset([[1.0, 1.0], [1.0, 1.0]], ["zed", "ack"])
    model = train_knn(d, k=1)
    assert model.predict([1.0, 1.0]) == "ack"


def test_2d_toy_analytic_nearest():
    d = build_dataset([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]], ["o", "x", "y"])
    model = train_knn(d, k=1)
    assert model.predict([1.0, 1.0]) == "o"
    assert model.predict([9.0, 1.0]) == "x"
    assert model.predict([1.0, 9.0]) == "y"


def test_equidistant_classes_pick_lower_index():
    d = build_dataset([[-1.0], [1.0]], ["b", "a"])
    model = train_knn(d, k=2)
    # both neighbors vote once with equal distance; "a" has the lower index
    assert model.predict([0.0]) == "a"


def test_topk_full_depth_is_class_permutation():
    rng = np.random.default_rng(1)
    d = random_dataset(rng, 5, 4, 3)
    model = train_knn(d, k=3)
    ranked = model.predict_topk(rng.normal(size=3), model.n_classes)
    assert sorted(ranked) == sorted(model.classes)


def test_matches_brute_force_oracle_exactly():
    mismatches = 0
    for seed in range(12):
        rng = np.random.default_rng(200 + seed)
        n_classes = int(rng.integers(2, 6))
        d = random_dataset(rng, n_classes, int(rng.integers(2, 6)), int(rng.integers(2, 10)))
        x_list = [m.features.tolist() for m in d.measurements]
        y_list = d.label_indices().tolist()
        for k in (1, 3, 5):
            if k > len(d):
                continue
            model = train_knn(d, k=k)
            for _ in range(10):
                q = rng.normal(scale=3.0, size=d.feature_length)
                expected = [model.classes[i] for i in
                            knn_rank(x_list, y_list, n_classes, q.tolist(), k)]
                if model.predict_topk(q, n_classes) != expected:
                    mismatches += 1
    assert mismatches == 0


def test_rejects_bad_k():
    d = build_dataset([[1.0], [2.0]], ["a", "b"])
    with pytest.raises(ConfigError):
        train_knn(d, k=0)
    with pytest.raises(ConfigError):
        train_knn(d, k=3)


def test_batch_prediction_matches_single():
    rng = np.random.default_rng(3)
    d = random_dataset(rng, 3, 4, 5)
    model = train_knn(d, k=3)
    queries = rng.normal(size=(8, 5))
    batch = model.predict_topk_many(queries, 3)
    single = [model.predict_topk(q, 3) for q in queries]
    assert batch == single


def test_a_training_row_whose_square_overflows_is_refused():
    # 1e200 squared is inf: the exact match (1e200, 0) 'b' would get a nan
    # distance and rank last, behind 'a' and 'c', with no error.
    d = build_dataset([[0.0, 0.0], [1e200, 0.0], [5.0, 5.0]], ["a", "b", "c"])
    with np.errstate(over="ignore"):
        with pytest.raises(DataError, match="knn: the training features must be finite"):
            train_knn(d, k=1)
        # load_model builds through the same constructor, so it refuses too.
        with pytest.raises(DataError, match="knn: the training features must be finite"):
            KnnModel.from_payload(["a", "b", "c"], {"k": 1, "train_x": d.feature_matrix(),
                                                    "train_y": [0, 1, 2]}, {"k": 1}, None)


def test_a_query_whose_distances_overflow_is_refused():
    model = train_knn(build_dataset([[0.0, 0.0], [5.0, 5.0]], ["a", "c"]), k=1)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DataError, match="knn: a query's distances are not finite"):
            model.rank_classes_many([[1.0, 1.0], [1e200, 0.0]])
    # A query whose square is finite still ranks; at this size the two
    # distances round equal, and the tie goes to the lower class index.
    assert model.rank_classes_many([[1e150, 0.0]]).tolist() == [[0, 1]]
