"""Single-trace ranking against reference copies (tests/oracles.py): kNN
distances and rankings with the training-row norms cached at construction,
and SVM votes and magnitudes from one bincount, bit for bit, on random
small problems with ties, duplicate rows and absent classes."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perfprint.classifiers.knn import KnnModel
from perfprint.classifiers.svm import LinearSvmModel

from oracles import reference_knn_distances, reference_knn_rankings, reference_vote_scores

# derandomize keeps the examples fixed from run to run.
PROPERTY = settings(derandomize=True, database=None, max_examples=150, deadline=None)

# Small integers make exact ties, zero distances and zero decisions common;
# wide floats make the order of a sum matter to its last bit.
VALUES = st.one_of(
    st.integers(-2, 2).map(float),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)


def _matrix(draw, rows, cols):
    return np.array([[draw(VALUES) for _ in range(cols)] for _ in range(rows)], dtype=np.float64)


@st.composite
def knn_problems(draw):
    n_classes = draw(st.integers(1, 5))
    width = draw(st.integers(1, 4))
    n_train = draw(st.integers(1, 10))
    train_x = _matrix(draw, n_train, width)
    # Labels come from a subset of the classes, so some classes may be absent.
    present = draw(st.lists(st.integers(0, n_classes - 1), min_size=1, unique=True))
    train_y = [draw(st.sampled_from(present)) for _ in range(n_train)]
    if n_classes > 1 and draw(st.booleans()):
        # The same training row under a second label.
        row = draw(st.integers(0, n_train - 1))
        train_x = np.vstack([train_x, train_x[row]])
        train_y.append((train_y[row] + 1) % n_classes)
    train_y = np.array(train_y, dtype=np.int64)
    k = draw(st.integers(1, len(train_y)))
    queries = _matrix(draw, draw(st.integers(1, 4)), width)
    # Queries on training rows put exact zeros among the distances.
    picks = draw(st.lists(st.integers(0, len(train_y) - 1), max_size=2))
    queries = np.vstack([queries, train_x[picks]])
    return n_classes, train_x, train_y, k, queries


def _knn(n_classes, train_x, train_y, k):
    return KnnModel([f"class-{i}" for i in range(n_classes)], train_x, train_y, k)


@PROPERTY
@given(knn_problems())
def test_knn_rankings_match_the_reference_bitwise(problem):
    n_classes, train_x, train_y, k, queries = problem
    model = _knn(n_classes, train_x, train_y, k)
    assert model._distances(queries).tobytes() == reference_knn_distances(train_x, queries).tobytes()
    want = reference_knn_rankings(train_x, train_y, n_classes, k, queries)
    batch = model.rank_classes_many(queries)
    assert batch.dtype == want.dtype and np.array_equal(batch, want)
    assert np.array_equal(np.stack([model.rank_classes(q) for q in queries]), want)
    reloaded = KnnModel.from_payload(model.classes, model.to_payload(), model.hyperparams, None)
    assert np.array_equal(reloaded.rank_classes_many(queries), want)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_knn_every_k_up_to_n_matches_the_reference(k):
    # Two duplicate rows under two labels, and class 3 absent from training.
    train_x = np.array([[0.0, 1.0], [0.0, 1.0], [2.0, 0.0], [-1.0, -1.0], [3.0, 3.0], [1.0, 0.0]])
    train_y = np.array([2, 0, 1, 0, 4, 1])
    queries = np.array([[0.0, 1.0], [1.0, 0.5], [0.5, 0.5], [-2.0, 4.0]])
    model = _knn(5, train_x, train_y, k)
    want = reference_knn_rankings(train_x, train_y, 5, k, queries)
    assert np.array_equal(model.rank_classes_many(queries), want)
    assert np.array_equal(np.stack([model.rank_classes(q) for q in queries]), want)


def test_knn_training_rows_are_read_only():
    train_x = np.array([[0.0, 1.0], [2.0, 3.0]])
    model = _knn(2, train_x, np.array([0, 1]), 1)
    with pytest.raises(ValueError):
        model.train_x[0, 0] = 5.0
    # The caller's own array stays writable.
    train_x[0, 0] = 5.0


def test_knn_norms_stay_out_of_the_model_file():
    model = _knn(2, np.array([[0.0, 1.0], [2.0, 3.0]]), np.array([0, 1]), 1)
    assert set(model.to_payload()) == {"k", "train_x", "train_y"}


@st.composite
def svm_problems(draw):
    n_classes = draw(st.integers(2, 6))
    width = draw(st.integers(1, 3))
    pairs = list(itertools.combinations(range(n_classes), 2))
    weights = _matrix(draw, len(pairs), width)
    biases = _matrix(draw, 1, len(pairs))[0]
    X = _matrix(draw, draw(st.integers(1, 5)), width)
    return n_classes, pairs, weights, biases, X


def _svm(n_classes, pairs, weights, biases):
    return LinearSvmModel([f"class-{i}" for i in range(n_classes)], pairs, weights, biases)


@PROPERTY
@given(svm_problems())
def test_svm_vote_scores_match_the_reference_bitwise(problem):
    n_classes, pairs, weights, biases, X = problem
    model = _svm(n_classes, pairs, weights, biases)
    want_votes, want_magnitude = reference_vote_scores(pairs, X @ weights.T + biases, n_classes)
    votes, magnitude = model._vote_scores(X)
    assert votes.dtype == want_votes.dtype and votes.tobytes() == want_votes.tobytes()
    assert magnitude.dtype == want_magnitude.dtype
    assert magnitude.tobytes() == want_magnitude.tobytes()
    idx = np.broadcast_to(np.arange(n_classes), want_votes.shape)
    want = np.lexsort((idx, -want_magnitude, -want_votes), axis=-1)
    assert np.array_equal(model.rank_classes_many(X), want)
    assert np.array_equal(np.stack([model.rank_classes(x) for x in X]), want)
    reloaded = LinearSvmModel.from_payload(model.classes, model.to_payload(), {}, None)
    assert np.array_equal(reloaded.rank_classes_many(X), want)


def test_svm_zero_decisions_vote_for_the_lower_class():
    # Every decision is exactly 0: each pair's vote goes to its lower index.
    model = _svm(3, [(0, 1), (0, 2), (1, 2)], np.zeros((3, 2)), np.zeros(3))
    votes, magnitude = model._vote_scores(np.array([[1.0, -1.0]]))
    assert votes.tolist() == [[2.0, 1.0, 0.0]]
    assert magnitude.tolist() == [[0.0, 0.0, 0.0]]
    assert model.rank_classes(np.array([1.0, -1.0])).tolist() == [0, 1, 2]
