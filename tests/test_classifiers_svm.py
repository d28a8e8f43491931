import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perfprint.classifiers import LinearSvmModel, train_svm
from perfprint.classifiers.svm import solve_pair
from perfprint.errors import DataError

from helpers import build_dataset, random_dataset
from oracles import dual_objective, reference_solve_pair, svm_grid_dual_max


def _separable_pair(seed, gap=4.0):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(10, 2)) + [gap, gap]
    b = rng.normal(size=(10, 2)) - [gap, gap]
    return np.vstack([a, b]), np.array([1.0] * 10 + [-1.0] * 10)


def test_separable_training_accuracy_and_margins():
    for seed in range(10):
        X, y = _separable_pair(seed)
        w, b, alpha, _ = solve_pair(X, y, 1.0)
        predictions = np.where(X @ w + b >= 0, 1.0, -1.0)
        assert (predictions == y).all()
        # the 1e-6 margin bound needs a run past the default 1e-3 stop
        w, b, alpha, _ = solve_pair(X, y, 1.0, tol=1e-8)
        margins = y * (X @ w + b)
        support = alpha > 1e-12
        assert margins[support].min() >= 1.0 - 1e-6


def test_dual_matches_grid_oracle_on_four_points():
    for seed in range(6):
        rng = np.random.default_rng(400 + seed)
        X = rng.normal(size=(4, 2))
        y = np.array([1.0, 1.0, -1.0, -1.0])
        _, _, alpha, dual = solve_pair(X, y, 1.0)
        assert dual == pytest.approx(dual_objective(alpha, X, y), abs=1e-9)
        assert dual == pytest.approx(svm_grid_dual_max(X, y, 1.0), abs=1e-3)


def test_pair_count_is_n_choose_2():
    rng = np.random.default_rng(8)
    d = random_dataset(rng, 5, 3, 2)
    model = train_svm(d)
    assert len(model.pairs) == 10
    assert model.pairs == [(i, j) for i in range(5) for j in range(i + 1, 5)]
    assert 30 * 29 // 2 == 435  # the scale the full study runs at


def test_two_class_predict_is_the_sign_rule():
    d = build_dataset([[2.0, 2.0], [3.0, 3.0], [-2.0, -2.0], [-3.0, -3.0]],
                      ["pos", "pos", "neg", "neg"])
    model = train_svm(d)
    (w,) = model.weights
    (b,) = model.biases
    for q in ([4.0, 4.0], [-4.0, -4.0], [1.0, 0.5], [-0.5, -1.0]):
        expected = "neg" if np.dot(w, q) + b >= 0 else "pos"
        assert model.predict(q) == expected


def test_unanimous_votes_win():
    rng = np.random.default_rng(9)
    d = random_dataset(rng, 4, 6, 3, spread=8.0)
    model = train_svm(d)
    votes, _ = model._vote_scores(d.feature_matrix())
    winners = votes.argmax(axis=1)
    for row, cls in enumerate(winners):
        if votes[row, cls] == model.n_classes - 1:  # unanimous
            assert model.predict(d.measurements[row].features) == model.classes[cls]


def test_three_class_vote_tally_matches_hand_count():
    rng = np.random.default_rng(10)
    d = random_dataset(rng, 3, 8, 2, spread=6.0)
    model = train_svm(d)
    q = rng.normal(size=2)
    decisions = model.weights @ q + model.biases
    votes = {c: 0 for c in range(3)}
    magnitude = {c: 0.0 for c in range(3)}
    for (ci, cj), dec in zip(model.pairs, decisions):
        winner = ci if dec >= 0 else cj
        votes[winner] += 1
        magnitude[winner] += abs(dec)
    expected = sorted(range(3), key=lambda c: (-votes[c], -magnitude[c], c))
    assert model.predict_topk(q, 3) == [model.classes[c] for c in expected]


def test_scaled_features_keep_predictions_on_cluster_points():
    # The w part of the augmented model is scale-equivariant under
    # C' = C/s^2; the regularized bias is not, so the property is exercised
    # on origin-symmetric clusters whose pairwise boundaries carry b ~ 0.
    rng = np.random.default_rng(11)
    centers = np.array([[-10.0, -10.0], [10.0, -10.0], [0.0, 10.0]])
    rows, labels = [], []
    for c, center in enumerate(centers):
        for _ in range(8):
            rows.append(center + rng.normal(size=2))
            labels.append(f"class-{c}")
    d = build_dataset(rows, labels)
    scale = 10.0
    scaled = build_dataset([np.asarray(r) * scale for r in rows], labels)
    base = train_svm(d, c=1.0)
    rescaled = train_svm(scaled, c=1.0 / scale**2)
    for m in d.measurements:
        assert base.predict(m.features) == rescaled.predict(m.features * scale)


def test_single_class_rejected():
    d = build_dataset([[1.0], [2.0]], ["only", "only"])
    with pytest.raises(DataError):
        train_svm(d)


def test_solver_is_deterministic():
    X, y = _separable_pair(3)
    first = solve_pair(X, y, 1.0)
    second = solve_pair(X, y, 1.0)
    assert np.array_equal(first[0], second[0])
    assert first[1] == second[1]
    assert np.array_equal(first[2], second[2])


def _bits(result):
    w, b, alpha, dual = result
    return w.tobytes(), np.float64(b).tobytes(), alpha.tobytes(), np.float64(dual).tobytes()


# derandomize keeps the examples fixed from run to run.
PROPERTY = settings(derandomize=True, database=None, max_examples=150, deadline=None)


@st.composite
def pair_problems(draw):
    """Small pair problems, many with a singular Q: more rows than features
    plus one, zero-width rows (the deny policy), rows repeated under the
    other label, and all rows identical."""
    n = draw(st.sampled_from([2, 3, 5, 9, 16, 24]))
    shape = draw(st.sampled_from(["random", "zero-width", "duplicates", "identical"]))
    d = 0 if shape == "zero-width" else draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.normal(size=(n, d)) * draw(st.sampled_from([0.1, 1.0, 5.0]))
    y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    y[0], y[-1] = 1.0, -1.0
    if shape == "duplicates":
        half = n // 2
        X[half:2 * half] = X[:half]
        y[half:2 * half] = -y[:half]
    elif shape == "identical":
        X[:] = X[0]
    c = draw(st.sampled_from([0.05, 1.0, 100.0]))
    tol = draw(st.sampled_from([1e-3, 1e-12]))
    return X, y, c, tol


def _violation(X, y, c, result):
    """The projected-gradient violation recomputed from X, y, w and b."""
    w, b, alpha, _ = result
    g = y * (X @ w + b) - 1.0
    pg = np.where(alpha <= 0.0, np.minimum(g, 0.0), np.where(alpha >= c, np.maximum(g, 0.0), g))
    return np.abs(pg).max()


@PROPERTY
@given(pair_problems())
def test_solve_pair_is_certified_or_optimal_to_rounding(problem):
    # Singular Q included, every problem is certified at tol 1e-3. At tol
    # 1e-12 about one in a hundred stops before the iteration cap a few
    # 1e-12 off, from rounding in Q @ alpha: optimal, but not certified.
    X, y, c, tol = problem
    result = solve_pair(X, y, c, tol=tol)
    _, _, alpha, dual = result
    assert ((alpha >= 0.0) & (alpha <= c)).all()
    assert _violation(X, y, c, result) <= result.stats.violation < max(tol, 1e-10)
    assert result.stats.steps < 10 * (len(y) + 1)
    _, _, _, reference_dual = reference_solve_pair(X, y, c, 1e-12, 1000)
    assert dual >= reference_dual - len(y) * c * max(tol, result.stats.violation)


def test_uncertified_pairs_run_to_the_iteration_cap():
    # tol 0 can never be certified, nor tol 1e-12 within five iterations.
    # At max_passes 1000 the cap is 10 * (n + 1); a pair that stops short
    # of it has no multiplier left that breaks tol and is optimal to
    # rounding.
    reached = 0
    for seed in range(40):
        rng = np.random.default_rng(900 + seed)
        n, d = int(rng.integers(10, 25)), int(rng.integers(1, 7))
        X = rng.normal(size=(n, d)) * 5.0
        y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        y[0], y[-1] = 1.0, -1.0
        for c, tol in ((100.0, 1e-12), (1.0, 0.0)):
            result = solve_pair(X, y, c, tol=tol, max_passes=5)
            assert result.stats.steps == 5
            assert result.stats.violation >= tol
            assert result.stats.violation >= _violation(X, y, c, result)
            result = solve_pair(X, y, c, tol=tol, max_passes=1000)
            assert result.stats.steps <= 10 * (n + 1)
            assert result.stats.steps == 10 * (n + 1) or result.stats.violation < 1e-9
            reached += result.stats.steps == 10 * (n + 1)
    assert reached > 0  # the 10 * (n + 1) side of the cap binds too


def test_max_passes_bounds_the_active_set_too():
    rng = np.random.default_rng(0)
    X = np.vstack([rng.normal(size=(20, 3)) + 0.3, rng.normal(size=(20, 3)) - 0.3])
    y = np.array([1.0] * 20 + [-1.0] * 20)
    assert solve_pair(X, y, 1.0).stats.violation < 1e-3
    capped = solve_pair(X, y, 1.0, max_passes=1)
    assert capped.stats.steps == 1 and capped.stats.violation >= 1e-3


def test_pair_solution_copies_keep_their_stats():
    rng = np.random.default_rng(3)
    X, y = rng.normal(size=(6, 2)), np.array([1.0, -1.0] * 3)
    result = solve_pair(X, y, 1.0)
    for twin in (copy.copy(result), copy.deepcopy(result), pickle.loads(pickle.dumps(result))):
        assert twin.stats == result.stats and _bits(twin) == _bits(result)


def test_training_keeps_each_pair_solve_off_the_file():
    rng = np.random.default_rng(12)
    d = random_dataset(rng, 4, 6, 3, spread=1.0)
    model = train_svm(d)
    assert len(model.solve_stats) == len(model.pairs)
    assert all(stats.violation < 1e-3 for stats in model.solve_stats)
    assert set(model.to_payload()) == {"pairs", "weights", "biases"}
    reloaded = LinearSvmModel.from_payload(model.classes, model.to_payload(), model.hyperparams, None)
    assert reloaded.solve_stats == []
    assert model.solve_summary() == (
        "svm pairs: 6 certified, 0 uncertified at max_passes 1000 (tol 0.001)"
    )
    capped = train_svm(d, tol=0.0, max_passes=7)
    assert all(s.steps == 7 and s.violation > 0.0 for s in capped.solve_stats)
    assert capped.solve_summary().endswith("6 uncertified at max_passes 7 (tol 0)")
