import tracemalloc

import numpy as np
import pytest

from perfprint.classifiers import load_model, save_model, train_net
from perfprint.classifiers.net import (
    DEFAULT_MEMORY_BUDGET_MB,
    Workspace,
    autoencoder_grads,
    autoencoder_loss,
    descend,
    estimate_memory_mb,
    sigmoid,
    softmax,
    stack_grads,
    stack_loss,
)
from perfprint.errors import ConfigError, DataError

from helpers import random_dataset
from oracles import (
    finite_difference_grads,
    reference_sigmoid,
    reference_stack_loss,
    reference_train_net,
)


def _relative_errors(analytic, numeric):
    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-8)
        worst = max(worst, float((np.abs(a - n) / denom).max()))
    return worst


def test_stack_gradients_match_finite_differences():
    # full fine-tune stack on a 4 -> 3 -> 2 net with a 2-way softmax head
    rng = np.random.default_rng(42)
    X = rng.normal(size=(7, 4))
    y = rng.integers(0, 2, size=7)
    onehot = np.zeros((7, 2))
    onehot[np.arange(7), y] = 1.0
    params = [
        rng.normal(scale=0.5, size=shape)
        for shape in [(4, 3), (3,), (3, 2), (2,), (2, 2), (2,)]
    ]
    analytic = stack_grads(params, X, onehot, 0.001,
                           stack_loss(params, X, onehot, 0.001, Workspace())[1], Workspace())
    numeric = finite_difference_grads(
        lambda p: stack_loss(p, X, onehot, 0.001, Workspace())[0], params)
    assert _relative_errors(analytic, numeric) < 1e-4


def test_autoencoder_gradients_match_finite_differences():
    rng = np.random.default_rng(43)
    X = rng.normal(size=(6, 4))
    params = [
        rng.normal(scale=0.5, size=shape) for shape in [(4, 3), (3,), (3, 4), (4,)]
    ]
    analytic = autoencoder_grads(params, X, 0.001,
                                 autoencoder_loss(params, X, 0.001, Workspace())[1], Workspace())
    numeric = finite_difference_grads(
        lambda p: autoencoder_loss(p, X, 0.001, Workspace())[0], params)
    assert _relative_errors(analytic, numeric) < 1e-4


def test_hidden_sizes_follow_class_count():
    rng = np.random.default_rng(44)
    d = random_dataset(rng, 2, 4, 10)
    model = train_net(d, seed=0, max_iterations=2)
    assert model.weights["w1"].shape == (10, 200)
    assert model.weights["w2"].shape == (200, 20)
    assert model.weights["ws"].shape == (20, 2)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(45)
    z = rng.normal(scale=30.0, size=(40, 7))
    sums = softmax(z).sum(axis=1)
    assert np.abs(sums - 1.0).max() < 1e-6

    d = random_dataset(rng, 3, 4, 6)
    model = train_net(d, seed=1, max_iterations=5)
    probs = model.probabilities(rng.normal(size=(9, 6)))
    assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-6


def test_probabilities_match_the_reference_forward_pass_bit_for_bit(tmp_path):
    rng = np.random.default_rng(45)
    model = train_net(random_dataset(rng, 3, 4, 6), seed=1, max_iterations=5)
    X = rng.normal(size=(9, 6))
    save_model(model, str(tmp_path / "net.model"))
    for net in (model, load_model(str(tmp_path / "net.model"))):
        params = [net.weights[name] for name in ("w1", "b1", "w2", "b2", "ws", "bs")]
        _, (_, _, p) = reference_stack_loss(params, X, np.zeros((9, 3)), 0.001)
        assert net.probabilities(X).tobytes() == p.tobytes()


def test_finetune_loss_decreases_on_synthetic_five_class_set():
    rng = np.random.default_rng(46)
    d = random_dataset(rng, 5, 8, 12, spread=5.0)
    model = train_net(d, seed=7, max_iterations=50)
    finetune = model.loss_history["finetune"]
    assert len(finetune) >= 2
    assert finetune[-1] < finetune[0]


def test_loss_histories_never_increase():
    rng = np.random.default_rng(47)
    d = random_dataset(rng, 3, 6, 8)
    model = train_net(d, seed=3, max_iterations=30)
    for stage, history in model.loss_history.items():
        diffs = np.diff(history)
        assert (diffs <= 1e-15).all(), f"{stage} loss increased"


def test_descend_rejecting_step_keeps_loss():
    # a quadratic with a deliberately huge rate: first steps must be rejected
    params = [np.array([10.0])]
    out, history = descend(
        params,
        lambda p: (float(p[0][0] ** 2), None),
        lambda p, cache: [2.0 * p[0]],
        max_iterations=50,
        learning_rate=100.0,
    )
    assert history == sorted(history, reverse=True)
    assert float(out[0][0] ** 2) < 100.0


def test_descend_runs_one_forward_pass_per_step():
    # Each loss call hands its forward pass to the next gradient call; a
    # rejected step reuses the gradients it already has.
    calls = []

    def loss_fn(p):
        calls.append("loss")
        x = float(p[0][0])
        return x * x, x

    def grad_fn(p, cache):
        calls.append("grad")
        assert cache == float(p[0][0])  # the cache of the accepted point
        return [np.array([2.0 * cache])]

    _, history = descend([np.array([10.0])], loss_fn, grad_fn, max_iterations=6,
                         learning_rate=3.0)
    assert calls.count("loss") == 6 + 1
    # The first two steps overshoot (rate 3, then 1.5) and are rejected; at
    # rate 0.75 every step lands on the other side of 0 and is accepted.
    assert calls == ["loss", "grad", "loss", "loss", "loss", "grad", "loss", "grad", "loss",
                     "grad", "loss"]
    assert history == [100.0, 100.0, 100.0, 25.0, 6.25, 1.5625, 0.390625]


def test_training_is_deterministic():
    rng = np.random.default_rng(48)
    d = random_dataset(rng, 3, 5, 6)
    a = train_net(d, seed=11, max_iterations=10)
    b = train_net(d, seed=11, max_iterations=10)
    for key in a.weights:
        assert np.array_equal(a.weights[key], b.weights[key])
    queries = rng.normal(size=(5, 6))
    assert np.array_equal(a.rank_classes_many(queries), b.rank_classes_many(queries))


def test_different_seed_changes_weights():
    rng = np.random.default_rng(49)
    d = random_dataset(rng, 2, 5, 6)
    a = train_net(d, seed=1, max_iterations=3)
    b = train_net(d, seed=2, max_iterations=3)
    assert not np.array_equal(a.weights["w1"], b.weights["w1"])


@pytest.mark.parametrize("budget_mb", [0.01, float("nan")])
def test_memory_budget_error_advises_downsampling(budget_mb):
    # No estimate fits within a nan budget.
    rng = np.random.default_rng(50)
    d = random_dataset(rng, 3, 4, 50)
    with pytest.raises(ConfigError, match="downsample"):
        train_net(d, seed=0, memory_budget_mb=budget_mb)
    assert not estimate_memory_mb(12, 50, 300, 30, 3) <= budget_mb


@pytest.mark.parametrize("n_classes, per_class, width, hidden1, hidden2", [
    (3, 6, 40, 16, 8),
    (3, 8, 60, None, None),
    (4, 10, 500, 20, 200),
])
def test_memory_estimate_bounds_the_training_peak(n_classes, per_class, width, hidden1, hidden2):
    d = random_dataset(np.random.default_rng(52), n_classes, per_class, width)
    tracemalloc.start()
    try:
        model = train_net(d, seed=0, hidden1=hidden1, hidden2=hidden2, max_iterations=4)
        peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    estimate = estimate_memory_mb(len(d), width, model.hyperparams["hidden1"],
                                  model.hyperparams["hidden2"], n_classes)
    assert peak_mb <= estimate <= 2.0 * peak_mb


def test_acceptance_net_fits_the_default_budget():
    # 30 classes x 40 training traces of 3 x 1,000 downsampled samples.
    assert estimate_memory_mb(1200, 3000, 3000, 300, 30) < DEFAULT_MEMORY_BUDGET_MB


def test_prediction_is_pure():
    rng = np.random.default_rng(51)
    d = random_dataset(rng, 3, 5, 6)
    model = train_net(d, seed=5, max_iterations=10)
    q = rng.normal(size=6)
    assert model.predict(q) == model.predict(q)
    assert model.predict_topk(q, 3) == model.predict_topk(q, 3)


def test_sigmoid_matches_the_masked_reference_bit_for_bit():
    tiny = np.nextafter(0.0, 1.0)
    edges = [0.0, -0.0, tiny, -tiny, 2.2250738585072014e-308, -2.2250738585072014e-308,
             710.0, -710.0, 745.2, -745.2, 1e308, -1e308, np.inf, -np.inf, np.nan, -np.nan]
    rng = np.random.default_rng(0)
    z = np.concatenate([edges, rng.normal(scale=30.0, size=4000)]).reshape(-1, 4)
    assert np.signbit(z[3, 3]) and not np.signbit(z[3, 2])  # both nan signs are covered
    assert sigmoid(z).view(np.uint64).tolist() == reference_sigmoid(z).view(np.uint64).tolist()



REFERENCE_CASES = {  # classes, rows per class, width, hidden1, hidden2, iterations, rate, l2
    "small": (3, 6, 40, 16, 8, 30, 0.1, 0.001),
    # hidden2 > hidden1: the second autoencoder's largest temporary is its error
    "wide": (4, 10, 500, 20, 200, 6, 0.1, 0.001),
    "rejected-steps": (3, 8, 60, None, None, 40, 50.0, 0.001),  # the rate overshoots
    # at l2 1e30 any step at a rate above the floor (1e-15) multiplies the
    # weights by about 1 - rate * l2, raising the L2 term, so each stage
    # halves its rate until it underflows
    "rate-underflow": (2, 5, 7, 3, 2, 80, 0.1, 1e30),
}


@pytest.mark.parametrize("case", REFERENCE_CASES)
def test_training_matches_the_fresh_array_reference_bit_for_bit(case):
    n_classes, per_class, width, hidden1, hidden2, iterations, rate, l2 = REFERENCE_CASES[case]
    d = random_dataset(np.random.default_rng(52), n_classes, per_class, width)
    model = train_net(d, seed=4, hidden1=hidden1, hidden2=hidden2, max_iterations=iterations,
                      softmax_iterations=iterations + 5, finetune_iterations=iterations - 2,
                      learning_rate=rate, l2_weight=l2)
    h = model.hyperparams
    weights, history = reference_train_net(
        d.feature_matrix(), d.label_indices(), n_classes, 4, h["hidden1"], h["hidden2"],
        iterations, iterations + 5, iterations - 2, h["l2_weight"], rate)
    assert [model.weights[k].tobytes() for k in ("w1", "b1", "w2", "b2", "ws", "bs")] == [
        w.tobytes() for w in weights]
    assert model.loss_history.keys() == history.keys()
    for stage, losses in history.items():
        assert np.array(model.loss_history[stage]).tobytes() == np.array(losses).tobytes()
    lengths = [len(losses) for losses in history.values()]
    if case == "rate-underflow":
        assert all(n < iterations - 1 for n in lengths)
    else:
        assert lengths == [iterations + 1, iterations + 1, iterations + 6, iterations - 1]
    if case == "rejected-steps":  # a rejected step repeats the loss it kept
        assert any(a == b for losses in history.values() for a, b in zip(losses, losses[1:]))


@pytest.mark.parametrize("value", [1e300, np.nan])
def test_a_stage_whose_first_loss_is_not_finite_raises(value):
    # 1e300 is finite, but its square in the first autoencoder's loss is not.
    d = random_dataset(np.random.default_rng(53), 2, 5, 7)
    x = d.feature_matrix().copy()
    x[0, 3] = value
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DataError, match="net stage autoencoder1: the initial loss is "):
            train_net(d.with_features(x), seed=0, max_iterations=5)
