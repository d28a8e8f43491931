"""Stacked-autoencoder network with a softmax head.

Three-stage training: two sigmoid autoencoders pretrained layerwise on
reconstruction loss, a softmax layer trained on the second hidden
representation, then end-to-end fine-tuning of the whole stack by
backpropagation. All stages run full-batch gradient descent with a
halving-on-increase learning-rate schedule, so the recorded loss history is
non-increasing and training is bit-reproducible from the seed.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ConfigError, DataError, check_seed
from .base import Model, _array, _floats, check_floors, rank_by, training_arrays

DEFAULT_MEMORY_BUDGET_MB = 2048.0
_MIN_LEARNING_RATE = 1e-15
_LAYERS = ("w1", "b1", "w2", "b2", "ws", "bs")  # payload names, in file order
_STAGES = ("autoencoder1", "autoencoder2", "softmax", "finetune")  # in training order
_STAGE_CAPS = ("max_iterations", "max_iterations", "softmax_iterations", "finetune_iterations")


def sigmoid(z: np.ndarray) -> np.ndarray:
    # Branch-free: e = exp(-|z|) never overflows, the numerator is 1 where
    # z >= 0 and e elsewhere, and the result is numerator / (1 + e), the
    # same IEEE operations on the same operands as exp(-z) where z >= 0 and
    # exp(z) / (1 + exp(z)) elsewhere. It relies on np.minimum and
    # np.maximum returning the nan operand (the first of two nans), so a
    # nan z stays its own nan; that was verified on numpy 2.4.6 only.
    # Working in place holds two z-sized arrays at most.
    e = np.negative(z)
    np.minimum(z, e, out=e)
    np.exp(e, out=e)
    d = 1.0 + e
    np.maximum(e, z >= 0, out=e)
    return np.divide(e, d, out=e)


def softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=-1, keepdims=True)
    ez = np.exp(shifted)
    return ez / ez.sum(axis=-1, keepdims=True)


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


class Workspace:
    """The arrays one training stage reuses from step to step.

    `named(name, shape)` returns the same array on every call with that
    name, and `scratch(shape)` a view of one flat buffer that grows to the
    largest temporary asked of it; a scratch view is overwritten by the next
    `scratch` call. The losses and gradients below take their stage's
    Workspace as their last argument. They do the same IEEE operations on
    the same contiguous shapes as fresh arrays would, so the results have
    the same bits.
    """

    def __init__(self):
        self._named: dict[str, np.ndarray] = {}
        self._flat = np.empty(0)

    def named(self, name: str, shape) -> np.ndarray:
        array = self._named.get(name)
        if array is None or array.shape != shape:
            array = self._named[name] = np.empty(shape)
        return array

    def scratch(self, shape) -> np.ndarray:
        size = math.prod(shape)
        if self._flat.size < size:
            self._flat = None  # freed before its replacement is allocated
            self._flat = np.empty(size)
        return self._flat[:size].reshape(shape)


def _square_sum(w, buffers) -> float:
    return float(np.multiply(w, w, out=buffers.scratch(w.shape)).sum())


def _dense_grads(name, a, d, w, l2, buffers):
    """A dense layer's gradients for input a, weights w and output
    derivative d: (a.T @ d + l2 * w, in the Workspace array `name`, and
    d.sum(axis=0))."""
    g = np.matmul(a.T, d, out=buffers.named(name, (a.shape[1], d.shape[1])))
    return np.add(g, np.multiply(w, l2, out=buffers.scratch(w.shape)), out=g), d.sum(axis=0)


def _sigmoid_back(d, w, h):
    """The derivative at sigmoid activations h, from the derivative d after
    their weights w."""
    return (d @ w.T) * h * (1.0 - h)


def _forward(params, X):
    """The stack's forward pass: (h1, h2, p), with p the class
    probabilities of each row of X."""
    w1, b1, w2, b2, ws, bs = params
    h1 = sigmoid(X @ w1 + b1)
    h2 = sigmoid(h1 @ w2 + b2)
    return h1, h2, softmax(h2 @ ws + bs)


def autoencoder_loss(params, X, l2, buffers):
    """Mean squared reconstruction error over all entries plus L2 on both
    weight matrices (biases unregularized). Sigmoid encoder, linear decoder.
    Returns (loss, cache); the cache holds the forward pass for
    `autoencoder_grads`, its reconstruction error in the Workspace's array
    "err"."""
    we, be, wd, bd = params
    h = sigmoid(X @ we + be)
    err = np.matmul(h, wd, out=buffers.named("err", X.shape))
    np.add(err, bd, out=err)
    np.subtract(err, X, out=err)
    # zero-width inputs (access-denied datasets) have nothing to reconstruct
    squares = np.multiply(err, err, out=buffers.scratch(err.shape))
    mse = 0.5 * float(squares.mean()) if err.size else 0.0
    reg = 0.5 * l2 * (_square_sum(we, buffers) + _square_sum(wd, buffers))
    return mse + reg, (h, err)


def autoencoder_grads(params, X, l2, cache, buffers):
    """Gradients from `autoencoder_loss`'s cache. The error in the cache is
    scaled in place into the output derivative, so a cache serves one call."""
    we, be, wd, bd = params
    h, err = cache
    scale = 1.0 / X.size if X.size else 0.0
    d_out = np.multiply(err, scale, out=err)
    g_wd, g_bd = _dense_grads("g_wd", h, d_out, wd, l2, buffers)
    g_we, g_be = _dense_grads("g_we", X, _sigmoid_back(d_out, wd, h), we, l2, buffers)
    return [g_we, g_be, g_wd, g_bd]


def _cross_entropy(p, y_onehot) -> float:
    return -float(np.log(np.clip((p * y_onehot).sum(axis=1), 1e-300, None)).mean())


def softmax_loss(params, H, y_onehot, l2, buffers):
    """Cross-entropy plus L2 on the weights; returns (loss, cache)."""
    ws, bs = params
    p = softmax(H @ ws + bs)
    return _cross_entropy(p, y_onehot) + 0.5 * l2 * _square_sum(ws, buffers), p


def softmax_grads(params, H, y_onehot, l2, cache, buffers):
    ws, bs = params
    d_z = (cache - y_onehot) / H.shape[0]
    return list(_dense_grads("g_ws", H, d_z, ws, l2, buffers))


def stack_loss(params, X, y_onehot, l2, buffers):
    """Cross-entropy of the full encoder stack plus L2 on all three weight
    matrices. `params` is (W1, b1, W2, b2, Ws, bs). Returns (loss, cache)."""
    w1, _, w2, _, ws, _ = params
    cache = _forward(params, X)
    reg = 0.5 * l2 * (
        _square_sum(w1, buffers) + _square_sum(w2, buffers) + _square_sum(ws, buffers)
    )
    return _cross_entropy(cache[2], y_onehot) + reg, cache


def stack_grads(params, X, y_onehot, l2, cache, buffers):
    w1, _, w2, _, ws, _ = params
    h1, h2, p = cache
    d_z3 = (p - y_onehot) / X.shape[0]
    g_ws, g_bs = _dense_grads("g_ws", h2, d_z3, ws, l2, buffers)
    d_h2 = _sigmoid_back(d_z3, ws, h2)
    g_w2, g_b2 = _dense_grads("g_w2", h1, d_h2, w2, l2, buffers)
    g_w1, g_b1 = _dense_grads("g_w1", X, _sigmoid_back(d_h2, w2, h1), w1, l2, buffers)
    return [g_w1, g_b1, g_w2, g_b2, g_ws, g_bs]


def descend(params, loss_fn, grad_fn, max_iterations, learning_rate):
    """Full-batch gradient descent with halving on loss increase.

    `loss_fn(params)` returns (loss, cache) and `grad_fn(params, cache)` the
    gradients from that cache, so each step runs one forward pass (the
    trial's) and, after an accepted step, one backward pass. A step that
    would raise the loss is rejected and the rate halved, keeping the
    gradients already computed, so the returned history is non-increasing.
    Stops early once the rate underflows. A first loss that is not finite
    raises DataError, since no step could be judged against it.

    The stage takes ownership of the arrays in the list `params`: it empties
    the list and writes into them. Each trial step is formed in a spare set
    of weights (`g * lr`, then `p - that`, in place), and an accepted step
    swaps the spare and the current set, so a stage allocates no weights
    after its first step. The gradients must not share memory with the
    weights, and a cache must not be needed after the next `loss_fn` call.
    """
    given, params = params, list(params)
    given.clear()
    spare = [np.empty_like(p) for p in params]
    lr = learning_rate
    # A loss that overflows is judged by its value, not by numpy's warning:
    # a first loss that is not finite raises, and a trial's is rejected.
    with np.errstate(over="ignore", invalid="ignore"):
        loss, cache = loss_fn(params)
    if not math.isfinite(loss):
        raise DataError(f"the initial loss is {loss}")
    history = [loss]
    grads = None
    for _ in range(max_iterations):
        if grads is None:
            grads = grad_fn(params, cache)
            cache = None  # the activations are not needed once the gradients exist
        with np.errstate(over="ignore", invalid="ignore"):
            for p, g, s in zip(params, grads, spare):
                np.multiply(g, lr, out=s)
                np.subtract(p, s, out=s)
            new_loss, new_cache = loss_fn(spare)
        if new_loss <= loss:
            params, spare = spare, params
            loss, cache, grads = new_loss, new_cache, None
        else:
            lr *= 0.5
            if lr < _MIN_LEARNING_RATE:
                break
        # A rejected trial's activations are dropped before the next one.
        new_cache = None
        history.append(loss)
    return params, history


def _stage(name, params, loss_fn, grad_fn, data, max_iterations, learning_rate):
    """`descend` on `loss_fn(p, *data)` and `grad_fn(p, *data, cache)` with
    one Workspace, which is freed when the stage returns."""
    buffers = Workspace()
    try:
        return descend(
            params,
            lambda p: loss_fn(p, *data, buffers),
            lambda p, cache: grad_fn(p, *data, cache, buffers),
            max_iterations,
            learning_rate,
        )
    except DataError as exc:
        raise DataError(f"net stage {name}: {exc}; the features must be finite and small "
                        "enough that their squares are") from None


class AutoencoderNetModel(Model):
    kind = "net"

    def __init__(self, classes, weights, hyperparams=None, seed=None):
        super().__init__(classes, seed=seed, hyperparams=hyperparams)
        # weights: dict with w1, b1, w2, b2, ws, bs
        self.weights = {k: np.asarray(v, dtype=np.float64) for k, v in weights.items()}
        # Per training stage, its losses; empty for a net that was not trained.
        self.loss_history: dict[str, list[float]] = {}

    @property
    def n_features(self) -> int:
        return self.weights["w1"].shape[0]

    def to_payload(self) -> dict:
        return dict(self.weights)

    @classmethod
    def from_payload(cls, classes, payload, hyperparams, seed):
        if set(payload) != set(_LAYERS):
            raise DataError(f"net payload must hold exactly {', '.join(_LAYERS)}")
        weights = {name: _array(obj) for name, obj in payload.items()}
        w1, b1, w2, b2, ws, bs = (weights[name] for name in _LAYERS)
        n_classes = len(classes)
        if not (
            w1.ndim == w2.ndim == ws.ndim == 2
            and b1.shape == (w1.shape[1],) and w2.shape[0] == w1.shape[1]
            and b2.shape == (w2.shape[1],) and ws.shape[0] == w2.shape[1]
            and ws.shape[1] == n_classes and bs.shape == (n_classes,)
        ):
            shapes = ", ".join(f"{name} {weights[name].shape}" for name in _LAYERS)
            raise DataError(f"net layer shapes do not chain into {n_classes} classes: {shapes}")
        return cls(classes, weights=weights, hyperparams=hyperparams, seed=seed)

    @property
    def stop_reasons(self) -> dict[str, str]:
        """Why each stage stopped: `descend` runs out its budget with a
        history of cap + 1 losses, or stops short when the rate underflows."""
        return {stage: "budget" if len(history) > self.hyperparams[cap] else "rate underflow"
                for (stage, history), cap in zip(self.loss_history.items(), _STAGE_CAPS)}

    def diagnostics(self) -> dict:
        return {"loss_history": self.loss_history, "stop_reasons": self.stop_reasons}

    def restore_diagnostics(self, diagnostics: dict):
        history, stopped = diagnostics["loss_history"], diagnostics["stop_reasons"]
        if not (isinstance(history, dict) and list(history) in ([], list(_STAGES))):
            raise DataError(f"net loss histories must cover all of {', '.join(_STAGES)} or none")
        self.loss_history = {stage: _floats(losses) for stage, losses in history.items()}
        if stopped != self.stop_reasons:
            raise DataError(f"net stop reasons {stopped} do not follow from the loss histories "
                            f"and iteration caps, which give {self.stop_reasons}")

    def probabilities(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        return _forward([self.weights[name] for name in _LAYERS], X)[2]

    def rank_classes_many(self, X: np.ndarray) -> np.ndarray:
        """Classes by descending probability, ties to the lower index."""
        return rank_by(-self.probabilities(X))


def estimate_memory_mb(n_samples, n_features, hidden1, hidden2, n_classes) -> float:
    """An upper bound, in MB, on the float64 arrays training holds at once.

    Held for the whole run: the weights of the finished autoencoder stages,
    and, while the first stage runs, the initial weights of the later ones
    (each stage reuses its own initial weights as its spare set). A stage
    in `descend` holds its current weights, their gradients, the spare set
    its trial steps are formed in, and its Workspace's scratch buffer, as
    large as its largest weight matrix: 3.5 times its weights, counted for
    the largest stage. Activations: the input, the reconstruction error and
    room for its square and its derivative at input width, and a few layers
    of hidden activations.
    """
    n, d, h1, h2, c = n_samples, n_features, hidden1, hidden2, n_classes
    initial = 2 * h1 * h2 + h2 * c
    stages = (
        2 * d * h1 + h1 + d,  # first autoencoder
        2 * h1 * h2 + h2 + h1,  # second autoencoder
        h2 * c + c,  # softmax head
        d * h1 + h1 + h1 * h2 + h2 + h2 * c + c,  # fine-tuning
    )
    held = initial + stages[0] + stages[1]
    working = 3.5 * max(stages)
    activations = n * (4 * d + 4 * h1 + 2 * h2 + 3 * c)
    return 8.0 * (held + working + activations) / 1e6


def train_net(
    train,
    seed: int = 0,
    hidden1: int | None = None,
    hidden2: int | None = None,
    max_iterations: int = 400,
    finetune_iterations: int | None = None,
    softmax_iterations: int | None = None,
    l2_weight: float = 0.001,
    learning_rate: float = 0.1,
    memory_budget_mb: float = DEFAULT_MEMORY_BUDGET_MB,
) -> AutoencoderNetModel:
    """Pretrain two autoencoders, train the softmax head, fine-tune the stack.

    Hidden sizes default to 100*N and 10*N. The iteration cap applies to the
    autoencoder stages; the softmax and fine-tuning stages default to the
    same cap but have their own knobs.
    """
    classes, X, y = training_arrays(train, min_classes=2)
    n_classes = len(classes)
    h1 = 100 * n_classes if hidden1 is None else hidden1
    h2 = 10 * n_classes if hidden2 is None else hidden2
    softmax_iterations = max_iterations if softmax_iterations is None else softmax_iterations
    finetune_iterations = max_iterations if finetune_iterations is None else finetune_iterations
    check_floors(("max_iterations", max_iterations, 1), ("softmax_iterations", softmax_iterations, 1),
                 ("finetune_iterations", finetune_iterations, 1), ("l2_weight", l2_weight, 0),
                 ("hidden1", h1, 1), ("hidden2", h2, 1))
    if not learning_rate > 0:
        raise ConfigError(f"learning_rate must be > 0, got {learning_rate}")
    n, d = X.shape

    needed = estimate_memory_mb(n, d, h1, h2, n_classes)
    if not needed <= memory_budget_mb:  # a nan budget is refused too
        raise ConfigError(
            f"network needs ~{needed:.0f} MB, budget is {memory_budget_mb:.0f} MB; "
            "downsample the input data to shrink the feature vectors"
        )

    check_seed(seed)
    # No other name holds a stage's initial weights, so `descend` can free them.
    rng = np.random.default_rng(seed)
    ae1_init = [glorot_uniform(rng, d, h1), np.zeros(h1), glorot_uniform(rng, h1, d), np.zeros(d)]
    ae2_init = [glorot_uniform(rng, h1, h2), np.zeros(h2), glorot_uniform(rng, h2, h1), np.zeros(h1)]
    sm_init = [glorot_uniform(rng, h2, n_classes), np.zeros(n_classes)]

    ae1, hist1 = _stage(
        "autoencoder1", ae1_init, autoencoder_loss, autoencoder_grads, (X, l2_weight),
        max_iterations, learning_rate,
    )
    h1_act = sigmoid(X @ ae1[0] + ae1[1])

    ae2, hist2 = _stage(
        "autoencoder2", ae2_init, autoencoder_loss, autoencoder_grads, (h1_act, l2_weight),
        max_iterations, learning_rate,
    )
    h2_act = sigmoid(h1_act @ ae2[0] + ae2[1])

    y_onehot = np.zeros((n, n_classes))
    y_onehot[np.arange(n), y] = 1.0
    sm, hist3 = _stage(
        "softmax", sm_init, softmax_loss, softmax_grads, (h2_act, y_onehot, l2_weight),
        softmax_iterations, learning_rate,
    )

    # Fine-tuning writes into the encoders and the head it is handed; the
    # decoders are dropped here, before it runs.
    stack_init = [ae1[0], ae1[1], ae2[0], ae2[1], sm[0], sm[1]]
    ae1 = ae2 = sm = h1_act = h2_act = None
    stack, hist4 = _stage(
        "finetune", stack_init, stack_loss, stack_grads, (X, y_onehot, l2_weight),
        finetune_iterations, learning_rate,
    )

    model = AutoencoderNetModel(
        classes=classes,
        weights=dict(zip(_LAYERS, stack)),
        hyperparams={
            "hidden1": int(h1),
            "hidden2": int(h2),
            "max_iterations": int(max_iterations),
            "softmax_iterations": int(softmax_iterations),
            "finetune_iterations": int(finetune_iterations),
            "l2_weight": float(l2_weight),
            "learning_rate": float(learning_rate),
        },
        seed=seed,
    )
    model.loss_history = dict(zip(_STAGES, (hist1, hist2, hist3, hist4)))
    return model
