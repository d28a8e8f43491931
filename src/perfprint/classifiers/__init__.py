"""The four supervised classifiers behind one train/predict/top-k contract."""

from .base import Model
from .io import load_model, save_model
from .knn import KnnModel, train_knn
from .net import AutoencoderNetModel, train_net
from .svm import LinearSvmModel, train_svm
from .tree import DecisionTreeModel, train_tree

from ..errors import ConfigError

_TRAINERS = {
    "knn": train_knn,
    "tree": train_tree,
    "svm": train_svm,
    "net": train_net,
}
MODEL_KINDS = tuple(_TRAINERS)


def make_trainer(kind: str, **hyperparams):
    """Bind a classifier kind and its hyperparameters into a one-argument
    trainer callable, as the evaluation helpers expect."""
    if kind not in _TRAINERS:
        raise ConfigError(f"unknown model kind {kind!r}; expected one of {MODEL_KINDS}")
    train_fn = _TRAINERS[kind]

    def trainer(dataset):
        return train_fn(dataset, **hyperparams)

    return trainer


__all__ = [
    "Model",
    "KnnModel",
    "DecisionTreeModel",
    "LinearSvmModel",
    "AutoencoderNetModel",
    "train_knn",
    "train_tree",
    "train_svm",
    "train_net",
    "make_trainer",
    "save_model",
    "load_model",
    "MODEL_KINDS",
]
