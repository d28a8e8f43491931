"""Span tracing around perfprint's public functions, from outside the package.

A Tracer replaces each listed function with a wrapper wherever perfprint
binds it (module globals, the trainer table, class methods), so calls that
one layer makes into another are recorded too. Each call records a span
(name, start, end, parent) in memory; hooks may record extra values. The
originals are restored on uninstall, so untraced rounds run unpatched code.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
import tracemalloc
from collections import defaultdict

import numpy as np

NET_STAGES = ("autoencoder1", "autoencoder2", "softmax", "finetune")
MODEL_KINDS = ("knn", "tree", "svm", "net")
CLI_COMMANDS = ("prep", "train", "evaluate", "crossval", "mitigate")


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []  # {"name", "start", "end", "parent"}
        self.values: dict[str, list[float]] = defaultdict(list)
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- recording ---------------------------------------------------------
    def wrap(self, name, fn, before=None, after=None):
        """`name` is a string or a callable of the call's arguments.
        before(args, kwargs) runs inside the span; after(tracer, args,
        kwargs, result) runs once the span has closed."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append({"name": label, "start": time.perf_counter(), "end": None, "parent": parent})
            self._stack.append(index)
            try:
                if before:
                    before(args, kwargs)
                result = fn(*args, **kwargs)
            finally:
                self.spans[index]["end"] = time.perf_counter()
                self._stack.pop()
            if after:
                after(self, args, kwargs, result)
            return result

        return wrapper

    # -- patching ----------------------------------------------------------
    def patch_function(self, module, attr, name, before=None, after=None):
        """Wrap module.attr and every other binding of the same function
        object inside perfprint."""
        original = getattr(module, attr)
        wrapper = self.wrap(name, original, before, after)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "perfprint" or mod_name.startswith("perfprint.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapper)
                elif isinstance(value, dict) and not key.startswith("__"):
                    for dkey, dvalue in list(value.items()):
                        if dvalue is original:
                            self._set_item(value, dkey, wrapper)

    def patch_method(self, cls, attr, name, before=None, after=None):
        original = cls.__dict__[attr]
        self._set(cls, attr, self.wrap(name, original, before, after))

    def _set(self, owner, key, value):
        self._patches.append(("attr", owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def _set_item(self, mapping, key, value):
        self._patches.append(("item", mapping, key, mapping[key]))
        mapping[key] = value

    def uninstall(self):
        for kind, owner, key, original in reversed(self._patches):
            if kind == "attr":
                setattr(owner, key, original)
            else:
                owner[key] = original
        self._patches.clear()


# -- the layers ------------------------------------------------------------


def _record_unconverged(tracer, args, kwargs, result):
    """Whether the returned alpha still has a projected-gradient violation
    >= tol, recomputed from X, y and the returned weights
    (Q @ alpha = y * (Xa @ w_aug)). This is not the solver's own stopping
    test, which looks at the violations seen during its last pass."""
    from perfprint.classifiers import svm

    call = inspect.signature(svm.solve_pair).bind(*args, **kwargs)
    call.apply_defaults()
    X = np.asarray(call.arguments["X"], dtype=np.float64)
    y = np.asarray(call.arguments["y"], dtype=np.float64)
    c, tol = call.arguments["c"], call.arguments["tol"]
    w, b, alpha, _ = result
    g = y * (X @ w + b) - 1.0
    pg = np.where(alpha <= 0.0, np.minimum(g, 0.0), np.where(alpha >= c, np.maximum(g, 0.0), g))
    tracer.values["svm.pairs_unconverged"].append(float(np.abs(pg).max() >= tol))


def _start_tracemalloc(args, kwargs):
    tracemalloc.start()


def _record_train_peak(tracer, args, kwargs, result):
    tracer.values["net.train_peak_mb"].append(tracemalloc.get_traced_memory()[1] / 1e6)
    tracemalloc.stop()


def _record_value(key):
    def hook(tracer, args, kwargs, result):
        tracer.values[key].append(float(result))

    return hook


def _record_model_bytes(tracer, args, kwargs, result):
    model, path = args[0], args[1]
    tracer.values[f"io.model_bytes.{model.kind}"].append(float(os.path.getsize(path)))


def install(tracer: Tracer):
    """Wrap every public function the per-layer metrics are made from."""
    from perfprint import cli, dataset, evaluation, mitigation, synth
    from perfprint.classifiers import io, knn, net, svm, tree

    for attr in ("gen_profiles", "gen_dataset"):
        tracer.patch_function(synth, attr, f"synth.{attr}")
    for attr in (
        "downsample", "split", "kfold", "normalize_fit", "normalize_apply",
        "concatenate", "append_measurement", "load", "save",
    ):
        tracer.patch_function(dataset, attr, f"dataset.{attr}")
    tracer.patch_method(dataset.Dataset, "feature_matrix", "dataset.feature_matrix")

    tracer.patch_function(knn, "train_knn", "train.knn")
    tracer.patch_method(knn.KnnModel, "rank_classes_many", "knn.rank")
    tracer.patch_function(tree, "train_tree", "train.tree")
    tracer.patch_function(tree, "best_split", "tree.best_split")
    tracer.patch_function(svm, "train_svm", "train.svm")
    tracer.patch_function(svm, "solve_pair", "svm.solve_pair", after=_record_unconverged)
    tracer.patch_function(
        net, "train_net", "train.net", before=_start_tracemalloc, after=_record_train_peak
    )
    tracer.patch_function(net, "descend", "net.descend")
    for attr in ("autoencoder_loss", "softmax_loss", "stack_loss"):
        tracer.patch_function(net, attr, "net.loss")
    for attr in ("autoencoder_grads", "softmax_grads", "stack_grads"):
        tracer.patch_function(net, attr, "net.grad")
    tracer.patch_function(
        net, "estimate_memory_mb", "net.estimate_memory_mb",
        after=_record_value("net.memory_estimate_mb"),
    )

    tracer.patch_function(
        io, "save_model", lambda model, *a, **k: f"io.save_model.{model.kind}",
        after=_record_model_bytes,
    )
    tracer.patch_function(io, "load_model", "io.load_model")
    tracer.patch_function(
        evaluation, "evaluate", lambda model, *a, **k: f"evaluation.evaluate.{model.kind}"
    )
    tracer.patch_function(evaluation, "cross_validate", "evaluation.cross_validate")
    tracer.patch_function(mitigation, "apply", "mitigation.apply")
    tracer.patch_function(mitigation, "leakage_report", "mitigation.leakage_report")

    tracer.patch_function(cli, "main", "cli.main")
    for command in CLI_COMMANDS:
        tracer.patch_function(cli, f"cmd_{command}", f"cli.{command}")


# -- from spans to per-layer metrics -----------------------------------------


class SpanIndex:
    def __init__(self, spans):
        self.spans = spans
        self.children: dict[int | None, list[int]] = defaultdict(list)
        for i, s in enumerate(spans):
            self.children[s["parent"]].append(i)

    def duration(self, i) -> float:
        s = self.spans[i]
        return s["end"] - s["start"]

    def ancestors(self, i):
        parent = self.spans[i]["parent"]
        while parent is not None:
            yield self.spans[parent]["name"]
            parent = self.spans[parent]["parent"]

    def matching(self, names, outside=()):
        """Spans named in `names` with no ancestor in `names` or `outside`,
        so nested calls of the same layer are counted once."""
        names = set(names)
        blocked = names | set(outside)
        return [
            i for i, s in enumerate(self.spans)
            if s["name"] in names and not blocked.intersection(self.ancestors(i))
        ]

    def total(self, names, outside=()) -> float:
        return sum(self.duration(i) for i in self.matching(names, outside))

    def children_named(self, i, name) -> list[int]:
        return [c for c in self.children[i] if self.spans[c]["name"] == name]

    def count(self, name) -> int:
        return sum(1 for s in self.spans if s["name"] == name)

    def self_time(self, names) -> float:
        """Time inside spans of `names` not covered by their child spans."""
        return sum(
            self.duration(i) - sum(self.duration(c) for c in self.children[i])
            for i, s in enumerate(self.spans)
            if s["name"] in names
        )


def unit(key: str) -> str:
    if key.endswith("_calls") or key == "svm.pairs_unconverged":
        return "count"
    if key.endswith("_mb"):
        return "MB"
    if ".model_bytes." in key:
        return "B"
    return "s"


def layer_metrics(spans: list[dict], values: dict[str, list[float]]) -> dict[str, float]:
    """Per-layer metrics from the spans and values of one traced round or
    set-up; a layer the spans never enter reads 0."""
    ix = SpanIndex(spans)
    m: dict[str, float] = {}
    m["synth.gen_profiles_s"] = ix.total({"synth.gen_profiles"})
    m["synth.gen_dataset_s"] = ix.total({"synth.gen_dataset"})

    m["dataset.downsample_s"] = ix.total({"dataset.downsample"})
    m["dataset.split_s"] = ix.total({"dataset.split"})
    m["dataset.normalize_s"] = ix.total({"dataset.normalize_fit", "dataset.normalize_apply"})
    m["dataset.feature_matrix_calls"] = ix.count("dataset.feature_matrix")
    m["dataset.feature_matrix_s"] = ix.total({"dataset.feature_matrix"})
    appends = ix.matching({"dataset.append_measurement"})
    m["dataset.append_s.first"] = ix.duration(appends[0]) if appends else 0.0
    m["dataset.append_s.last"] = ix.duration(appends[-1]) if appends else 0.0
    m["dataset.concatenate_s"] = ix.total({"dataset.concatenate"})
    # The analysis's own file I/O; the loads and saves inside each append
    # belong to dataset.append_s.*.
    m["dataset.load_s"] = ix.total({"dataset.load"}, outside={"dataset.append_measurement"})
    m["dataset.save_s"] = ix.total({"dataset.save"}, outside={"dataset.append_measurement"})

    m["tree.best_split_calls"] = ix.count("tree.best_split")
    m["tree.best_split_s"] = ix.total({"tree.best_split"})
    m["tree.root_split_s"] = sum(
        ix.duration(splits[0])
        for i in ix.matching({"train.tree"})
        if (splits := ix.children_named(i, "tree.best_split"))
    )

    m["svm.solve_pair_calls"] = ix.count("svm.solve_pair")
    m["svm.solve_pair_s"] = ix.total({"svm.solve_pair"})
    m["svm.pairs_unconverged"] = sum(values.get("svm.pairs_unconverged", []))

    stage_time = dict.fromkeys(NET_STAGES, 0.0)
    for i in ix.matching({"train.net"}):
        for stage, c in zip(NET_STAGES, ix.children_named(i, "net.descend")):
            stage_time[stage] += ix.duration(c)
    for stage in NET_STAGES:
        m[f"net.descend_s.{stage}"] = stage_time[stage]
    m["net.loss_calls"] = ix.count("net.loss")
    m["net.grad_calls"] = ix.count("net.grad")
    m["net.memory_estimate_mb"] = max(values.get("net.memory_estimate_mb", [0.0]))
    m["net.train_peak_mb"] = max(values.get("net.train_peak_mb", [0.0]))

    m["knn.rank_s"] = ix.total({"knn.rank"})
    for kind in MODEL_KINDS:
        m[f"io.save_model_s.{kind}"] = ix.total({f"io.save_model.{kind}"})
    m["io.load_model_s"] = ix.total({"io.load_model"})
    for kind in MODEL_KINDS:
        m[f"io.model_bytes.{kind}"] = max(values.get(f"io.model_bytes.{kind}", [0.0]))

    # Every evaluate call of a kind, also those inside cross_validate and
    # leakage_report.
    for kind in MODEL_KINDS:
        m[f"evaluation.evaluate_s.{kind}"] = ix.total({f"evaluation.evaluate.{kind}"})
    m["evaluation.cross_validate_s"] = ix.total({"evaluation.cross_validate"})
    m["mitigation.apply_s"] = ix.total({"mitigation.apply"})
    m["mitigation.leakage_report_s"] = ix.total({"mitigation.leakage_report"})

    for command in CLI_COMMANDS:
        m[f"cli.{command}_s"] = ix.total({f"cli.{command}"})
    m["cli.self_s"] = ix.self_time({"cli.main", *(f"cli.{c}" for c in CLI_COMMANDS)})
    return m
