"""Batch front end: one subcommand per pipeline step, machine-readable
outputs. The JSON reports and model files embed the reproducibility
metadata (seeds, hyperparameters, input digests); the CSV series and the
datasets `prep` writes do not.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 collection
permission/interface error.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import math
import os
import sys
import time
from dataclasses import replace
from datetime import datetime, timezone

from . import classifiers, collector, dataset, evaluation, events, mitigation, synth
from .errors import CollectorError, ConfigError, DataError, PerfprintError

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_COLLECT = 4


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _load_scenario(spec: str):
    """A preset name, or a path to a JSON scenario file."""
    if spec in events.SCENARIO_NAMES:
        scenario = events.preset(spec)
    elif os.path.exists(spec):
        try:
            with open(spec) as fh:
                data = json.load(fh)
        except (OSError, RecursionError, ValueError) as exc:  # also bad JSON or UTF-8
            raise DataError(f"{spec}: cannot read scenario file: {exc}") from exc
        scenario = events.scenario_from_dict(data, spec)
    else:
        raise ConfigError(
            f"unknown scenario {spec!r}: not a preset "
            f"({', '.join(events.SCENARIO_NAMES)}) and no such file"
        )
    return scenario.config, scenario.target_process_pattern, scenario.name


# Each model kind's flags: (flag, trainer keyword, type, help), in the
# order the trainer keywords are written to reports. A flag not given takes
# the default of its trainer's keyword.
_MODEL_FLAGS = {
    "knn": [("--k", "k", int, "kNN neighbor count")],
    "tree": [
        ("--min-leaf", "min_leaf", int, None),
        ("--min-parent", "min_parent", int, None),
        ("--max-splits", "max_splits", int, "tree split budget (default N-1)"),
    ],
    "svm": [
        ("--C", "c", float, "SVM regularization"),
        ("--tol", "tol", float, None),
        ("--max-passes", "max_passes", int,
         "caps each SVM pair's active-set iterations at min(10*(n+1), this); a pair not "
         "certified within the cap keeps its result and is reported as uncertified"),
    ],
    "net": [
        ("--train-seed", "seed", int, None),
        ("--max-iter", "max_iterations", int, None),
        ("--l2", "l2_weight", float, None),
        ("--lr", "learning_rate", float, None),
        ("--memory-budget-mb", "memory_budget_mb", float, None),
        ("--hidden1", "hidden1", int, "net hidden-1 units (default 100*N)"),
        ("--hidden2", "hidden2", int, "net hidden-2 units (default 10*N)"),
        ("--softmax-iter", "softmax_iterations", int, None),
        ("--finetune-iter", "finetune_iterations", int, None),
    ],
}

# Each --policy choice's constructor and its flags, in the shape of
# _MODEL_FLAGS; a flag not given takes its constructor keyword's default.
_POLICIES = {
    "noise": mitigation.MitigationPolicy.noise_injection,
    "downsample": mitigation.MitigationPolicy.sampling_degradation,
    "deny": mitigation.MitigationPolicy.access_denied,
}
_POLICY_FLAGS = {
    "noise": [("--sigma", "sigma", float, None), ("--policy-seed", "seed", int, None)],
    "downsample": [("--factor", "factor", int, None)],
    "deny": [],
}


def _owned_by(selector: str, flags_of: dict) -> dict:
    return {flag: (selector, mode) for mode, flags in flags_of.items() for flag, *_ in flags}


# Which mode of its command reads each optional flag: (selector, mode), or
# None for a flag that every mode reads. Every optional flag is listed, and
# one given outside its mode is refused before the command reads anything.
# The selectors: --kind, --policy, whether prep's --split-train is non-zero,
# and where collect's target comes from once its scope is resolved.
_FLAG_MODES = {
    "collect": {
        "--cpu": None,
        "--pid": ("target", "pid"),
        "--await": ("target", "await"),
        "--await-timeout": ("target", "await"),
    },
    "synth": dict.fromkeys(("--events", "--samples-per-event", "--noise-sigma", "--noise-shift",
                            "--noise-jitter", "--noise-floor", "--seed")),
    "prep": {
        "--downsample": None,
        "--normalize": None,
        "--split-train": None,
        **dict.fromkeys(("--split-test", "--split-seed", "--train-out", "--test-out"),
                        ("split", True)),
        "--out": ("split", False),
    },
    "train": _owned_by("kind", _MODEL_FLAGS),
    "evaluate": {"--topk": None},
    "crossval": {"--folds": None, "--seed": None, **_owned_by("kind", _MODEL_FLAGS)},
    "curve": {"--seed": None, **_owned_by("kind", _MODEL_FLAGS)},
    "mitigate": {
        "--split-seed": None,
        **_owned_by("policy", _POLICY_FLAGS),
        **_owned_by("kind", _MODEL_FLAGS),
    },
}

# How a refusal names each selector's modes.
_MODE_NAMES = {
    "kind": "--kind {}".format,
    "policy": "--policy {}".format,
    "split": {True: "--split-train", False: "--split-train 0"}.get,
    "target": {"core": "a core-wide scope", "fixed": "a scenario's own pid",
               "pid": "process-scope --pid", "await": "process-scope --await"}.get,
}


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _refuse_unread_flags(args, **modes):
    """A ConfigError for the first flag given outside the mode that reads
    it; `modes` holds the mode each of the command's selectors chose."""
    for flag, owner in _FLAG_MODES[args.command].items():
        if owner is not None and hasattr(args, _dest(flag)):
            selector, mode = owner
            if modes[selector] != mode:
                name = _MODE_NAMES[selector]
                raise ConfigError(f"{flag} is a {name(mode)} flag, not one for {name(modes[selector])}")


def _keywords(args, constructor, flags) -> dict:
    """The keywords `flags` give `constructor`, defaults filled in from its
    signature; those whose default is None are dropped unless given."""
    defaults = inspect.signature(constructor).parameters
    values = {kw: getattr(args, _dest(flag), defaults[kw].default) for flag, kw, _, _ in flags}
    return {kw: value for kw, value in values.items() if value is not None}


def _hyperparams(args) -> dict:
    """The trainer keywords of the chosen kind. Reports and model files are
    strict JSON, which has no nan or inf, so a float flag that is not finite
    is a ConfigError."""
    flags = _MODEL_FLAGS[args.kind]
    values = _keywords(args, classifiers._TRAINERS[args.kind], flags)
    for flag, kw, _, _ in flags:
        value = values.get(kw)
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{flag} must be finite, got {value}")
    return values


def _add_mode_flags(parser, flags_of: dict):
    # Flags left out stay off the namespace, so `_refuse_unread_flags` sees
    # which were given.
    for flags in flags_of.values():
        for flag, _, type_, help_ in flags:
            parser.add_argument(flag, type=type_, default=argparse.SUPPRESS, help=help_)


def _add_model_flags(parser):
    parser.add_argument("--kind", required=True, choices=classifiers.MODEL_KINDS)
    _add_mode_flags(parser, _MODEL_FLAGS)


def cmd_collect(args) -> int:
    config, pattern, scenario_name = _load_scenario(args.scenario)
    if args.cpu is not None:
        config = replace(config, scope=events.ProfilingScope.core(args.cpu))
    if not config.scope.is_process_specific:
        target = "core"
    elif config.scope.pid >= 0:
        target = "fixed"
    else:
        target = "pid" if hasattr(args, "pid") else "await"
    _refuse_unread_flags(args, target=target)
    if target == "pid":
        config = config.with_pid(args.pid)
    elif target == "await":
        pattern = getattr(args, "await", pattern)
        if not pattern:
            raise ConfigError("process-specific scenario needs --pid or --await")
        pid = collector.await_target_process(pattern, timeout_s=getattr(args, "await_timeout", 30.0))
        print(f"target process {pid} matched {pattern!r}")
        config = config.with_pid(pid)
    raw = collector.collect(config)
    captured_at = datetime.now(timezone.utc).isoformat(timespec="seconds")
    measurement = replace(dataset.concatenate(raw, args.label), meta={"captured_at": captured_at})
    layout = {"scenario": scenario_name, "events": config.event_names,
              "samples_per_event": config.expected_samples}
    dataset.append_measurement(args.out, measurement, dataset_meta=layout)
    print(f"appended {len(measurement.features)}-feature measurement "
          f"labeled {args.label!r} to {args.out}")
    return 0


def cmd_synth(args) -> int:
    noise = synth.NoiseModel(
        additive_sigma=args.noise_sigma,
        max_shift=args.noise_shift,
        amplitude_jitter=args.noise_jitter,
        background_floor=args.noise_floor,
    )
    profiles = synth.gen_profiles(args.classes, args.events, args.samples_per_event, args.seed)
    d = synth.gen_dataset(profiles, args.per_class, noise, args.seed)
    dataset.save(d, args.out)
    print(f"wrote {len(d)} measurements ({args.classes} classes) to {args.out}")
    print(f"sha256 {_sha256(args.out)}")
    return 0


def cmd_prep(args) -> int:
    # The outputs are checked before the data is read: the mode's outputs
    # are required, and the two splits may not share a file.
    split = bool(args.split_train)
    _refuse_unread_flags(args, split=split)
    outputs = ("--train-out", "--test-out") if split else ("--out",)
    for flag in outputs:
        if not getattr(args, _dest(flag), ""):
            raise ConfigError(f"{flag} is required {'with' if split else 'without'} --split-train")
    if split and os.path.realpath(args.train_out) == os.path.realpath(args.test_out):
        raise ConfigError(f"--train-out and --test-out are the same file, {args.train_out}")
    d = dataset.downsample(dataset.load(args.data), args.downsample)
    if split:
        train, test = dataset.split(d, args.split_train, getattr(args, "split_test", 0),
                                    getattr(args, "split_seed", 0))
        if args.normalize:
            train = dataset.normalize_fit(train)
            test = dataset.normalize_apply(train.normalization, test)
        dataset.save(train, args.train_out)
        dataset.save(test, args.test_out)
        print(f"train sha256 {_sha256(args.train_out)}")
        print(f"test sha256 {_sha256(args.test_out)}")
        return 0
    if args.normalize:
        d = dataset.normalize_fit(d)
    dataset.save(d, args.out)
    print(f"sha256 {_sha256(args.out)}")
    return 0


def cmd_train(args) -> int:
    _refuse_unread_flags(args, kind=args.kind)
    trainer = classifiers.make_trainer(args.kind, **_hyperparams(args))
    d = dataset.load(args.data)
    t0 = time.perf_counter()
    model = trainer(d)
    train_seconds = time.perf_counter() - t0
    classifiers.save_model(
        model,
        args.out,
        provenance={"train_data": args.data, "train_data_sha256": _sha256(args.data)},
    )
    print(f"trained {args.kind} on {len(d)} measurements "
          f"({model.n_classes} classes) in {train_seconds:.1f} s -> {args.out}")
    if isinstance(model, classifiers.LinearSvmModel):
        print(model.solve_summary())
    return 0


def cmd_evaluate(args) -> int:
    model = classifiers.load_model(args.model)
    test = dataset.load(args.data)
    # Refused before scoring; the directory itself is made only after it.
    if os.path.exists(args.out_dir) and not os.path.isdir(args.out_dir):
        raise DataError(f"--out-dir {args.out_dir} exists and is not a directory")
    report = evaluation.evaluate(model, test, g_max=args.topk)
    report = replace(
        report,
        meta={
            **report.meta,
            "model_file": args.model,
            "model_sha256": _sha256(args.model),
            "test_data": args.data,
            "test_data_sha256": _sha256(args.data),
        },
    )
    os.makedirs(args.out_dir, exist_ok=True)
    evaluation.write_report_json(report, os.path.join(args.out_dir, "report.json"))
    evaluation.write_per_class_csv(report, os.path.join(args.out_dir, "per_class.csv"))
    evaluation.write_topk_csv(report, os.path.join(args.out_dir, "topk.csv"))
    print(f"success rate {report.success_rate:.4f} over {len(test)} measurements")
    print(f"reports in {args.out_dir}")
    return 0


def cmd_crossval(args) -> int:
    _refuse_unread_flags(args, kind=args.kind)
    hyperparams = _hyperparams(args)
    trainer = classifiers.make_trainer(args.kind, **hyperparams)
    d = dataset.load(args.data)
    result = evaluation.cross_validate(trainer, d, args.folds, args.seed)
    doc = {
        "format": "perfprint-crossval",
        "version": 1,
        "kind": args.kind,
        "mean_success_rate": result.mean_success_rate,
        "fold_rates": result.fold_rates,
        "folds": args.folds,
        "seed": args.seed,
        "hyperparams": hyperparams,
        "data": args.data,
        "data_sha256": _sha256(args.data),
    }
    dataset.write_json(args.out, doc)
    print(f"mean success rate {result.mean_success_rate:.4f} over {args.folds} folds")
    return 0


def cmd_curve(args) -> int:
    _refuse_unread_flags(args, kind=args.kind)
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s]
    except ValueError:
        raise ConfigError(f"--sizes takes comma-separated integers, got {args.sizes!r}") from None
    trainer = classifiers.make_trainer(args.kind, **_hyperparams(args))
    d = dataset.load(args.data)
    curve = evaluation.learning_curve(trainer, d, sizes, args.n_test, args.seed)
    evaluation.write_curve_csv(curve, args.out)
    for size in sorted(curve):
        print(f"train size {size}: success rate {curve[size]:.4f}")
    return 0


def cmd_mitigate(args) -> int:
    _refuse_unread_flags(args, kind=args.kind, policy=args.policy)
    policy_params = _keywords(args, _POLICIES[args.policy], _POLICY_FLAGS[args.policy])
    policy = _POLICIES[args.policy](**policy_params)
    policy_params.pop("seed", None)  # the report records it in "seeds"
    hyperparams = _hyperparams(args)
    trainer = classifiers.make_trainer(args.kind, **hyperparams)
    d = dataset.load(args.data)
    result = mitigation.leakage_report(
        trainer, d, policy, args.n_train, args.n_test, args.split_seed
    )
    doc = {
        "format": "perfprint-leakage",
        "version": 1,
        "kind": args.kind,
        "policy": args.policy,
        "policy_params": policy_params,
        "before": evaluation.report_to_dict(result.before),
        "after": evaluation.report_to_dict(result.after),
        "accuracy_delta": result.accuracy_delta,
        "seeds": result.seeds,
        "hyperparams": hyperparams,
        "data": args.data,
        "data_sha256": _sha256(args.data),
    }
    dataset.write_json(args.out, doc)
    print(
        f"success rate {result.before.success_rate:.4f} -> "
        f"{result.after.success_rate:.4f} "
        f"(drop {result.accuracy_delta:.4f}) under {args.policy}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="perfprint",
        description="Hardware-performance-event trace collection and fingerprinting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("collect", help="record one labeled measurement")
    p.add_argument("--scenario", required=True, help="preset name or JSON config file")
    p.add_argument("--label", required=True)
    p.add_argument("--out", required=True, help="trace file to append to")
    p.add_argument("--await", default=argparse.SUPPRESS,
                   help="wait for a new process matching this name")
    p.add_argument("--await-timeout", type=float, default=argparse.SUPPRESS)
    p.add_argument("--pid", type=int, default=argparse.SUPPRESS)
    p.add_argument("--cpu", type=int, default=None)
    p.set_defaults(func=cmd_collect)

    p = sub.add_parser("synth", help="generate a synthetic labeled dataset")
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--per-class", type=int, required=True)
    p.add_argument("--events", type=int, default=3)
    p.add_argument("--samples-per-event", type=int, default=10000)
    p.add_argument("--noise-sigma", type=float, default=0.0)
    p.add_argument("--noise-shift", type=float, default=0.0)
    p.add_argument("--noise-jitter", type=float, default=0.0)
    p.add_argument("--noise-floor", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("prep", help="downsample / normalize / split a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--downsample", type=int, default=1)
    p.add_argument("--normalize", action="store_true")
    p.add_argument("--split-train", type=int, default=0, help="train measurements per class")
    p.add_argument("--split-test", type=int, default=argparse.SUPPRESS)
    p.add_argument("--split-seed", type=int, default=argparse.SUPPRESS)
    p.add_argument("--train-out", default=argparse.SUPPRESS)
    p.add_argument("--test-out", default=argparse.SUPPRESS)
    p.add_argument("--out", default=argparse.SUPPRESS)
    p.set_defaults(func=cmd_prep)

    p = sub.add_parser("train", help="train a classifier on a dataset file")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    _add_model_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score a model on a test dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--topk", type=int, default=None)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("crossval", help="stratified k-fold cross-validation")
    p.add_argument("--data", required=True)
    p.add_argument("--folds", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    _add_model_flags(p)
    p.set_defaults(func=cmd_crossval)

    p = sub.add_parser("curve", help="success rate vs training-set size")
    p.add_argument("--data", required=True)
    p.add_argument("--sizes", required=True, help="comma-separated per-class sizes")
    p.add_argument("--n-test", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    _add_model_flags(p)
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("mitigate", help="before/after leakage comparison")
    p.add_argument("--data", required=True)
    p.add_argument("--policy", required=True, choices=tuple(_POLICIES))
    _add_mode_flags(p, _POLICY_FLAGS)
    p.add_argument("--n-train", type=int, required=True)
    p.add_argument("--n-test", type=int, required=True)
    p.add_argument("--split-seed", type=int, default=0)
    p.add_argument("--out", required=True)
    _add_model_flags(p)
    p.set_defaults(func=cmd_mitigate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (PerfprintError, OSError) as exc:  # OSError: a path that cannot be read or written
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, ConfigError):
            return EXIT_CONFIG
        return EXIT_COLLECT if isinstance(exc, CollectorError) else EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
