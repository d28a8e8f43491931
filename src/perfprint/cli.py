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


def _hyperparams(args) -> dict:
    """The trainer keywords of the chosen kind, defaults filled in from the
    trainer's signature; those whose default is None are dropped unless
    given. A flag of another kind, or a float flag that is not finite, is a
    ConfigError."""
    defaults = inspect.signature(classifiers._TRAINERS[args.kind]).parameters
    values = {}
    for kind, flags in _MODEL_FLAGS.items():
        for flag, kw, _, _ in flags:
            dest = flag[2:].replace("-", "_")
            if kind == args.kind:
                values[kw] = getattr(args, dest, defaults[kw].default)
                _check_finite(flag, values[kw])
            elif hasattr(args, dest):
                raise ConfigError(f"{flag} is a --kind {kind} flag, not one for --kind {args.kind}")
    return {kw: value for kw, value in values.items() if value is not None}


def _check_finite(flag: str, value):
    """Reports and model files are strict JSON, which has no nan or inf."""
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{flag} must be finite, got {value}")


def _add_model_flags(parser):
    # Flags left out stay off the namespace, so `_hyperparams` sees which
    # were given.
    parser.add_argument("--kind", required=True, choices=classifiers.MODEL_KINDS)
    for flags in _MODEL_FLAGS.values():
        for flag, _, type_, help_ in flags:
            parser.add_argument(flag, type=type_, default=argparse.SUPPRESS, help=help_)


def cmd_collect(args) -> int:
    config, default_pattern, scenario_name = _load_scenario(args.scenario)
    if args.cpu is not None:
        config = replace(config, scope=events.ProfilingScope.core(args.cpu))
    pattern = args.await_pattern or default_pattern
    if config.scope.is_process_specific and config.scope.pid < 0:
        if args.pid is not None:
            config = config.with_pid(args.pid)
        elif pattern:
            pid = collector.await_target_process(pattern, timeout_s=args.await_timeout)
            print(f"target process {pid} matched {pattern!r}")
            config = config.with_pid(pid)
        else:
            raise ConfigError("process-specific scenario needs --pid or --await")
    raw = collector.collect(config)
    measurement = dataset.concatenate(raw, args.label)
    captured_at = datetime.now(timezone.utc).isoformat(timespec="seconds")
    measurement = replace(measurement, meta={**measurement.meta, "captured_at": captured_at})
    dataset.append_measurement(
        args.out,
        measurement,
        dataset_meta={
            "scenario": scenario_name,
            "events": config.event_names,
            "samples_per_event": config.expected_samples,
        },
    )
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
    # are required, the other mode's refused, and the two splits may not
    # share a file.
    split = bool(args.split_train)
    mode = "with --split-train" if split else "without --split-train"
    for flag, written in (("--train-out", split), ("--test-out", split), ("--out", not split)):
        if bool(getattr(args, flag[2:].replace("-", "_"))) != written:
            raise ConfigError(f"{flag} is {'required' if written else 'not written'} {mode}")
    if split and os.path.realpath(args.train_out) == os.path.realpath(args.test_out):
        raise ConfigError(f"--train-out and --test-out are the same file, {args.train_out}")
    d = dataset.downsample(dataset.load(args.data), args.downsample)
    if split:
        train, test = dataset.split(d, args.split_train, args.split_test, args.split_seed)
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
    d = dataset.load(args.data)
    trainer = classifiers.make_trainer(args.kind, **_hyperparams(args))
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
    d = dataset.load(args.data)
    hyperparams = _hyperparams(args)
    trainer = classifiers.make_trainer(args.kind, **hyperparams)
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
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s]
    except ValueError:
        raise ConfigError(f"--sizes takes comma-separated integers, got {args.sizes!r}") from None
    d = dataset.load(args.data)
    trainer = classifiers.make_trainer(args.kind, **_hyperparams(args))
    curve = evaluation.learning_curve(trainer, d, sizes, args.n_test, args.seed)
    evaluation.write_curve_csv(curve, args.out)
    for size in sorted(curve):
        print(f"train size {size}: success rate {curve[size]:.4f}")
    return 0


# Each --policy choice's policy, built from the parsed arguments.
_POLICIES = {
    "noise": lambda a: mitigation.MitigationPolicy.noise_injection(a.sigma, seed=a.policy_seed),
    "downsample": lambda a: mitigation.MitigationPolicy.sampling_degradation(a.factor),
    "deny": lambda a: mitigation.MitigationPolicy.access_denied(),
}


def cmd_mitigate(args) -> int:
    d = dataset.load(args.data)
    policy = _POLICIES[args.policy](args)
    _check_finite("--sigma", args.sigma)  # the report records it under every policy
    hyperparams = _hyperparams(args)
    trainer = classifiers.make_trainer(args.kind, **hyperparams)
    result = mitigation.leakage_report(
        trainer, d, policy, args.n_train, args.n_test, args.split_seed
    )
    doc = {
        "format": "perfprint-leakage",
        "version": 1,
        "kind": args.kind,
        "policy": args.policy,
        "policy_params": {"sigma": args.sigma, "factor": args.factor},
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
    p.add_argument("--await", dest="await_pattern", default=None,
                   help="wait for a new process matching this name")
    p.add_argument("--await-timeout", type=float, default=30.0)
    p.add_argument("--pid", type=int, default=None)
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
    p.add_argument("--split-test", type=int, default=0)
    p.add_argument("--split-seed", type=int, default=0)
    p.add_argument("--train-out")
    p.add_argument("--test-out")
    p.add_argument("--out")
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
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--factor", type=int, default=2)
    p.add_argument("--policy-seed", type=int, default=0)
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
