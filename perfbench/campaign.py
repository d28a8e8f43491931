"""A collection campaign and the file-based analysis after it.

Synthetic RawTraceSets shaped like one scenario preset's traces stand in
for counter reads: like `collector.collect()`, each holds exactly the
expected number of samples per event. Each goes through
`dataset.concatenate` and `dataset.append_measurement` into one trace file,
round-robin over the classes as a campaign visits sites (the storage half
of `perfprint collect`). Then `cli.main` runs prep, train, evaluate,
crossval and mitigate on that file.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import time

import numpy as np

from perfprint import classifiers, cli, collector, dataset, events, synth

import checks
from protocol import PROFILE_SEED, Round

PRESET = "ChromeIncognitoIntel"
DATA_SEED, SPLIT_SEED, POLICY_SEED, FOLD_SEED = 4000, 4001, 4002, 4003
NOISE = synth.NoiseModel(additive_sigma=0.05, max_shift=0.01, background_floor=1.0)
DOWNSAMPLE = 10
MITIGATION_SIGMA = 5.0
# Enough passes that one round's classify calls span about 0.1 s of the
# host's speed swings, not one instant.
CLASSIFY_PASSES = 250
# read_interval_us None keeps the preset's own 10,000 samples per event;
# "full" is the 120-append campaign the ROADMAP measured.
SCALES = {
    "full": {"classes": 10, "visits": 12, "read_interval_us": None, "train": 8, "test": 4, "folds": 4},
    "bench": {"classes": 4, "visits": 4, "read_interval_us": None, "train": 3, "test": 1, "folds": 3},
    "tiny": {"classes": 3, "visits": 3, "read_interval_us": 1000, "train": 2, "test": 1, "folds": 2},
}


class Campaign:
    def __init__(self, workload: str, scale: str, seed: int):
        self.size = SCALES[scale]
        self.config = events.preset(PRESET, self.size["read_interval_us"]).config
        self.profile_seed = PROFILE_SEED + seed
        self.data_seed, self.split_seed = DATA_SEED + seed, SPLIT_SEED + seed
        self.policy_seed, self.fold_seed = POLICY_SEED + seed, FOLD_SEED + seed

    def describe(self) -> dict:
        return {**self.size, "preset": PRESET, "feature_length": self.config.feature_length,
                "rows": self.size["classes"] * self.size["visits"], "profile_seed": self.profile_seed,
                "data_seed": self.data_seed, "split_seed": self.split_seed,
                "policy_seed": self.policy_seed, "fold_seed": self.fold_seed}

    def setup(self) -> list[tuple[str, collector.RawTraceSet]]:
        """(label, raw trace set) per visit, in visiting order."""
        cfg, s = self.config, self.size
        n_events, length = len(cfg.events), cfg.expected_samples
        profiles = synth.gen_profiles(s["classes"], n_events, length, self.profile_seed)
        corpus = synth.gen_dataset(profiles, s["visits"], NOISE, seed=self.data_seed)
        visits = []
        for v in range(s["visits"]):
            for c in range(s["classes"]):
                m = corpus.measurements[c * s["visits"] + v]
                series = np.rint(m.features).astype(np.int64).reshape(n_events, length)
                raw = collector.RawTraceSet(
                    counts=dict(zip(cfg.event_names, series)),
                    timestamps=np.arange(1, length + 1) * cfg.read_interval_us / 1e6,
                    config=cfg,
                )
                visits.append((m.label, raw))
        return visits

    def commands(self, out_dir: str) -> dict[str, list[str]]:
        s = self.size
        p = functools.partial(os.path.join, out_dir)
        return {
            "prep": ["prep", "--data", p("traces.csv"), "--downsample", str(DOWNSAMPLE), "--normalize",
                     "--split-train", str(s["train"]), "--split-test", str(s["test"]),
                     "--split-seed", str(self.split_seed), "--train-out", p("train.csv"),
                     "--test-out", p("test.csv")],
            "train": ["train", "--data", p("train.csv"), "--kind", "knn", "--out", p("knn.model.json")],
            "evaluate": ["evaluate", "--data", p("test.csv"), "--model", p("knn.model.json"),
                         "--out-dir", p("eval")],
            "crossval": ["crossval", "--data", p("train.csv"), "--kind", "knn", "--folds", str(s["folds"]),
                         "--seed", str(self.fold_seed), "--out", p("crossval.json")],
            "mitigate": ["mitigate", "--data", p("traces.csv"), "--policy", "noise",
                         "--sigma", str(MITIGATION_SIGMA), "--policy-seed", str(self.policy_seed),
                         "--n-train", str(s["train"]), "--n-test", str(s["test"]),
                         "--split-seed", str(self.split_seed), "--kind", "knn", "--out", p("leakage.json")],
        }

    def run_round(self, visits, out_dir: str) -> Round:
        trace_path = os.path.join(out_dir, "traces.csv")
        file_meta = {"scenario": PRESET, "events": self.config.event_names,
                     "samples_per_event": self.config.expected_samples}
        appended, codes, log = [], {}, io.StringIO()
        start = time.perf_counter()
        for visit, (label, raw) in enumerate(visits):
            m = dataset.concatenate(raw, label)
            m = dataset.Measurement(label=m.label, features=m.features, meta={**m.meta, "visit": visit})
            dataset.append_measurement(trace_path, m, dataset_meta=file_meta)
            appended.append(m)
        appended_at = time.perf_counter()
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            for command, argv in self.commands(out_dir).items():
                try:
                    codes[command] = cli.main(argv)
                except SystemExit as exc:  # argparse rejected the arguments
                    codes[command] = exc.code
        end = time.perf_counter()
        failed = sum(1 for code in codes.values() if code != 0)

        classify_s, rankings, test_X = [], [], []
        if not failed:
            model = classifiers.load_model(os.path.join(out_dir, "knn.model.json"))
            test_X = dataset.load(os.path.join(out_dir, "test.csv")).feature_matrix()
        for _ in range(CLASSIFY_PASSES):
            for x in test_X:
                t0 = time.perf_counter()
                ranked = model.rank_classes(x)
                classify_s.append(time.perf_counter() - t0)
                rankings.append(ranked)
        return Round(
            pipeline_s=end - start,
            classify_s=classify_s,
            stages={"append_s": appended_at - start, "analyze_s": end - appended_at},
            attempted=len(visits) + len(codes) + len(classify_s),
            failed=failed,
            state={"visits": visits, "appended": appended, "codes": codes, "log": log.getvalue(),
                   "rankings": rankings[: len(test_X)], "out_dir": out_dir},
        )

    def success_rates(self, r: Round) -> dict[str, float]:
        with open(os.path.join(r.state["out_dir"], "eval", "report.json")) as fh:
            return {"knn": json.load(fh)["success_rate"]}

    def check(self, r: Round) -> list[str]:
        st, s, out = r.state, self.size, r.state["out_dir"]
        problems = [f"cli {c}: exit code {code}" for c, code in st["codes"].items() if code != 0]
        if problems:
            return problems + [st["log"]]
        for (_, raw), m in zip(st["visits"], st["appended"]):
            problems += checks.check_concatenate(raw, m)
        traces = dataset.load(os.path.join(out, "traces.csv"))
        problems += checks.check_rows_reload(st["appended"], traces.measurements)

        # prep: split by visit, then independent block means and min-max.
        train = dataset.load(os.path.join(out, "train.csv"))
        test = dataset.load(os.path.join(out, "test.csv"))
        train_visits = [m.meta["visit"] for m in train.measurements]
        test_visits = [m.meta["visit"] for m in test.measurements]
        problems += checks.check_split(train_visits, test_visits, train.labels(), test.labels(),
                                       s["train"], s["test"], traces.classes)
        problems += checks.check_unit_range("prep", train.feature_matrix())
        raw_X = traces.feature_matrix()
        down_train = checks.block_means(raw_X[train_visits], DOWNSAMPLE)
        down_test = checks.block_means(raw_X[test_visits], DOWNSAMPLE)
        low, high = down_train.min(axis=0), down_train.max(axis=0)
        span = np.where(high > low, high - low, 1.0)
        for name, down, got in (("train", down_train, train), ("test", down_test, test)):
            expected = np.where(high > low, (down - low) / span, 0.0)
            if not np.allclose(got.feature_matrix(), expected, rtol=1e-8, atol=1e-8):
                problems.append(f"prep: {name} rows differ from independent downsample and normalize")

        classes = train.classes

        def nn_rate(a, b):
            return checks.one_nn_rate(a.feature_matrix(), a.label_indices(classes),
                                      b.feature_matrix(), b.label_indices(classes))

        with open(os.path.join(out, "eval", "report.json")) as fh:
            report = json.load(fh)
        problems += checks.check_equal("evaluate", report["success_rate"], nn_rate(train, test))
        problems += checks.check_topk_curve("evaluate", report["topk_curve"])
        test_y = test.label_indices(classes)
        problems += checks.check_knn_top1(train.feature_matrix(), train.label_indices(classes),
                                          test.feature_matrix(), [row[0] for row in st["rankings"]])
        problems += checks.check_rates_match("classify", report["success_rate"], report["topk_curve"],
                                             st["rankings"], test_y)

        with open(os.path.join(out, "crossval.json")) as fh:
            fold_rates = json.load(fh)["fold_rates"]
        expected = [nn_rate(a, b) for a, b in dataset.kfold(train, s["folds"], self.fold_seed)]
        if len(fold_rates) != len(expected):
            problems.append(f"crossval: {len(fold_rates)} fold rates for {len(expected)} folds")
        for i, (got, want) in enumerate(zip(fold_rates, expected)):
            problems += checks.check_equal(f"crossval fold {i}", got, want)

        with open(os.path.join(out, "leakage.json")) as fh:
            before = json.load(fh)["before"]["success_rate"]
        problems += checks.check_equal(
            "mitigate before", before, nn_rate(*dataset.split(traces, s["train"], s["test"], self.split_seed))
        )
        return problems
