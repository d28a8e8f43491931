"""One arm of the acceptance protocol: generated corpus -> downsample ->
split -> min-max normalize -> train, evaluate (top-N) and save all four
classifiers, then rank each test trace one call at a time (the online
attack)."""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

from perfprint import classifiers, dataset, evaluation, synth

import checks

# Seed 0 gives the acceptance suite's documented seeds; seed n adds n to each.
PROFILE_SEED = 424242
ARMS = {
    "protocol-low": {"sigma": 0.05, "shift": 0.01, "data_seed": 1000, "split_seed": 1001, "floor": 0.90},
    # The acceptance floor at high noise is 10x chance over 30 classes, a
    # top-1 rate of 1/3; it is kept as an absolute rate at every scale.
    "protocol-high": {"sigma": 0.5, "shift": 0.05, "data_seed": 2000, "split_seed": 2001, "floor": 10 / 30},
}
# "full" is the acceptance protocol itself; "bench" keeps its trace shape,
# split and net budget with fewer classes; "tiny" is for the tests.
SCALES = {
    "full": {"classes": 30, "per_class": 50, "samples": 10_000, "downsample": 10, "train": 40, "test": 10},
    "bench": {"classes": 6, "per_class": 50, "samples": 10_000, "downsample": 10, "train": 40, "test": 10},
    "tiny": {"classes": 4, "per_class": 14, "samples": 1000, "downsample": 10, "train": 10, "test": 4},
}
N_EVENTS = 3
CLASSIFY_PASSES = 3  # the checks read the first pass
HYPERPARAMS = {
    "knn": {"k": 1},
    "tree": {},
    "svm": {},
    "net": {"seed": 99, "max_iterations": 8, "softmax_iterations": 150, "finetune_iterations": 15},
}


@dataclass
class Round:
    pipeline_s: float
    classify_s: list[float]
    stages: dict[str, float]
    attempted: int
    failed: int = 0
    state: dict = field(default_factory=dict)  # what the checks read
    traced: bool = False
    store_bytes: int = 0


class Protocol:
    def __init__(self, workload: str, scale: str, seed: int):
        self.arm = ARMS[workload]
        self.size = SCALES[scale]
        self.profile_seed = PROFILE_SEED + seed
        self.data_seed = self.arm["data_seed"] + seed
        self.split_seed = self.arm["split_seed"] + seed

    def describe(self) -> dict:
        return {**self.size, **self.arm, "profile_seed": self.profile_seed,
                "data_seed": self.data_seed, "split_seed": self.split_seed}

    def setup(self) -> dataset.Dataset:
        s = self.size
        profiles = synth.gen_profiles(s["classes"], N_EVENTS, s["samples"], self.profile_seed)
        noise = synth.NoiseModel(additive_sigma=self.arm["sigma"], max_shift=self.arm["shift"])
        return synth.gen_dataset(profiles, s["per_class"], noise, seed=self.data_seed)

    def run_round(self, corpus: dataset.Dataset, out_dir: str) -> Round:
        s = self.size
        stages = {}
        start = time.perf_counter()
        clean = dataset.downsample(corpus, s["downsample"])
        train_raw, test_raw = dataset.split(clean, s["train"], s["test"], seed=self.split_seed)
        train = dataset.normalize_fit(train_raw)
        test = dataset.normalize_apply(train.normalization, test_raw)
        models, reports = {}, {}
        for kind, hyperparams in HYPERPARAMS.items():
            t0 = time.perf_counter()
            models[kind] = classifiers.make_trainer(kind, **hyperparams)(train)
            stages[f"train_s.{kind}"] = time.perf_counter() - t0
            reports[kind] = evaluation.evaluate(models[kind], test, g_max=s["classes"])
            classifiers.save_model(models[kind], os.path.join(out_dir, f"{kind}.model.json"))
            evaluation.write_report_json(reports[kind], os.path.join(out_dir, f"{kind}.report.json"))
        pipeline_s = time.perf_counter() - start

        test_X = test.feature_matrix()
        rankings = {kind: [] for kind in models}
        classify_s = []
        for _ in range(CLASSIFY_PASSES):
            for x in test_X:
                t0 = time.perf_counter()
                ranked = [models[kind].rank_classes(x) for kind in models]
                classify_s.append(time.perf_counter() - t0)
                for kind, r in zip(models, ranked):
                    rankings[kind].append(r)
        rankings = {kind: r[: len(test_X)] for kind, r in rankings.items()}
        return Round(
            pipeline_s=pipeline_s,
            classify_s=classify_s,
            stages=stages,
            attempted=len(models) + len(classify_s),
            state={"corpus": corpus, "clean": clean, "train_raw": train_raw, "test_raw": test_raw,
                   "train": train, "test": test, "models": models, "reports": reports,
                   "rankings": rankings, "out_dir": out_dir},
        )

    def success_rates(self, r: Round) -> dict[str, float]:
        return {kind: report.success_rate for kind, report in r.state["reports"].items()}

    def check(self, r: Round) -> list[str]:
        st, s = r.state, self.size
        problems = checks.check_block_means(
            "downsample", st["corpus"].feature_matrix(), st["clean"].feature_matrix(), s["downsample"], 1e-12
        )
        # Rows are identified by the corpus row they came from; a row that is
        # not one gets an id of its own.
        ids = {id(m): i for i, m in enumerate(st["clean"].measurements)}
        problems += checks.check_split(
            [ids.get(id(m), -1 - i) for i, m in enumerate(st["train_raw"].measurements)],
            [ids.get(id(m), -1 - i) for i, m in enumerate(st["test_raw"].measurements)],
            st["train_raw"].labels(), st["test_raw"].labels(), s["train"], s["test"], st["clean"].classes,
        )
        train, test, models, reports = st["train"], st["test"], st["models"], st["reports"]
        problems += checks.check_unit_range("normalize", train.feature_matrix())
        problems += checks.check_floor(self.success_rates(r), self.arm["floor"])

        classes = models["knn"].classes
        train_X, train_y = train.feature_matrix(), train.label_indices(classes)
        test_X, test_y = test.feature_matrix(), test.label_indices(classes)
        problems += checks.check_knn_top1(train_X, train_y, test_X, [row[0] for row in st["rankings"]["knn"]])
        for kind, model in models.items():
            report = reports[kind]
            problems += checks.check_topk_curve(kind, report.topk_curve)
            problems += checks.check_rates_match(kind, report.success_rate, report.topk_curve,
                                                 st["rankings"][kind], test_y)
            batch = model.rank_classes_many(test_X)
            problems += checks.check_same_rankings(f"{kind} batch vs one-at-a-time", st["rankings"][kind], batch)
            reloaded = classifiers.load_model(os.path.join(st["out_dir"], f"{kind}.model.json"))
            problems += checks.check_same_rankings(f"{kind} reloaded", batch, reloaded.rank_classes_many(test_X))
        problems += checks.check_tree_leaves(models["tree"].nodes, train_X, train_y, len(classes))
        problems += checks.check_loss_histories(models["net"].loss_history)
        return problems
