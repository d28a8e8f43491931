"""The benchmark's own tests, at the tiny input size; run with
`python -m pytest perfbench`.

Every correctness check must accept the program's real outputs and reject
a deliberately wrong one.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

run.import_perfprint()

import checks  # noqa: E402
import tracing  # noqa: E402
from campaign import Campaign  # noqa: E402
from protocol import Protocol  # noqa: E402
from perfprint import classifiers, dataset  # noqa: E402
from perfprint.classifiers import svm, tree  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def names(section):
    return {m["name"] for m in SPEC[section]}


@pytest.fixture
def protocol_round(tmp_path):
    bench = Protocol("protocol-low", "tiny", 0)
    return bench, bench.run_round(bench.setup(), str(tmp_path))


@pytest.fixture
def campaign_round(tmp_path):
    bench = Campaign("campaign", "tiny", 0)
    return bench, bench.run_round(bench.setup(), str(tmp_path))


def has(problems, text):
    return any(text in p for p in problems)


# -- the whole benchmark ----------------------------------------------------


@pytest.mark.parametrize("workload", sorted(names("workloads")))
@pytest.mark.parametrize("trace", [False, True])
def test_workload_is_correct_and_reports_every_metric(workload, trace):
    # A traced run alternates untraced and traced rounds, so its byte-identity
    # check also shows that tracing leaves the outputs unchanged.
    result = run.run(workload, seed=1, seconds=0, trace=trace, scale="tiny")
    assert result["correct"], result["problems"]
    assert result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == names("per_layer" if trace else "end_to_end")
    if not trace:
        assert all(value > 0 for value, _ in result["metrics"].values())


def test_command_line_prints_the_result_last():
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "campaign", "--seed", "2",
         "--seconds", "0", "--trace", "0", "--scale", "tiny"],
        capture_output=True, text=True, check=True, cwd=run.ROOT, timeout=120,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "campaign", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
    )
    assert out.returncode != 0
    assert not any(line.startswith("{") for line in out.stdout.splitlines())


# -- protocol checks ----------------------------------------------------------


def test_protocol_outputs_pass(protocol_round):
    bench, r = protocol_round
    assert bench.check(r) == []


def test_swapped_knn_label_is_rejected(protocol_round):
    bench, r = protocol_round
    r.state["rankings"]["knn"][0] = np.roll(r.state["rankings"]["knn"][0], 1)
    problems = bench.check(r)
    assert has(problems, "brute-force nearest neighbour")
    assert has(problems, "knn: reported rate")
    assert has(problems, "knn batch vs one-at-a-time")


def test_perturbed_model_file_is_rejected(protocol_round):
    bench, r = protocol_round
    m = r.state["models"]["svm"]
    wrong = classifiers.LinearSvmModel(m.classes, m.pairs, -m.weights, -m.biases, m.hyperparams, m.seed)
    classifiers.save_model(wrong, os.path.join(r.state["out_dir"], "svm.model.json"))
    assert has(bench.check(r), "svm reloaded: rankings differ")


def test_wrong_tree_leaf_counts_are_rejected(protocol_round):
    bench, r = protocol_round
    leaf = next(n for n in r.state["models"]["tree"].nodes if "counts" in n)
    leaf["counts"] = np.roll(leaf["counts"], 1)
    assert has(bench.check(r), "tree: leaf counts differ")


def test_rising_net_loss_is_rejected(protocol_round):
    bench, r = protocol_round
    r.state["models"]["net"].loss_history["finetune"].append(1e9)
    assert has(bench.check(r), "net: finetune loss history increases")


def test_wrong_downsample_split_and_range_are_rejected(protocol_round):
    bench, r = protocol_round
    r.state["clean"].measurements[0].features[0] += 1.0
    r.state["test_raw"] = r.state["train_raw"]
    r.state["train"].measurements[0].features[0] = 1.5
    problems = bench.check(r)
    assert has(problems, "downsample: downsampled rows differ")
    assert has(problems, "split: train and test share rows")
    assert has(problems, "split: test per-class counts")
    assert has(problems, "normalize: normalized features outside [0, 1]")


def test_rate_floor_and_curve_checks_reject_bad_values():
    assert checks.check_floor({"tree": 0.95, "net": 0.85}, 0.90) == ["net: top-1 0.8500 below 0.9000"]
    assert checks.check_topk_curve("svm", [0.5, 0.75, 1.0]) == []
    assert has(checks.check_topk_curve("svm", [0.5, 0.4, 1.0]), "decreases")
    assert has(checks.check_topk_curve("svm", [0.5, 0.75, 0.9]), "ends at 0.9")


def test_rates_must_match_predictions():
    rankings = [[0, 1], [0, 1], [1, 0]]
    y = [0, 1, 1]
    assert checks.check_rates_match("k", 2 / 3, [2 / 3, 1.0], rankings, y) == []
    assert has(checks.check_rates_match("k", 1.0, [1.0, 1.0], rankings, y), "reported rate")


def test_files_must_be_identical_across_rounds():
    assert checks.check_identical("o", [{"a": "1"}, {"a": "1"}]) == []
    assert checks.check_identical("o", [{"a": "1"}, {"a": "2"}]) == ["o: files differ between rounds: ['a']"]
    assert has(checks.check_identical("o", [{"a": "1"}, {"a": "1", "b": "3"}]), "['b']")


# -- campaign checks ----------------------------------------------------------


def test_campaign_outputs_pass(campaign_round):
    bench, r = campaign_round
    assert bench.check(r) == []


def test_changed_campaign_row_is_rejected(campaign_round):
    bench, r = campaign_round
    r.state["appended"][2].features[5] += 1e-3
    problems = bench.check(r)
    assert has(problems, "campaign: rows [2] reload different")
    assert has(problems, "concatenate output")


def test_wrong_cli_rates_are_rejected(campaign_round):
    bench, r = campaign_round
    out = r.state["out_dir"]
    for name, edit in (
        (os.path.join("eval", "report.json"), lambda d: d.update(success_rate=d["success_rate"] - 0.25)),
        ("leakage.json", lambda d: d["before"].update(success_rate=0.0)),
        ("crossval.json", lambda d: d["fold_rates"].__setitem__(0, -1.0)),
    ):
        with open(os.path.join(out, name)) as fh:
            doc = json.load(fh)
        edit(doc)
        with open(os.path.join(out, name), "w") as fh:
            json.dump(doc, fh)
    problems = bench.check(r)
    assert has(problems, "evaluate: ")
    assert has(problems, "mitigate before: ")
    assert has(problems, "crossval fold 0: ")


def test_changed_prep_output_is_rejected(campaign_round):
    bench, r = campaign_round
    path = os.path.join(r.state["out_dir"], "train.csv")
    train = dataset.load(path)
    train.measurements[0].features[3] = 0.5 * (train.measurements[0].features[3] + 0.5) + 0.01
    dataset.save(train, path)
    assert has(bench.check(r), "prep: train rows differ")


def test_failed_cli_command_is_reported(campaign_round):
    bench, r = campaign_round
    r.state["codes"]["train"] = 3
    assert has(bench.check(r), "cli train: exit code 3")


# -- tracing ------------------------------------------------------------------


def test_tracer_records_nested_spans_and_restores_the_program():
    original = tree.best_split
    bench = Protocol("protocol-low", "tiny", 0)
    corpus = bench.setup()
    train = dataset.normalize_fit(dataset.downsample(corpus, 10))
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        model = classifiers.make_trainer("tree")(train)
    finally:
        tracer.uninstall()
    assert tree.best_split is original and classifiers._TRAINERS["tree"] is tree.train_tree
    names_by_index = [s["name"] for s in tracer.spans]
    splits = [s for s in tracer.spans if s["name"] == "tree.best_split"]
    assert splits and all(names_by_index[s["parent"]] == "train.tree" for s in splits)
    metrics = tracing.layer_metrics(tracer.spans, tracer.values)
    assert metrics["tree.best_split_calls"] == len(splits)
    assert 0 < metrics["tree.root_split_s"] <= metrics["tree.best_split_s"]
    assert model.kind == "tree"


def test_self_time_subtracts_child_spans():
    spans = [
        {"name": "cli.main", "start": 0.0, "end": 10.0, "parent": None},
        {"name": "cli.prep", "start": 1.0, "end": 9.0, "parent": 0},
        {"name": "dataset.load", "start": 2.0, "end": 5.0, "parent": 1},
        {"name": "dataset.save", "start": 5.0, "end": 8.0, "parent": 1},
    ]
    index = tracing.SpanIndex(spans)
    assert index.self_time({"cli.main", "cli.prep"}) == pytest.approx(4.0)
    assert index.total({"dataset.load"}, outside={"dataset.append_measurement"}) == pytest.approx(3.0)


def test_unconverged_pairs_are_counted():
    rng = np.random.default_rng(0)
    X = np.vstack([rng.normal(size=(20, 3)) + 0.3, rng.normal(size=(20, 3)) - 0.3])
    y = np.array([1.0] * 20 + [-1.0] * 20)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        svm.solve_pair(X, y, 1.0, max_passes=1)
        svm.solve_pair(X, y, 1.0, tol=1e-3, max_passes=100_000)
    finally:
        tracer.uninstall()
    assert tracer.values["svm.pairs_unconverged"] == [1.0, 0.0]

