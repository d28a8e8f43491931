import inspect
import json
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import perfprint
from perfprint import classifiers, cli, collector, dataset
from perfprint.cli import main
from perfprint.errors import DataError


def run(*argv):
    return main([str(a) for a in argv])


def _envelope(path):
    """A model file's first line: its JSON envelope."""
    return json.loads(path.read_bytes().partition(b"\n")[0])


def _read_model(path):
    """A model file's envelope, with each payload array in place of its
    descriptor."""
    line, _, data = path.read_bytes().partition(b"\n")
    doc = json.loads(line)
    for name, value in doc["payload"].items():
        if isinstance(value, dict):
            count = math.prod(value["shape"])
            array = np.frombuffer(data, "<f8", count=count, offset=value["offset"])
            doc["payload"][name] = array.reshape(value["shape"])
    return doc


def _write_model(path, doc):
    """`_read_model` undone: each array, wherever it is, goes to the data
    section, and its descriptor to the envelope."""
    data = bytearray()

    def descriptor(array):
        entry = {"dtype": "<f8", "shape": list(array.shape), "offset": len(data)}
        data.extend(array.astype("<f8").tobytes())
        return entry

    path.write_bytes(json.dumps(doc, default=descriptor).encode() + b"\n" + data)


def synth_args(out, classes=4, per_class=8, samples=80, seed=3, sigma=0.05, shift=0.01):
    return [
        "synth", "--classes", classes, "--per-class", per_class,
        "--events", 2, "--samples-per-event", samples,
        "--noise-sigma", sigma, "--noise-shift", shift, "--seed", seed,
        "--out", out,
    ]


def test_synth_digest_is_reproducible(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert run(*synth_args(a)) == 0
    digest_a = capsys.readouterr().out.strip().splitlines()[-1]
    assert run(*synth_args(b)) == 0
    digest_b = capsys.readouterr().out.strip().splitlines()[-1]
    assert digest_a.startswith("sha256 ")
    assert digest_a == digest_b
    assert a.read_bytes() == b.read_bytes()


def test_synth_with_four_samples_per_event(tmp_path, capsys):
    out = tmp_path / "short.csv"
    assert run("synth", "--classes", 2, "--per-class", 4, "--events", 2,
               "--samples-per-event", 4, "--out", out) == 0
    assert "Traceback" not in capsys.readouterr().err
    assert dataset.load(str(out)).feature_length == 8


def test_synth_rejects_zero_measurements(tmp_path, capsys):
    assert run("synth", "--classes", 3, "--per-class", 0, "--out", tmp_path / "x.csv") == 2
    assert "n_per_class" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [
    ("--noise-floor", "1e20"), ("--noise-floor", "inf"), ("--noise-jitter", "inf"), ("--noise-shift", "nan"),
])
def test_synth_rejects_noise_it_cannot_draw(tmp_path, capsys, flag, value):
    assert run("synth", "--classes", 2, "--per-class", 1, flag, value, "--out", tmp_path / "x.csv") == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("raw, code", [
    (b'{"events": ["instructions"], "scope": {"type": "core", "cpu": 0}, "duration_s": "abc"}', 2),
    (b'{"events": ["instructions"], "scope": {"type": "core", "cpu": 0}, "duration_s": 1e999}', 2),
    (b'{"events": ["instructions"], "scope": {"type": "core", "cpu": "x"}, "duration_s": 1}', 2),
    (b'{"events": ["instructions\xff"]}', 3),
], ids=["duration-abc", "duration-1e999", "cpu-x", "not-utf8"])
def test_malformed_scenario_file_exits_with_an_error_line(tmp_path, capsys, raw, code):
    scenario = tmp_path / "scenario.json"
    scenario.write_bytes(raw)
    assert run("collect", "--scenario", scenario, "--label", "x", "--out", tmp_path / "t.csv") == code
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("command", ["evaluate", "prep"])
def test_deeply_nested_json_exits_with_an_error_line(tmp_path, capsys, command):
    deep = tmp_path / "deep"
    if command == "evaluate":  # a model file
        deep.write_text("[" * 100_000)
        argv = ("evaluate", "--data", tmp_path / "t.csv", "--model", deep, "--out-dir", tmp_path / "ev")
    else:  # a dataset header
        deep.write_text('{"format":' + "[" * 100_000 + "\na,1.0\n")
        argv = ("prep", "--data", deep, "--normalize", "--out", tmp_path / "x.csv")
    assert run(*argv) == 3
    assert capsys.readouterr().err.startswith(f"error: {deep}: ")


def test_unknown_scenario_exits_with_config_error(tmp_path, capsys):
    code = run("collect", "--scenario", "bogus", "--label", "x", "--out", tmp_path / "t.csv")
    assert code == 2
    assert "unknown scenario" in capsys.readouterr().err


def test_collect_with_tiny_config(tmp_path, capsys):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({
        "events": ["instructions"],
        "scope": {"type": "process", "pid": -1},
        "duration_s": 0.01,
        "read_interval_us": 500,
    }))
    out = tmp_path / "trace.csv"
    code = run("collect", "--scenario", scenario, "--label", "self", "--out", out,
               "--pid", 0)
    if collector.interface_available():
        assert code == 0
        d = dataset.load(str(out))
        assert d.labels() == ["self"]
        assert d.feature_length == 20
    else:
        assert code == 4
        assert capsys.readouterr().err.startswith("error:")


def _exact_collect(config):
    """A stand-in for `collector.collect`: one count per interval, exactly
    the expected number of samples of each event."""
    n = config.expected_samples
    return collector.RawTraceSet(
        counts={event: np.ones(n, dtype=np.int64) for event in config.event_names},
        timestamps=np.arange(1, n + 1) * config.read_interval_us / 1e6,
        config=config,
    )


def test_collect_appends_one_layout_and_refuses_another(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(collector, "collect", _exact_collect)
    out = tmp_path / "traces.csv"
    for label in ("a.org", "b.org"):
        assert run("collect", "--scenario", "TorIntel", "--pid", 1, "--label", label,
                   "--out", out) == 0
    d = dataset.load(str(out))
    assert d.labels() == ["a.org", "b.org"]
    assert d.meta == {"scenario": "TorIntel", "samples_per_event": 50_000,
                      "events": ["branch-instructions", "cache-references", "llc-loads"]}
    assert [list(m.meta) for m in d.measurements] == [["captured_at"], ["captured_at"]]

    # ChromeArm's 6 x 25,000 features are as many as TorIntel's 3 x 50,000.
    before = out.read_bytes()
    capsys.readouterr()
    assert run("collect", "--scenario", "ChromeArm", "--label", "c.org", "--out", out) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "scenario is 'TorIntel' in the file, 'ChromeArm' in the append" in err
    assert out.read_bytes() == before


def test_missing_data_file_exits_three(tmp_path):
    assert run("train", "--data", tmp_path / "none.csv", "--kind", "knn",
               "--out", tmp_path / "m.json") == 3


@pytest.mark.parametrize("header", [
    {"format": "perfprint-dataset", "version": 1, "feature_length": 1, "classes": ["a"],
     "row_meta": [{"visit": 0}]},
    ["perfprint-dataset", 1],
    {"format": "perfprint-dataset", "version": 1, "feature_length": 1,
     "normalization": {"min": [0.0]}},
    {"format": "perfprint-dataset", "version": 1, "feature_length": 1, "events": 3},
    {"format": "perfprint-dataset", "version": 1, "feature_length": 1, "classes": 1},
    {"format": "perfprint-dataset", "version": 1, "feature_length": 1, "meta": [["k", "v"]]},
    {"format": "perfprint-dataset", "version": 1, "feature_length": 1, "classes": ["a"],
     "row_meta": [{"visit": 0}, {"visit": 1}, {"visit": 2}]},
    # json.dumps writes a non-finite float as NaN, Infinity or -Infinity.
    {"format": "perfprint-dataset", "version": 1, "feature_length": 1, "meta": {"x": math.nan}},
    {"format": "perfprint-dataset", "version": 1, "feature_length": 1, "meta": {"x": [math.inf]}},
    {"format": "perfprint-dataset", "version": 1, "feature_length": 1,
     "normalization": {"min": [-math.inf], "max": [1]}},
    {"format": "perfprint-dataset", "version": 1, "feature_length": 1,
     "normalization": {"min": [], "max": []}},
    {"format": "perfprint-dataset", "version": 1, "feature_length": 1,
     "normalization": {"min": [0, 0], "max": [1, 1]}},
    {"format": "perfprint-dataset", "version": 1, "feature_length": 1,
     "normalization": {"min": [[0]], "max": [[1]]}},
], ids=["short-row-meta", "list-header", "normalization-without-max", "int-events",
        "int-classes", "list-meta", "surplus-row-meta", "nan-meta", "infinity-meta",
        "infinity-normalization", "short-normalization", "long-normalization",
        "nested-normalization"])
def test_prep_on_malformed_header_exits_three(tmp_path, capsys, header):
    data = tmp_path / "bad.csv"
    data.write_text(json.dumps(header) + "\na,1.0\na,2.0\n")
    assert run("prep", "--data", data, "--out", tmp_path / "out.csv") == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {data}: line ") and err.count("\n") == 1, err
    assert "Traceback" not in err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_prep_on_non_finite_features_exits_three(tmp_path, capsys, value):
    data = tmp_path / "bad.csv"
    data.write_text('{"format":"perfprint-dataset","version":1,"feature_length":2}\n'
                    f"a,1.0,2.0\na,{value},2.0\n")
    assert run("prep", "--data", data, "--out", tmp_path / "out.csv") == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {data}: line 3 ") and "non-finite" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("fields,message", [
    ('"version":true', "unsupported version True"),
    ('"version":1.0', "unsupported version 1.0"),
    ('"version":1,"normalization":{"min":[0],"max":[1e999]}',  # 1e999 reads as inf
     "line 1: normalization min/max need 1 finite numbers"),
], ids=["version-true", "version-float", "overflowing-normalization"])
def test_prep_on_a_header_value_of_the_wrong_kind_exits_three(tmp_path, capsys, fields, message):
    data = tmp_path / "bad.csv"
    data.write_text('{"format":"perfprint-dataset",%s,"feature_length":1}\na,1\n' % fields)
    assert run("prep", "--data", data, "--out", tmp_path / "out.csv") == 3
    assert capsys.readouterr().err == f"error: {data}: {message}\n"
    assert not (tmp_path / "out.csv").exists()


def test_a_row_error_comes_before_a_normalization_error(tmp_path, capsys):
    data = tmp_path / "bad.csv"
    data.write_text('{"format":"perfprint-dataset","version":1,"feature_length":3,'
                    '"normalization":{"min":[0],"max":[1]}}\na,1,2,3\nb,4,x,6\n')
    assert run("prep", "--data", data, "--out", tmp_path / "out.csv") == 3
    assert capsys.readouterr().err.startswith(f"error: {data}: line 3: non-numeric feature")


def test_prep_split_normalize_downsample(tmp_path):
    full = tmp_path / "full.csv"
    assert run(*synth_args(full)) == 0
    train = tmp_path / "train.csv"
    test = tmp_path / "test.csv"
    assert run("prep", "--data", full, "--downsample", 2, "--normalize",
               "--split-train", 6, "--split-test", 2, "--split-seed", 1,
               "--train-out", train, "--test-out", test) == 0
    d_train = dataset.load(str(train))
    d_test = dataset.load(str(test))
    assert len(d_train) == 24 and len(d_test) == 8
    assert d_train.feature_length == 80  # 2 events x 80 samples, halved
    assert d_train.normalization is not None
    x = d_train.feature_matrix()
    assert x.min() >= 0.0 and x.max() <= 1.0


# Each `prep` output mistake: a missing output, an output the mode does not
# write, and train and test outputs that are one file.
@pytest.mark.parametrize("flags", [
    [],
    ["--split-train", 6, "--train-out", "train.csv"],
    ["--split-train", 6, "--test-out", "test.csv"],
    ["--train-out", "train.csv", "--test-out", "test.csv"],
    ["--out", "out.csv", "--test-out", "test.csv"],
    ["--split-train", 6, "--train-out", "train.csv", "--test-out", "test.csv", "--out", "out.csv"],
    ["--split-train", 6, "--train-out", "x.csv", "--test-out", "x.csv"],
    ["--split-train", 6, "--train-out", "x.csv", "--test-out", "sub/../x.csv"],
    ["--split-train", 6, "--train-out", "x.csv", "--test-out", "link.csv"],
], ids=["no-out", "no-test-out", "no-train-out", "split-outs-unsplit", "test-out-unsplit",
        "out-split", "same-name", "same-path", "same-file-by-link"])
def test_prep_refuses_its_outputs_before_it_reads_the_data(tmp_path, capsys, monkeypatch, flags):
    full = tmp_path / "full.csv"
    assert run(*synth_args(full)) == 0
    (tmp_path / "sub").mkdir()
    (tmp_path / "link.csv").symlink_to(tmp_path / "x.csv")
    monkeypatch.chdir(tmp_path)
    loads = []
    monkeypatch.setattr(dataset, "load", lambda path: loads.append(path))
    before = sorted(p.name for p in tmp_path.rglob("*"))
    capsys.readouterr()
    assert run("prep", "--data", full, *flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --") and err.count("\n") == 1, err
    assert loads == []
    assert sorted(p.name for p in tmp_path.rglob("*")) == before


def test_train_evaluate_round_trip(tmp_path):
    full = tmp_path / "full.csv"
    train = tmp_path / "train.csv"
    test = tmp_path / "test.csv"
    model = tmp_path / "knn.json"
    reports = tmp_path / "reports"
    assert run(*synth_args(full)) == 0
    assert run("prep", "--data", full, "--normalize", "--split-train", 6,
               "--split-test", 2, "--train-out", train, "--test-out", test) == 0
    assert run("train", "--data", train, "--kind", "knn", "--k", 1, "--out", model) == 0
    assert run("evaluate", "--data", test, "--model", model, "--topk", 3,
               "--out-dir", reports) == 0

    report = json.loads((reports / "report.json").read_text())
    assert report["success_rate"] == 1.0
    assert report["meta"]["model_sha256"]
    assert report["meta"]["test_data_sha256"]

    topk_lines = (reports / "topk.csv").read_text().strip().splitlines()
    assert topk_lines[0] == "guesses,success_rate"
    assert len(topk_lines) == 1 + 3
    rates = [float(line.split(",")[1]) for line in topk_lines[1:]]
    assert rates == sorted(rates)

    per_class_lines = (reports / "per_class.csv").read_text().strip().splitlines()
    assert len(per_class_lines) == 1 + 4


def test_crossval_writes_fold_rates(tmp_path):
    full = tmp_path / "full.csv"
    out = tmp_path / "cv.json"
    assert run(*synth_args(full)) == 0
    assert run("crossval", "--data", full, "--kind", "knn", "--folds", 4,
               "--seed", 2, "--out", out) == 0
    doc = json.loads(out.read_text())
    assert len(doc["fold_rates"]) == 4
    assert doc["data_sha256"]
    assert doc["mean_success_rate"] == pytest.approx(
        sum(doc["fold_rates"]) / 4
    )


def test_curve_writes_csv(tmp_path):
    full = tmp_path / "full.csv"
    out = tmp_path / "curve.csv"
    assert run(*synth_args(full, per_class=10)) == 0
    assert run("curve", "--data", full, "--kind", "knn", "--sizes", "2,5",
               "--n-test", 3, "--seed", 4, "--out", out) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "train_size,success_rate"
    assert len(lines) == 3


@pytest.mark.parametrize("sizes", ["2,x", "2.5", "a,b"])
def test_curve_rejects_malformed_sizes(tmp_path, capsys, sizes):
    full = tmp_path / "full.csv"
    out = tmp_path / "curve.csv"
    assert run(*synth_args(full, per_class=10)) == 0
    assert run("curve", "--data", full, "--kind", "knn", "--sizes", sizes,
               "--n-test", 3, "--seed", 4, "--out", out) == 2
    assert "--sizes" in capsys.readouterr().err
    assert not out.exists()


def test_mitigate_deny_reaches_chance(tmp_path):
    full = tmp_path / "full.csv"
    out = tmp_path / "leak.json"
    assert run(*synth_args(full)) == 0
    assert run("mitigate", "--data", full, "--policy", "deny", "--kind", "knn",
               "--n-train", 6, "--n-test", 2, "--split-seed", 5, "--out", out) == 0
    doc = json.loads(out.read_text())
    assert doc["after"]["success_rate"] <= 1.0 / 4 + 0.05
    assert doc["accuracy_delta"] >= 0.5
    assert doc["seeds"]["split_seed"] == 5


@pytest.mark.parametrize("sigma", ["nan", "inf"])
def test_mitigate_rejects_a_sigma_that_is_not_finite(tmp_path, capsys, sigma):
    full, out = tmp_path / "full.csv", tmp_path / "leak.json"
    assert run(*synth_args(full)) == 0
    assert run("mitigate", "--data", full, "--policy", "noise", "--sigma", sigma, "--kind", "knn",
               "--n-train", 6, "--n-test", 2, "--out", out) == 2
    assert f"sigma must be finite and >= 0, got {sigma}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("policy", ["downsample", "deny"])
def test_mitigate_rejects_a_sigma_that_is_not_finite_under_any_policy(tmp_path, capsys, policy):
    # Only the noise policy reads --sigma, so any other refuses it, whatever its value.
    full, out = tmp_path / "full.csv", tmp_path / "leak.json"
    assert run(*synth_args(full)) == 0
    assert run("mitigate", "--data", full, "--policy", policy, "--sigma", "nan", "--kind", "knn",
               "--n-train", 6, "--n-test", 2, "--out", out) == 2
    assert capsys.readouterr().err == (
        f"error: --sigma is a --policy noise flag, not one for --policy {policy}\n")
    assert not out.exists()


@pytest.mark.parametrize("kind, flag", [("svm", "--C"), ("svm", "--tol"), ("net", "--l2"),
                                        ("net", "--lr"), ("net", "--memory-budget-mb")])
def test_a_model_flag_that_is_not_finite_exits_two(tmp_path, capsys, kind, flag):
    full, out = tmp_path / "full.csv", tmp_path / "m.json"
    assert run(*synth_args(full, classes=2, per_class=4, samples=8)) == 0
    capsys.readouterr()
    assert run("train", "--data", full, "--kind", kind, flag, "inf", "--out", out) == 2
    assert capsys.readouterr().err == f"error: {flag} must be finite, got inf\n"
    assert not out.exists()


# Frozen once from the first implementation run with the seeds used below
# (synth 1234, split 7, net 7): the CLI-level pipeline regression value.
PIPELINE_FROZEN_SUCCESS_RATE = 1.0


def test_full_pipeline_net_regression(tmp_path):
    full = tmp_path / "full.csv"
    train = tmp_path / "train.csv"
    test = tmp_path / "test.csv"
    model = tmp_path / "net.json"
    reports = tmp_path / "reports"
    assert run(*synth_args(full, classes=4, per_class=8, samples=60, seed=1234)) == 0
    assert run("prep", "--data", full, "--normalize", "--split-train", 6,
               "--split-test", 2, "--split-seed", 7, "--train-out", train,
               "--test-out", test) == 0
    assert run("train", "--data", train, "--kind", "net", "--train-seed", 7,
               "--max-iter", 30, "--hidden1", 16, "--hidden2", 8,
               "--out", model) == 0
    assert run("evaluate", "--data", test, "--model", model, "--out-dir", reports) == 0
    report = json.loads((reports / "report.json").read_text())
    assert report["success_rate"] == PIPELINE_FROZEN_SUCCESS_RATE


def _train_cli_model(tmp_path, kind, *flags):
    """Train on a small synthetic split; return the model and test paths."""
    full, train, test = tmp_path / "full.csv", tmp_path / "train.csv", tmp_path / "test.csv"
    model = tmp_path / f"{kind}.json"
    assert run(*synth_args(full)) == 0
    assert run("prep", "--data", full, "--normalize", "--split-train", 6,
               "--split-test", 2, "--train-out", train, "--test-out", test) == 0
    assert run("train", "--data", train, "--kind", kind, "--out", model, *flags) == 0
    return model, test


@pytest.mark.parametrize("kind", ["knn", "tree", "svm", "net"])
def test_train_prints_a_summary_line(tmp_path, capsys, kind):
    full, model = tmp_path / "full.csv", tmp_path / f"{kind}.json"
    assert run(*synth_args(full, classes=3, per_class=4, samples=20)) == 0
    flags = ("--max-iter", 5) if kind == "net" else ()
    assert run("train", "--data", full, "--kind", kind, "--out", model, *flags) == 0
    lines = capsys.readouterr().out.splitlines()
    summary = lines[-2] if kind == "svm" else lines[-1]  # the svm adds its pair line
    assert re.fullmatch(
        rf"trained {kind} on 12 measurements \(3 classes\) in \d+\.\d s -> {re.escape(str(model))}",
        summary,
    )


def test_train_svm_prints_how_the_pairs_were_solved(tmp_path, capsys):
    full, model = tmp_path / "full.csv", tmp_path / "svm.json"
    assert run(*synth_args(full, classes=3, per_class=4, samples=20)) == 0
    assert run("train", "--data", full, "--kind", "svm", "--out", model) == 0
    summary = capsys.readouterr().out.splitlines()[-1]
    assert summary == "svm pairs: 3 certified, 0 uncertified at max_passes 1000 (tol 0.001)"
    # No alpha is certified at tol 0, so every pair runs to the cap.
    assert run("train", "--data", full, "--kind", "svm", "--tol", 0, "--max-passes", 4,
               "--out", model) == 0
    summary = capsys.readouterr().out.splitlines()[-1]
    assert summary == "svm pairs: 0 certified, 3 uncertified at max_passes 4 (tol 0)"


def _drop_classes(doc):
    del doc["classes"]


def _list_payload(doc):
    doc["payload"] = [doc["payload"]]


def _child_out_of_range(doc):
    nodes = doc["payload"]["nodes"]
    next(n for n in nodes if "left" in n)["right"] = len(nodes)


def _root_is_its_own_child(doc):
    doc["payload"]["nodes"][0]["left"] = 0


def _short_leaf_counts(doc):
    leaf = next(n for n in doc["payload"]["nodes"] if "counts" in n)
    leaf["counts"] = leaf["counts"][:-1]


def _pair_out_of_range(doc):
    doc["payload"]["pairs"][0] = [1, 7]


def _one_pair_fewer(doc):
    del doc["payload"]["pairs"][-1]


def _resize(doc, name, delta):
    """Drop (delta < 0) or repeat (delta > 0) the last entries of a 1-D array."""
    array = doc["payload"][name]
    doc["payload"][name] = array[:len(array) + delta] if delta < 0 else np.append(array, array[-delta:])


@pytest.mark.parametrize("corrupt, kind", [
    (_drop_classes, "knn"),
    (_list_payload, "knn"),
    (_child_out_of_range, "tree"),
    (_root_is_its_own_child, "tree"),
    (_short_leaf_counts, "tree"),
    (_pair_out_of_range, "svm"),
    (_one_pair_fewer, "svm"),
    (lambda doc: _resize(doc, "biases", -1), "svm"),
    (lambda doc: _resize(doc, "b1", -1), "net"),
    (lambda doc: _resize(doc, "bs", 1), "net"),
], ids=["no-classes", "list-payload", "child-out-of-range", "root-loops", "short-leaf-counts",
        "svm-pair-out-of-range", "svm-one-pair-fewer", "svm-short-biases", "net-short-b1",
        "net-long-bs"])
def test_evaluate_on_corrupt_model_exits_three(tmp_path, corrupt, kind):
    flags = {"tree": ["--min-parent", 2], "net": ["--max-iter", 2, "--hidden1", 8, "--hidden2", 4]}
    model, test = _train_cli_model(tmp_path, kind, *flags.get(kind, []))
    doc = _read_model(model)
    corrupt(doc)
    _write_model(model, doc)
    # A separate process, so a model that routes forever fails by timeout
    # instead of hanging the suite.
    src = os.path.dirname(os.path.dirname(perfprint.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from perfprint.cli import main; sys.exit(main())",
         "evaluate", "--data", str(test), "--model", str(model), "--out-dir", str(tmp_path / "r")],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith(f"error: {model}: ")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_evaluate_on_a_model_envelope_holding_a_non_finite_value_exits_three(tmp_path, capsys, value):
    model, test = _train_cli_model(tmp_path, "svm")
    doc = _read_model(model)
    doc["hyperparams"]["c"] = value  # json.dumps writes NaN, Infinity or -Infinity
    _write_model(model, doc)
    capsys.readouterr()
    assert run("evaluate", "--data", test, "--model", model, "--out-dir", tmp_path / "r") == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {model}: malformed model file: ") and err.count("\n") == 1, err
    assert not (tmp_path / "r").exists()


def _tree_leaf_counts_of_other_types(doc):
    leaf = next(n for n in doc["payload"]["nodes"] if "counts" in n)
    leaf["counts"] = ["3", 1.9, True] + [1] * (len(doc["classes"]) - 3)


def _tree_float_class_frequency(doc):
    doc["payload"]["class_frequency"] = [2.7] * len(doc["classes"])


# numpy would convert these to ints, 1 for true and 2 for 2.7; a tree file
# holds ints only.
@pytest.mark.parametrize("edit", [_tree_leaf_counts_of_other_types, _tree_float_class_frequency],
                         ids=["leaf-counts", "class-frequency"])
def test_a_tree_file_whose_counts_are_not_ints_exits_three(tmp_path, capsys, edit):
    model, test = _train_cli_model(tmp_path, "tree", "--min-parent", 2)
    doc = _read_model(model)
    edit(doc)
    _write_model(model, doc)
    with pytest.raises(DataError, match="int"):
        classifiers.load_model(str(model))
    capsys.readouterr()
    assert run("evaluate", "--data", test, "--model", model, "--out-dir", tmp_path / "r") == 3
    assert capsys.readouterr().err.startswith(f"error: {model}: ")
    assert not (tmp_path / "r").exists()


def test_a_tree_file_with_negative_counts_loads_and_resaves_its_bytes(tmp_path):
    model, _ = _train_cli_model(tmp_path, "tree", "--min-parent", 2)
    doc = _read_model(model)
    next(n for n in doc["payload"]["nodes"] if "counts" in n)["counts"][0] = -2
    doc["payload"]["class_frequency"][-1] = -1
    _write_model(model, doc)
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    for source, target in ((model, first), (first, second)):
        loaded = classifiers.load_model(str(source))
        classifiers.save_model(loaded, str(target), provenance=loaded.provenance)
    assert _read_model(first)["payload"] == doc["payload"]
    assert second.read_bytes() == first.read_bytes()


def _edit_descriptor(key, value):
    def edit(line, data):
        doc = json.loads(line)
        doc["payload"]["biases"][key] = value
        return json.dumps(doc).encode(), data
    return edit


# Version-2 layouts that `load_model` refuses before it reads an array.
@pytest.mark.parametrize("corrupt", [
    lambda line, data: (line, data[:-1]),
    lambda line, data: (line, data + b"\0"),
    _edit_descriptor("offset", 8),
    _edit_descriptor("dtype", "<f4"),
    _edit_descriptor("shape", [10**15]),
], ids=["truncated-data", "trailing-byte", "offset-moved", "dtype-f4", "huge-shape"])
def test_evaluate_on_a_corrupt_layout_exits_three(tmp_path, capsys, corrupt):
    model, test = _train_cli_model(tmp_path, "svm")
    line, _, data = model.read_bytes().partition(b"\n")
    line, data = corrupt(line, data)
    model.write_bytes(line + b"\n" + data)
    capsys.readouterr()
    assert run("evaluate", "--data", test, "--model", model, "--out-dir", tmp_path / "r") == 3
    assert capsys.readouterr().err.startswith(f"error: {model}: corrupt 'svm' model: ")
    assert not (tmp_path / "r").exists()


# The trainer keywords crossval records, in the order it writes them.
CROSSVAL_HYPERPARAMS = [
    ("knn", [], {"k": 1}),
    ("knn", ["--k", 3], {"k": 3}),
    ("tree", [], {"min_leaf": 1, "min_parent": 10}),
    ("tree", ["--max-splits", 2, "--min-leaf", 2, "--min-parent", 4],
     {"min_leaf": 2, "min_parent": 4, "max_splits": 2}),
    ("svm", [], {"c": 1.0, "tol": 0.001, "max_passes": 1000}),
    ("svm", ["--C", 0.5, "--tol", 0.01, "--max-passes", 50],
     {"c": 0.5, "tol": 0.01, "max_passes": 50}),
    ("net", [], {"seed": 0, "max_iterations": 400, "l2_weight": 0.001,
                 "learning_rate": 0.1, "memory_budget_mb": 2048.0}),
    ("net", ["--train-seed", 3, "--max-iter", 5, "--hidden1", 8, "--hidden2", 4,
             "--softmax-iter", 6, "--finetune-iter", 7, "--l2", 0.01, "--lr", 0.2,
             "--memory-budget-mb", 100],
     {"seed": 3, "max_iterations": 5, "l2_weight": 0.01, "learning_rate": 0.2,
      "memory_budget_mb": 100.0, "hidden1": 8, "hidden2": 4, "softmax_iterations": 6,
      "finetune_iterations": 7}),
]


@pytest.mark.parametrize("kind, flags, expected", CROSSVAL_HYPERPARAMS)
def test_crossval_records_the_trainer_keywords(tmp_path, kind, flags, expected):
    full = tmp_path / "full.csv"
    out = tmp_path / "cv.json"
    assert run(*synth_args(full, classes=2, per_class=4, samples=8)) == 0
    assert run("crossval", "--data", full, "--kind", kind, "--folds", 2,
               "--out", out, *flags) == 0
    hyperparams = json.loads(out.read_text())["hyperparams"]
    assert list(hyperparams.items()) == list(expected.items())


@pytest.mark.parametrize("kind", ["knn", "tree", "svm", "net"])
def test_evaluate_on_narrower_data_exits_three(tmp_path, capsys, kind):
    # Trained on 80 features, evaluated on the same traces downsampled to 40.
    full, half, model = tmp_path / "full.csv", tmp_path / "half.csv", tmp_path / "m.json"
    assert run("synth", "--classes", 3, "--per-class", 4, "--events", 2,
               "--samples-per-event", 40, "--noise-sigma", 1.0, "--seed", 19,
               "--out", full) == 0
    assert run("prep", "--data", full, "--downsample", 2, "--out", half) == 0
    assert run("train", "--data", full, "--kind", kind, "--out", model,
               *(["--min-parent", 2] if kind == "tree" else [])) == 0
    if kind == "tree":  # a tree is only rejected when it splits past the width
        nodes = _envelope(model)["payload"]["nodes"]
        assert max(n["feature"] for n in nodes if "feature" in n) >= 40
    capsys.readouterr()
    assert run("evaluate", "--data", half, "--model", model, "--out-dir", tmp_path / "r") == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {kind} model ") and "40" in err
    assert "Traceback" not in err
    assert not (tmp_path / "r").exists()


def test_evaluate_knn_on_a_query_whose_square_overflows_exits_three(tmp_path, capsys):
    model, test = _train_cli_model(tmp_path, "knn")
    d = dataset.load(str(test))
    x = d.feature_matrix().copy()
    x[0, 0] = 1e200
    dataset.save(d.with_features(x, normalization=d.normalization), str(test))
    capsys.readouterr()
    assert run("evaluate", "--data", test, "--model", model, "--out-dir", tmp_path / "r") == 3
    err = capsys.readouterr().err
    assert err.startswith("error: knn: a query's distances are not finite")
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("kind", ["knn", "svm"])
def test_a_feature_whose_square_overflows_prints_only_the_error_line(tmp_path, capsys, kind):
    # kNN fails when it ranks a test row, SVM when it trains; no numpy
    # warning may reach stderr ahead of the error line.
    model, test = _train_cli_model(tmp_path, "knn")
    data = tmp_path / ("test.csv" if kind == "knn" else "train.csv")
    d = dataset.load(str(data))
    x = d.feature_matrix().copy()
    x[0, 0] = 1e200
    dataset.save(d.with_features(x, normalization=d.normalization), str(data))
    argv = (("evaluate", "--data", test, "--model", model, "--out-dir", tmp_path / "r")
            if kind == "knn" else
            ("train", "--data", data, "--kind", "svm", "--out", tmp_path / "svm.json"))
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run(*argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")


def test_evaluate_tree_on_data_holding_its_split_features(tmp_path):
    full, half, model = tmp_path / "full.csv", tmp_path / "half.csv", tmp_path / "m.json"
    assert run(*synth_args(full, classes=3, per_class=4, samples=40)) == 0
    assert run("prep", "--data", full, "--downsample", 2, "--out", half) == 0
    assert run("train", "--data", full, "--kind", "tree", "--min-parent", 2, "--out", model) == 0
    nodes = _envelope(model)["payload"]["nodes"]
    assert max(n["feature"] for n in nodes if "feature" in n) < 40
    assert run("evaluate", "--data", half, "--model", model, "--out-dir", tmp_path / "r") == 0


@pytest.mark.parametrize("kind, flag, value, message", [
    ("net", "--lr", "0", "learning_rate must be > 0, got 0.0"),
    ("svm", "--max-passes", "0", "max_passes must be >= 1, got 0"),
    ("tree", "--min-leaf", "-2", "min_leaf must be >= 1, got -2"),
    # A split needs two rows, so min_parent's floor is 2.
    ("tree", "--min-parent", "-5", "min_parent must be >= 2, got -5"),
    ("tree", "--min-parent", "0", "min_parent must be >= 2, got 0"),
    ("tree", "--min-parent", "1", "min_parent must be >= 2, got 1"),
])
def test_a_model_flag_outside_its_range_exits_two(tmp_path, capsys, kind, flag, value, message):
    full, out = tmp_path / "full.csv", tmp_path / "m.json"
    assert run(*synth_args(full, classes=2, per_class=4, samples=8)) == 0
    capsys.readouterr()
    assert run("train", "--data", full, "--kind", kind, flag, value, "--out", out) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


# Each command's seed flag, given -1: numpy's generator would raise a bare
# ValueError, so the one seed check refuses it first.
@pytest.mark.parametrize("argv, name", [
    (["synth", "--classes", 2, "--per-class", 4, "--events", 2, "--samples-per-event", 8,
      "--seed", -1], "seed"),
    (["prep", "--data", "{full}", "--split-train", 2, "--split-test", 1, "--split-seed", -1,
      "--train-out", "{out}", "--test-out", "{out}.test"], "seed"),
    (["train", "--data", "{full}", "--kind", "net", "--train-seed", -1], "seed"),
    (["crossval", "--data", "{full}", "--kind", "knn", "--folds", 2, "--seed", -1], "seed"),
    (["curve", "--data", "{full}", "--kind", "knn", "--sizes", "2", "--n-test", 1,
      "--seed", -1], "seed"),
    (["mitigate", "--data", "{full}", "--kind", "knn", "--policy", "deny", "--n-train", 2,
      "--n-test", 1, "--split-seed", -1], "seed"),
    (["mitigate", "--data", "{full}", "--kind", "knn", "--policy", "noise", "--n-train", 2,
      "--n-test", 1, "--policy-seed", -1], "policy seed"),
], ids=["synth", "prep", "train", "crossval", "curve", "mitigate-split", "mitigate-policy"])
def test_a_negative_seed_exits_two(tmp_path, capsys, argv, name):
    full, out = tmp_path / "full.csv", tmp_path / "out"
    assert run(*synth_args(full, classes=2, per_class=4, samples=8)) == 0
    capsys.readouterr()
    argv = [str(a).format(full=full, out=out) for a in argv]
    if "--out" not in argv and "--train-out" not in argv:
        argv += ["--out", str(out)]
    assert run(*argv) == 2
    assert capsys.readouterr().err == f"error: {name} must be >= 0, got -1\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["full.csv"]


# For each command that trains: a flag of another kind, and the kind it
# belongs to.
@pytest.mark.parametrize("command, flag, owner", [
    (["train", "--kind", "knn"], ["--min-parent", 2], "tree"),
    (["crossval", "--kind", "knn", "--folds", 2], ["--C", 0.5], "svm"),
    (["curve", "--kind", "tree", "--sizes", "2", "--n-test", 1], ["--k", 1], "knn"),
    (["mitigate", "--kind", "svm", "--policy", "deny", "--n-train", 2, "--n-test", 1],
     ["--hidden1", 8], "net"),
], ids=["train", "crossval", "curve", "mitigate"])
def test_a_flag_of_another_kind_exits_two(tmp_path, capsys, command, flag, owner):
    full, out = tmp_path / "full.csv", tmp_path / "out"
    assert run(*synth_args(full, classes=2, per_class=4, samples=8)) == 0
    capsys.readouterr()
    assert run(*command, "--data", full, "--out", out, *flag) == 2
    err = capsys.readouterr().err
    assert err == f"error: {flag[0]} is a --kind {owner} flag, not one for --kind {command[2]}\n"
    assert not out.exists()


@pytest.mark.parametrize("flags, constructor", [
    *((cli._MODEL_FLAGS[kind], classifiers._TRAINERS[kind]) for kind in cli._MODEL_FLAGS),
    *((cli._POLICY_FLAGS[policy], cli._POLICIES[policy]) for policy in cli._POLICY_FLAGS),
], ids=[*cli._MODEL_FLAGS, *(f"policy-{policy}" for policy in cli._POLICY_FLAGS)])
def test_every_flag_names_a_parameter_of_its_trainer(flags, constructor):
    # A flag left out takes the default of the trainer or policy keyword it
    # names; a misnamed one would end in a KeyError.
    params = inspect.signature(constructor).parameters
    assert {kw for _, kw, _, _ in flags} <= set(params)


def test_evaluate_refuses_an_out_dir_that_is_a_file_before_scoring(tmp_path, capsys, monkeypatch):
    model, test = _train_cli_model(tmp_path, "knn")
    out = tmp_path / "out.csv"
    out.write_text("kept\n")
    calls = []
    rank = classifiers.KnnModel.rank_classes_many
    monkeypatch.setattr(classifiers.KnnModel, "rank_classes_many",
                        lambda self, X: calls.append(len(X)) or rank(self, X))
    capsys.readouterr()
    assert run("evaluate", "--data", test, "--model", model, "--out-dir", out) == 3
    assert capsys.readouterr().err == f"error: --out-dir {out} exists and is not a directory\n"
    assert calls == [] and out.read_text() == "kept\n"


def _bad_path_case(tmp_path, case):
    """The argv of one bad-path case and the file it must leave alone."""
    full, model = tmp_path / "full.csv", tmp_path / "m.model"
    assert run(*synth_args(full, classes=2, per_class=4, samples=8)) == 0
    assert run("train", "--data", full, "--kind", "knn", "--out", model) == 0
    a_dir = tmp_path / "a-dir"
    a_dir.mkdir()
    not_text = tmp_path / "not-text.csv"
    not_text.write_bytes(b"\xff" + full.read_bytes())
    out = tmp_path / "out.csv"
    out.write_text("kept\n")
    return {
        "train-data-dir": (["train", "--data", a_dir, "--kind", "knn", "--out", model], model),
        "prep-data-dir": (["prep", "--data", a_dir, "--out", out], out),
        "evaluate-data-dir": (["evaluate", "--data", a_dir, "--model", model,
                               "--out-dir", tmp_path / "r"], tmp_path / "r"),
        "train-out-dir": (["train", "--data", full, "--kind", "knn", "--out", a_dir], a_dir),
        "evaluate-out-dir-file": (["evaluate", "--data", full, "--model", model,
                                   "--out-dir", out], out),
        "prep-not-text": (["prep", "--data", not_text, "--out", out], out),
        "prep-downsample-0": (["prep", "--data", full, "--downsample", 0, "--out", out], out),
        "prep-downsample-neg": (["prep", "--data", full, "--downsample", -4, "--out", out], out),
        "await-timeout-nan": (["collect", "--scenario", "TorIntel", "--label", "x",
                               "--await", "tor", "--await-timeout", "nan", "--out", out], out),
        **{f"curve-n-test-{n}": (["curve", "--data", full, "--kind", "knn", "--sizes", 2,
                                  "--n-test", n, "--out", out], out) for n in (0, -3)},
    }[case]


# Each path or value the CLI cannot use, and the exit code it ends in.
@pytest.mark.parametrize("case, code", [
    ("train-data-dir", 3),
    ("prep-data-dir", 3),
    ("evaluate-data-dir", 3),
    ("train-out-dir", 3),
    ("evaluate-out-dir-file", 3),
    ("prep-not-text", 3),
    ("prep-downsample-0", 2),
    ("prep-downsample-neg", 2),
    ("await-timeout-nan", 2),
    ("curve-n-test-0", 2),
    ("curve-n-test--3", 2),
])
def test_a_bad_path_or_value_prints_one_error_line(tmp_path, capsys, case, code):
    # Whatever the target was before, it still is: no file in its place and
    # no temp file beside it.
    argv, target = _bad_path_case(tmp_path, case)
    before = sorted(p.name for p in tmp_path.rglob("*"))
    kept = target.read_bytes() if target.is_file() else None
    capsys.readouterr()
    assert run(*argv) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert sorted(p.name for p in tmp_path.rglob("*")) == before
    assert (target.read_bytes() if target.is_file() else None) == kept


def _subcommands():
    """Each subcommand's parser, by name, from `cli.build_parser()`."""
    (sub,) = [a for a in cli.build_parser()._actions if a.choices and a.dest == "command"]
    return sub.choices


@pytest.mark.parametrize("command", sorted(_subcommands()))
def test_the_mode_table_lists_every_optional_flag_once(command):
    # A flag added to the parser without a table row fails here.
    optional = [a.option_strings[-1] for a in _subcommands()[command]._actions
                if a.option_strings and not a.required and a.dest != "help"]
    rows = cli._COMMANDS[command][1]
    assert sorted(optional) == sorted(flag for flag, kw, _ in rows if not kw.get("required"))


# Every command's required arguments, and for each selector an argv that
# puts it in each of its modes (collect's core-wide scope is reached by a
# core-wide preset and by --cpu).
_REQUIRED = {
    "collect": ["--label", "x", "--out", "trace.csv"],
    "prep": ["--data", "full.csv"],
    "train": ["--data", "full.csv", "--out", "m.json"],
    "crossval": ["--data", "full.csv", "--out", "cv.json"],
    "curve": ["--data", "full.csv", "--sizes", "2", "--n-test", "1", "--out", "c.csv"],
    "mitigate": ["--data", "full.csv", "--n-train", "2", "--n-test", "1", "--out", "l.json",
                 "--kind", "knn", "--policy", "deny"],
}
_MODE_ARGVS = {
    "kind": {kind: [["--kind", kind]] for kind in classifiers.MODEL_KINDS},
    "policy": {policy: [["--policy", policy]] for policy in cli._POLICIES},
    "split": {True: [["--split-train", "2", "--train-out", "a.csv", "--test-out", "b.csv"]],
              False: [["--out", "o.csv"]]},
    "target": {"core": [["--scenario", "ChromeArm"], ["--scenario", "TorIntel", "--cpu", "0"]],
               "fixed": [["--scenario", "pid0.json"]],
               "pid": [["--scenario", "TorIntel", "--pid", "1"]],
               "await": [["--scenario", "TorIntel", "--await", "tor"]]},
}
_FLAG_CASES = [
    (command, flag, mode == owner[1], argv)
    for command, (_, rows) in cli._COMMANDS.items()
    for flag, _, owner in rows if owner is not None
    for mode, argvs in _MODE_ARGVS[owner[0]].items()
    for argv in argvs
]


@pytest.mark.parametrize("command, flag, inside, mode_argv", _FLAG_CASES,
                         ids=[f"{c}{f}-{'in' if i else 'outside'}-{'-'.join(a)}"
                              for c, f, i, a in _FLAG_CASES])
def test_a_flag_outside_its_mode_is_refused_before_anything_is_read(
        tmp_path, capsys, monkeypatch, command, flag, inside, mode_argv):
    # Inside its mode the flag lets the command reach its first read, which
    # the spies stop; outside it, the command exits 2 before any read.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "pid0.json").write_text(json.dumps({
        "events": ["instructions"], "scope": {"type": "process", "pid": 0}, "duration_s": 0.01}))
    reads = []

    def spy(name):
        def read(*args, **kwargs):
            reads.append(name)
            raise DataError(f"{name} called")
        return read

    monkeypatch.setattr(dataset, "load", spy("load"))
    monkeypatch.setattr(collector, "collect", spy("collect"))
    monkeypatch.setattr(collector, "await_target_process", spy("await"))
    (action,) = [a for a in _subcommands()[command]._actions if flag in a.option_strings]
    value = {int: "2", float: "0.5"}.get(action.type, "given.csv")
    before = sorted(p.name for p in tmp_path.rglob("*"))
    code = run(command, *_REQUIRED[command], *mode_argv, flag, value)
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    if inside:
        assert (code, len(reads)) == (3, 1), err
    else:
        assert code == 2 and " flag, not one for " in err, err
        assert reads == []
        assert sorted(p.name for p in tmp_path.rglob("*")) == before


# A model or policy value that cannot be used, for each command that trains.
@pytest.mark.parametrize("argv", [
    ["train", "--kind", "svm", "--C", "nan", "--out", "m.json"],
    ["crossval", "--kind", "net", "--l2", "inf", "--out", "cv.json"],
    ["curve", "--kind", "svm", "--tol", "nan", "--sizes", "2", "--n-test", "1", "--out", "c.csv"],
    ["mitigate", "--kind", "knn", "--policy", "noise", "--sigma", "-1",
     "--n-train", "2", "--n-test", "1", "--out", "l.json"],
    ["mitigate", "--kind", "knn", "--policy", "downsample", "--factor", "1",
     "--n-train", "2", "--n-test", "1", "--out", "l.json"],
], ids=["train-C", "crossval-l2", "curve-tol", "mitigate-sigma", "mitigate-factor"])
def test_a_bad_model_or_policy_value_exits_before_the_data_is_read(
        tmp_path, capsys, monkeypatch, argv):
    full = tmp_path / "full.csv"
    assert run(*synth_args(full, classes=2, per_class=4, samples=8)) == 0
    monkeypatch.chdir(tmp_path)
    loads = []
    monkeypatch.setattr(dataset, "load", lambda path: loads.append(path))
    capsys.readouterr()
    assert run(*argv, "--data", full) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert loads == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["full.csv"]


@pytest.mark.parametrize("policy, flags, params", [
    ("noise", [], {"sigma": 1.0}),
    ("noise", ["--sigma", 0.5, "--policy-seed", 3], {"sigma": 0.5}),
    ("downsample", [], {"factor": 2}),
    ("downsample", ["--factor", 4], {"factor": 4}),
    ("deny", [], {}),
])
def test_mitigate_records_only_the_chosen_policys_parameters(tmp_path, policy, flags, params):
    full, out = tmp_path / "full.csv", tmp_path / "leak.json"
    assert run(*synth_args(full)) == 0
    assert run("mitigate", "--data", full, "--policy", policy, *flags, "--kind", "knn",
               "--n-train", 6, "--n-test", 2, "--out", out) == 0
    doc = json.loads(out.read_text())
    assert doc["policy_params"] == params
    assert doc["seeds"]["policy_seed_train"] == (3 if "--policy-seed" in flags else 0)
