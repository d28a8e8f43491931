"""Benchmark for perfprint: the acceptance protocol's two noise arms and a
collection campaign, timed end to end and, in a traced run, per layer.

    python3 perfbench/run.py --workload protocol-low --seed 0 --seconds 20 --trace 0

It imports perfprint from `src/` of the checkout it sits in, sets its inputs
up several times (set-up time is the median), then repeats whole rounds of
the workload until --seconds have passed, and checks the outputs. It prints
every metric by name and unit; the last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones; with --trace 1 they are the per-layer ones,
from rounds that alternate between untraced and traced, and the traced run
writes its spans to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

import checks
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("protocol-low", "protocol-high", "campaign")
SETUP_REPEATS = 7
MIN_ROUNDS = 2  # byte-identity needs a second round
STAGES = ("train_s.tree", "train_s.svm", "train_s.net", "append_s", "analyze_s")


def import_perfprint():
    """perfprint from this checkout's src/, never an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "perfprint", "__init__.py")):
        sys.exit(f"perfbench: no perfprint sources under {SRC}")
    sys.path.insert(0, SRC)
    import perfprint

    if os.path.dirname(os.path.dirname(os.path.abspath(perfprint.__file__))) != SRC:
        sys.exit(f"perfbench: imported perfprint from {perfprint.__file__}, not {SRC}")


def machine() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy before 1.26 prints its config only
        blas = "unknown"
    return {"cores": os.cpu_count(), "python": platform.python_version(), "numpy": np.__version__, "blas": blas}


def make_workload(name: str, scale: str, seed: int):
    from campaign import Campaign
    from protocol import Protocol

    return (Campaign if name == "campaign" else Protocol)(name, scale, seed)


def digests(directory: str) -> dict[str, str]:
    out = {}
    for base, _, files in os.walk(directory):
        for f in files:
            path = os.path.join(base, f)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, directory)] = hashlib.sha256(fh.read()).hexdigest()
    return out


def tree_bytes(directory: str) -> int:
    return sum(os.path.getsize(os.path.join(b, f)) for b, _, files in os.walk(directory) for f in files)


def fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def check_round(bench, r) -> tuple[list[str], dict[str, float]]:
    try:
        return bench.check(r), bench.success_rates(r)
    except Exception as exc:  # a check that cannot run counts as a failed check
        return [f"check raised {type(exc).__name__}: {exc}"], {}


def run(workload: str, seed: int, seconds: float, trace: bool, scale: str) -> dict:
    bench = make_workload(workload, scale, seed)
    work_dir = os.path.join(OUT, f"{workload}-{os.getpid()}")
    setup_s = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        inputs = bench.setup()
        setup_s.append(time.perf_counter() - t0)

    layer_runs, traced_setup, all_spans = [], {}, []
    if trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
        try:
            inputs = bench.setup()
        finally:
            tracer.uninstall()
        traced_setup = tracing.layer_metrics(tracer.spans, tracer.values)
        all_spans.append({"round": "setup", "spans": tracer.spans})

    rounds, round_digests, problems, rates = [], [], [], {}
    start = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        traced = trace and len(rounds) % 2 == 1
        round_dir = fresh_dir(os.path.join(work_dir, "round"))
        if traced:
            tracer = tracing.Tracer()
            tracing.install(tracer)
        try:
            r = bench.run_round(inputs, round_dir)
        finally:
            if traced:
                tracer.uninstall()
        r.traced = traced
        r.store_bytes = tree_bytes(round_dir)
        round_digests.append(digests(round_dir))
        if traced:
            layer_runs.append(tracing.layer_metrics(tracer.spans, tracer.values))
            all_spans.append({"round": len(rounds), "spans": tracer.spans})
        if not rounds:
            # The peak memory is the program's over set-up and one round,
            # read before the checks, which hold more memory than it does.
            # The checks read the first round's files before the next round
            # replaces them; byte identity ties them to every other round.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            problems, rates = check_round(bench, r)
        r.state = {}
        rounds.append(r)
    problems += checks.check_identical("outputs", round_digests)
    shutil.rmtree(work_dir, ignore_errors=True)

    plain = [r for r in rounds if not r.traced]
    end_to_end = {
        "setup_s": (statistics.median(setup_s), "s"),
        "pipeline_s": (statistics.median(r.pipeline_s for r in plain), "s"),
        "classify_ms": (1e3 * statistics.median(t for r in plain for t in r.classify_s), "ms"),
        "store_bytes": (statistics.median(r.store_bytes for r in plain), "B"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    stages = {k: statistics.median(r.stages.get(k, 0.0) for r in plain) for k in STAGES}
    result = {
        "workload": workload, "seed": seed, "scale": scale, "inputs": bench.describe(), "machine": machine(),
        "rounds": len(rounds), "traced_rounds": len(layer_runs), "setup_repeats": SETUP_REPEATS,
        "round_s": [r.pipeline_s for r in rounds], "setup_runs_s": setup_s,
        "success_rates": rates, "problems": problems, "stages": stages,
        "end_to_end": {k: v for k, (v, _) in end_to_end.items()},
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
    }
    if trace:
        per_layer = {k: (v, "s") for k, v in stages.items()}
        for key in layer_runs[0]:
            value = traced_setup[key] if key.startswith("synth.") else statistics.median(m[key] for m in layer_runs)
            per_layer[key] = (value, tracing.unit(key))
        traced_s = statistics.median(r.pipeline_s for r in rounds if r.traced)
        per_layer["trace.overhead_s"] = (traced_s - end_to_end["pipeline_s"][0], "s")
        result["per_layer"] = {k: v for k, (v, _) in per_layer.items()}
        os.makedirs(OUT, exist_ok=True)
        with open(os.path.join(OUT, f"trace-{workload}.json"), "w") as fh:
            json.dump({**result, "spans": all_spans}, fh)
        result["metrics"] = per_layer
    else:
        result["metrics"] = end_to_end
    return result


def report(result: dict):
    print(f"workload {result['workload']}  seed {result['seed']}  scale {result['scale']}  "
          f"rounds {result['rounds']} ({result['traced_rounds']} traced)")
    print("  machine: " + ", ".join(f"{k} {v}" for k, v in result["machine"].items()))
    print("  round pipeline_s: " + " ".join(f"{t:.3f}" for t in result["round_s"])
          + "  setup_s: " + " ".join(f"{t:.3f}" for t in result["setup_runs_s"]))
    for key, (value, unit) in result["metrics"].items():
        print(f"  {key:<30} {value:>14.6g} {unit}")
    if "per_layer" not in result:
        for key, value in result["stages"].items():
            print(f"  stage {key:<24} {value:>14.6g} s")
    for kind, rate in result["success_rates"].items():
        print(f"  success rate {kind:<17} {rate:>14.4f}")
    for problem in result["problems"]:
        print(f"  CHECK FAILED: {problem}")
    print(f"  attempted {result['attempted']}  failed {result['failed']}  correct {result['correct']}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("tiny", "bench", "full"), default="bench",
                        help="input size: bench (default), full (the acceptance protocol) or tiny")
    args = parser.parse_args(argv)
    import_perfprint()
    report(run(args.workload, args.seed, args.seconds, bool(args.trace), args.scale))
    return 0


if __name__ == "__main__":
    sys.exit(main())
