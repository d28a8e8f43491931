"""Model bytes do not depend on the BLAS thread count, for the kinds where
that holds: kNN, tree and SVM. The net's bytes can differ between thread
counts, so it is not pinned here."""

import os
import subprocess
import sys

import perfprint

SRC = os.path.dirname(os.path.dirname(os.path.abspath(perfprint.__file__)))

# The bench-shaped training set: 6 classes x 40 rows, 3 events x 10,000
# samples downsampled by 10 to 3,000 features, min-max normalized. Prints
# each kind's model sha256.
TRAIN_AND_DIGEST = """
import hashlib, os, sys
from perfprint import classifiers, dataset, synth
profiles = synth.gen_profiles(6, 3, 10_000, 424242)
noise = synth.NoiseModel(additive_sigma=0.05, max_shift=0.01)
train = dataset.normalize_fit(dataset.downsample(synth.gen_dataset(profiles, 40, noise, seed=1000), 10))
assert (len(train), train.feature_length) == (240, 3000)
for kind, params in (("knn", {"k": 1}), ("tree", {}), ("svm", {})):
    path = os.path.join(sys.argv[1], kind + ".model")
    classifiers.save_model(classifiers.make_trainer(kind, **params)(train), path)
    with open(path, "rb") as fh:
        print(kind, hashlib.sha256(fh.read()).hexdigest())
"""


def _digests(threads: int, out_dir) -> str:
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads),
           "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    out_dir.mkdir()
    done = subprocess.run([sys.executable, "-c", TRAIN_AND_DIGEST, str(out_dir)], env=env,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_knn_tree_and_svm_model_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    one = _digests(1, tmp_path / "one")
    assert [line.split()[0] for line in one.splitlines()] == ["knn", "tree", "svm"]
    assert _digests(2, tmp_path / "two") == one
