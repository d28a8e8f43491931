"""Dataset rows parsed in bulk against the per-line reference parser
(tests/oracles.py), and integer rows written through `%d` against `%.9g`,
on generated files and rows. Files of plain non-negative integers take the
bulk parser's integer path; the oracle compares the features' bytes, so a
value read differently there (`-0` as +0.0, a token above int64) fails it."""

import json
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from perfprint import dataset
from perfprint.dataset import Dataset, Measurement
from perfprint.errors import DataError

from oracles import reference_parse

# derandomize keeps the examples fixed from run to run.
PROPERTY = settings(derandomize=True, database=None, max_examples=400, deadline=None)

# Counter counts: plain non-negative integers, mostly within int64; those
# above it the integer parser refuses and the float parser reads.
COUNTS = st.one_of(st.integers(0, 10**12), st.integers(0, 10**20)).map(str)
NUMBERS = st.one_of(
    st.integers(-10**12, 10**12).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda v: "%.9g" % v),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    COUNTS,
)
# Tokens on which loadtxt and Python's float disagree, or which a careless
# parser would cut, skip or read as a number.
ODD_TOKENS = st.sampled_from([
    "1_0", "١", "１", "#3", "1#2", "-0", "1e999", "-1e999", "1e-400", "nan", "-nan",
    "inf", "Infinity", "", " ", "\t", " 1 ", "1\xa0", "1\x1f", "\x1f1", "+1", "1.", ".5",
    "0x10", '"1"', "1 2", "+0", "007", "9007199254740993", "9223372036854775807",
    "9223372036854775808", "18446744073709551616",
])
LABELS = st.text(alphabet=" ab#é\x1f1-", max_size=3)
ROW_KINDS = ["row"] * 6 + ["short", "long", "label-only", "blank", "spaces"]


@st.composite
def dataset_files(draw):
    """A dataset file's text and its header. A "clean" file is well formed,
    a "token" file has one odd token in an otherwise clean file, and a
    "mixed" file may have odd tokens anywhere, malformed rows and a wrong
    feature_length. A clean or token file holds either any numbers or
    only counts."""
    width = draw(st.integers(0, 4))
    mode = draw(st.sampled_from(["clean", "token", "token", "mixed"]))
    numbers = draw(st.sampled_from([NUMBERS, COUNTS]))
    token = st.one_of(NUMBERS, ODD_TOKENS) if mode == "mixed" else numbers
    rows = []  # a row is its label and its tokens; None is a blank line
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(ROW_KINDS)) if mode == "mixed" else "row"
        label = draw(LABELS)
        if kind == "blank":
            rows.append(None)
        elif kind == "spaces":
            rows.append(["  "])
        else:
            n = {"row": width, "short": width - 1, "long": width + 1, "label-only": 0}[kind]
            rows.append([label] + [draw(token) for _ in range(max(n, 0))])
    if mode == "token" and width and rows:
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(1, width))] = draw(ODD_TOKENS)
    lines = ["" if row is None else ",".join(row) for row in rows]
    n_rows = sum(1 for line in lines if line)
    header = {"format": "perfprint-dataset", "version": 1,
              "feature_length": width + (draw(st.sampled_from([0, 0, 0, -1, 1])) if mode == "mixed" else 0)}
    meta_rows = draw(st.sampled_from([None, None, n_rows, n_rows, n_rows - 1, n_rows + 1]))
    if meta_rows is not None and meta_rows >= 0:
        header["row_meta"] = [{"visit": i} for i in range(meta_rows)]
    if draw(st.booleans()):
        header["classes"] = sorted({line.split(",")[0] for line in lines if line})
    if draw(st.booleans()):
        header["meta"] = {"k": draw(st.integers())}
        header["normalization"] = {"min": [0.0] * width, "max": [1.0] * width}
    text = json.dumps(header) + "\n" + "\n".join(lines) + draw(st.sampled_from(["", "\n"]))
    return text, header


def _outcome(parse, path):
    try:
        d, rows = parse(path)
    except DataError as exc:
        return "error", str(exc)
    norm = d.normalization
    return ("ok", d.labels(), [m.meta for m in d.measurements],
            [(m.features.shape, m.features.tobytes()) for m in d.measurements], d.meta,
            None if norm is None else (norm.feature_min.tobytes(), norm.feature_max.tobytes()),
            rows)


ZERO_WIDTH = '{"format":"perfprint-dataset","version":1,"feature_length":0}\n'


@PROPERTY
@given(dataset_files())
@example((ZERO_WIDTH + "a\nb\n", {}))  # zero-width rows as `save` writes them
@example((ZERO_WIDTH + "a,\nb\n", {}))  # a trailing comma is one empty feature
def test_bulk_parse_loads_what_the_per_line_parser_loads(file):
    text, header = file
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "d.csv")
        with open(path, "w", newline="") as fh:
            fh.write(text)
        expected = _outcome(reference_parse, path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning fails the test as an exception
            got = _outcome(dataset._parse, path)
    row_meta = header.get("row_meta")
    if expected[0] == "ok" and row_meta is not None and len(row_meta) > len(expected[-1]):
        # the reference loads a surplus row_meta; the package refuses it
        expected = ("error", f"{path}: line 1: header row_meta has {len(row_meta)} entries, "
                             f"more than the {len(expected[-1])} rows")
    assert got == expected


def test_a_well_formed_file_never_needs_the_per_line_parser(tmp_path, monkeypatch):
    path = tmp_path / "d.csv"
    rng = np.random.default_rng(3)
    rows = [Measurement(label=f"s{i % 2}", features=rng.normal(size=5) * 1e4, meta={"visit": i})
            for i in range(4)]
    dataset.save(Dataset(measurements=tuple(rows)), str(path))

    def refuse(*args):
        raise AssertionError("per-line parser ran")

    monkeypatch.setattr(dataset, "_parse_rows_one_by_one", refuse)
    assert _outcome(dataset._parse, str(path)) == _outcome(reference_parse, str(path))


def _loadtxt_dtypes(monkeypatch, path):
    """The dtype of each np.loadtxt call that loading `path` makes; the
    per-line parser must not run."""
    dtypes, loadtxt = [], np.loadtxt

    def spy(*args, **kwargs):
        dtypes.append(np.dtype(kwargs["dtype"]))
        return loadtxt(*args, **kwargs)

    def refuse(*args):
        raise AssertionError("per-line parser ran")

    monkeypatch.setattr(np, "loadtxt", spy)
    monkeypatch.setattr(dataset, "_parse_rows_one_by_one", refuse)
    assert _outcome(dataset._parse, str(path)) == _outcome(reference_parse, str(path))
    return dtypes


def test_a_counter_file_is_read_by_one_integer_loadtxt_call(tmp_path, monkeypatch):
    path = tmp_path / "d.csv"
    rng = np.random.default_rng(5)
    counts = rng.integers(0, 10**9, size=(4, 300)).astype(np.float64)
    dataset.save(Dataset(measurements=tuple(
        Measurement(label=f"s{i % 2}", features=row, meta={"visit": i})
        for i, row in enumerate(counts))), str(path))
    assert [dt.kind for dt in _loadtxt_dtypes(monkeypatch, path)] == ["i"]


def test_a_normalized_file_makes_no_integer_attempt(tmp_path, monkeypatch):
    path = tmp_path / "d.csv"
    rng = np.random.default_rng(6)
    d = Dataset(measurements=tuple(
        Measurement(label=f"s{i % 2}", features=rng.integers(0, 10**6, size=300))
        for i in range(6)))
    dataset.save(dataset.normalize_fit(d), str(path))
    assert _loadtxt_dtypes(monkeypatch, path) == [np.dtype(np.float64)]


@pytest.mark.parametrize("rows", [
    "a,5,1#2\na,1,2\n",   # loadtxt's default comments would read 1#2 as 1
    "a,5,1\x1f\na,1,2\n",  # loadtxt strips \x1f, numpy's string cast refuses it
    "a,5,\na,1,2\n",      # an empty last field
    "a,\na,1,2\n",        # an empty body, which loadtxt would skip
])
def test_tokens_loadtxt_reads_differently_go_to_the_per_line_parser(tmp_path, rows):
    path = tmp_path / "d.csv"
    path.write_text('{"format":"perfprint-dataset","version":1,"feature_length":2}\n' + rows)
    assert _outcome(dataset._parse, str(path)) == _outcome(reference_parse, str(path))


def test_tokens_only_float_reads_still_load(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text('{"format":"perfprint-dataset","version":1,"feature_length":2}\n'
                    "a,1_0,٣\na,2,3\n")
    assert dataset.load(str(path)).feature_matrix().tolist() == [[10.0, 3.0], [2.0, 3.0]]


FORMAT_EDGES = [1e9 - 1, -(1e9 - 1), 1e9, -1e9, 0.0, -0.0, 2.0**53, -(2.0**53), 0.5, -0.5,
                123456789.5, 5e-324, 1e-300]


@PROPERTY
@given(st.lists(st.one_of(
    st.sampled_from(FORMAT_EDGES),
    st.integers(-2 * 10**9, 2 * 10**9).map(float),
    st.floats(allow_nan=False, allow_infinity=False),
), max_size=8))
@example(FORMAT_EDGES)
@example([1.0, 2.0, 999999999.0])
def test_format_row_writes_what_percent_9g_writes(values):
    row = dataset._format_row(Measurement(label="a", features=values))
    assert row == ",".join(["a"] + ["%.9g" % v for v in values]) + "\n"
