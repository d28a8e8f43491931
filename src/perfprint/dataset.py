"""Labeled feature vectors and the operations that shape them.

A Measurement is the concatenation of all per-event sample series captured
during one workload run. Datasets are immutable after construction: every
operation returns a new value.

File format: one self-describing JSON header line, then one CSV row per
measurement (`label,feature_0,...`), floats at 9 significant digits. Every
feature is finite: `nan` and infinities are refused on write and on load.
The header is strict JSON, so a non-finite value in it is refused too.
The header alone records a trace file's layout (`scenario`, `events`,
`samples_per_event`); a row's meta holds facts about that row only, such
as `captured_at` or `visit`.

Rows whose values are all integers below 1e9 in magnitude (counter
samples) are written through `%d`, the same text `%.9g` gives.

Loading parses every row body in one `np.loadtxt` call. A file with no
`-`, `.`, `e` or `E` in any row body (a file of counter rows) is read by
the integer parser and cast to float64, which is exact: each token is a
plain non-negative integer, and int64 -> float64 rounds to nearest-even as
the float parser rounds the same decimal. A file the integer parser
refuses (a token above int64, `inf`) and every other file are read by the
float parser. A file that call cannot read exactly as the per-line parser
would (a malformed row, a non-finite value, a token only Python's `float`
accepts) is parsed again line by line, which names the first bad line in
its DataError.

Every dataset write is atomic: the file is written beside its target and
renamed over it, so a failed write leaves the old file as it was. Appending
a measurement re-reads and re-validates the whole file as `load` does, but
re-writes only the header and the new row; the existing rows are copied as
they stand. An append whose dataset meta disagrees with the file's on any
key the file holds is refused, and the file keeps its bytes.
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, check_seed
from .events import EVENT_KINDS
from .collector import RawTraceSet

FILE_FORMAT = "perfprint-dataset"
FILE_VERSION = 1
# Dataset meta keys the header holds at its top level, in header order;
# every other meta key goes under "meta".
_HEADER_META_KEYS = ("scenario", "events", "samples_per_event")


# The records that hold arrays compare by identity (eq=False): a generated
# __eq__ would compare the arrays and raise.
@dataclass(frozen=True, eq=False)
class Measurement:
    label: str
    features: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(
            self, "features", np.asarray(self.features, dtype=np.float64)
        )
        if self.features.ndim != 1:
            raise DataError("measurement features must be a 1-D vector")


@dataclass(frozen=True, eq=False)
class NormParams:
    """Per-feature min/max fitted on a training set."""

    feature_min: np.ndarray
    feature_max: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "feature_min", np.asarray(self.feature_min, dtype=np.float64))
        object.__setattr__(self, "feature_max", np.asarray(self.feature_max, dtype=np.float64))
        if self.feature_min.shape != self.feature_max.shape:
            raise DataError("normalization min/max shapes differ")


@dataclass(frozen=True, eq=False)
class Dataset:
    measurements: tuple[Measurement, ...]
    normalization: NormParams | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "measurements", tuple(self.measurements))
        lengths = {len(m.features) for m in self.measurements}
        if len(lengths) > 1:
            raise DataError(f"feature vectors differ in length: {sorted(lengths)}")

    def __len__(self) -> int:
        return len(self.measurements)

    @property
    def classes(self) -> list[str]:
        """Sorted unique labels; a label's position is its class index."""
        return sorted({m.label for m in self.measurements})

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    @property
    def feature_length(self) -> int:
        return len(self.measurements[0].features) if self.measurements else 0

    def feature_matrix(self) -> np.ndarray:
        if not self.measurements:
            return np.zeros((0, 0))
        return np.stack([m.features for m in self.measurements])

    def labels(self) -> list[str]:
        return [m.label for m in self.measurements]

    def label_indices(self, classes: list[str] | None = None) -> np.ndarray:
        classes = self.classes if classes is None else classes
        index = {c: i for i, c in enumerate(classes)}
        try:
            return np.array([index[m.label] for m in self.measurements], dtype=np.int64)
        except KeyError as exc:
            raise DataError(f"label {exc.args[0]!r} not in class list") from exc

    def by_class(self) -> dict[str, list[int]]:
        out: dict[str, list[int]] = {c: [] for c in self.classes}
        for i, m in enumerate(self.measurements):
            out[m.label].append(i)
        return out

    def subset(self, indices) -> "Dataset":
        return Dataset(
            measurements=tuple(self.measurements[i] for i in indices),
            normalization=self.normalization,
            meta=dict(self.meta),
        )

    def with_features(self, x: np.ndarray, normalization=None, meta=None) -> "Dataset":
        """The same rows over a new (n, d) feature matrix, row i taking
        `x[i]`. Labels and row meta are copied; so is the dataset meta
        unless `meta` replaces it."""
        return Dataset(
            measurements=tuple(
                Measurement(label=m.label, features=row, meta=dict(m.meta))
                for m, row in zip(self.measurements, x)
            ),
            normalization=normalization,
            meta=dict(self.meta) if meta is None else meta,
        )


def concatenate(raw: RawTraceSet, label: str) -> Measurement:
    """A raw trace set as one labeled measurement: its per-event series
    joined in config event order. Each series must hold exactly the
    config's expected samples. The row carries no layout meta; a trace
    file's header alone records the layout."""
    expected = raw.config.expected_samples
    if raw.samples_per_event != expected:
        raise DataError(f"trace set holds {raw.samples_per_event} samples per event, "
                        f"its config expects {expected}")
    parts = [raw.counts[name] for name in raw.config.event_names]
    return Measurement(label=label, features=np.concatenate(parts))


def normalize_fit(train: Dataset) -> Dataset:
    """Min-max scale each feature to [0,1], fitted on `train` only.

    Constant features map to 0. The fitted parameters travel with the
    returned dataset so they can be applied to other sets.
    """
    if not len(train):
        raise DataError("cannot fit normalization on an empty dataset")
    x = train.feature_matrix()
    params = NormParams(feature_min=x.min(axis=0), feature_max=x.max(axis=0))
    return _normalized(params, train, x)


def normalize_apply(params: NormParams, d: Dataset) -> Dataset:
    """Apply stored min-max parameters unchanged; values outside the fitted
    range map linearly past [0,1] (no clamping)."""
    if len(d) and params.feature_min.shape[0] != d.feature_length:
        raise DataError(
            f"normalization fitted on {params.feature_min.shape[0]} features, "
            f"dataset has {d.feature_length}"
        )
    x = d.feature_matrix().reshape(len(d), len(params.feature_min))  # an empty set's matrix is (0, 0)
    return _normalized(params, d, x)


def _normalized(params: NormParams, d: Dataset, x: np.ndarray) -> Dataset:
    """`d` over its feature matrix `x` scaled by `params`."""
    span = params.feature_max - params.feature_min
    safe = np.where(span > 0, span, 1.0)
    return d.with_features(
        np.where(span > 0, (x - params.feature_min) / safe, 0.0), normalization=params
    )


def downsample(d: Dataset, factor: int) -> Dataset:
    """Replace each block of `factor` consecutive features by its mean.

    A trailing partial block is averaged over its actual size; the new
    length is ceil(old / factor). Factor 1 is the identity.
    """
    if factor < 1:
        raise ConfigError(f"downsample factor must be >= 1, got {factor}")
    if factor == 1 or not len(d):
        return d
    length = d.feature_length
    starts = np.arange(0, length, factor)
    sizes = np.minimum(starts + factor, length) - starts
    meta = dict(d.meta)
    meta["downsample_factor"] = meta.get("downsample_factor", 1) * factor
    return d.with_features(np.add.reduceat(d.feature_matrix(), starts, axis=1) / sizes, meta=meta)


def shuffle_by_class(d: Dataset, seed: int, needed: int, shortfall: str) -> list[list[int]]:
    """Each class's row indices in a seeded random order, classes sorted.

    One permutation is drawn per class, in class order, from one generator
    seeded with `seed`. A class with fewer than `needed` rows raises a
    DataError: "class 'x' has n measurements, " followed by `shortfall`.
    """
    check_seed(seed)
    rng = np.random.default_rng(seed)
    order = []
    for label, indices in d.by_class().items():
        if len(indices) < needed:
            raise DataError(f"class {label!r} has {len(indices)} measurements, {shortfall}")
        order.append([indices[p] for p in rng.permutation(len(indices))])
    return order


def split(
    d: Dataset, n_train_per_class: int, n_test_per_class: int, seed: int
) -> tuple[Dataset, Dataset]:
    """Disjoint per-class train/test sampling, deterministic under seed."""
    if n_train_per_class < 1 or n_test_per_class < 1:
        raise ConfigError("split sizes must be >= 1")
    needed = n_train_per_class + n_test_per_class
    order = shuffle_by_class(
        d, seed, needed, f"needs {needed} for a {n_train_per_class}/{n_test_per_class} split"
    )
    train = sorted(i for rows in order for i in rows[:n_train_per_class])
    test = sorted(i for rows in order for i in rows[n_train_per_class:needed])
    return d.subset(train), d.subset(test)


def kfold(d: Dataset, k: int, seed: int) -> list[tuple[Dataset, Dataset]]:
    """Stratified k folds: each measurement validates in exactly one fold.
    A class's j-th row in shuffled order validates in fold j mod k."""
    if k < 2:
        raise ConfigError(f"k must be >= 2, got {k}")
    order = shuffle_by_class(d, seed, k, f"fewer than k={k}")
    folds = []
    for i in range(k):
        validation = {j for rows in order for j in rows[i::k]}
        train = [j for j in range(len(d)) if j not in validation]
        folds.append((d.subset(train), d.subset(sorted(validation))))
    return folds


def _format_row(m: Measurement) -> str:
    """`label,feature_0,...`, each feature as `%.9g` prints it; a row with
    no features is its label alone.

    A row of integers below 1e9 in magnitude goes through `%d` on int64
    values instead, which gives the same text faster. -0.0 is left to
    `%.9g`, which keeps its sign.
    """
    x = m.features
    if not x.size:
        return m.label + "\n"
    if (np.abs(x) < 1e9).all() and (np.trunc(x) == x).all() and not np.signbit(x[x == 0]).any():
        fmt, values = "%d", x.astype(np.int64).tolist()
    else:
        fmt, values = "%.9g", x.tolist()
    return m.label + "," + (",".join([fmt] * len(values)) % tuple(values)) + "\n"


def _header_line(d: Dataset) -> str:
    row_meta = [m.meta for m in d.measurements]
    header = {
        "format": FILE_FORMAT,
        "version": FILE_VERSION,
        "feature_length": d.feature_length,
        "classes": d.classes,
        **{key: d.meta.get(key) for key in _HEADER_META_KEYS},
        "meta": {k: v for k, v in d.meta.items() if k not in _HEADER_META_KEYS},
        "normalization": None,
        "row_meta": row_meta if any(row_meta) else None,
    }
    if d.normalization is not None:
        if d.normalization.feature_min.shape != (d.feature_length,):  # `load` would refuse it
            raise DataError(f"a normalization over {d.normalization.feature_min.shape} on "
                            f"{d.feature_length}-feature rows")
        header["normalization"] = {
            "min": d.normalization.feature_min.tolist(),
            "max": d.normalization.feature_max.tolist(),
        }
    return _header_json(header) + "\n"


def _header_json(value) -> str:
    """`value` as compact strict JSON; a DataError if it holds a non-finite float."""
    try:
        return json.dumps(value, separators=(",", ":"), allow_nan=False)
    except ValueError as exc:
        raise DataError(f"a dataset header cannot hold a non-finite value: {exc}") from None


def _check_row(m: Measurement):
    """Refuse a row that `load` would not read back as written."""
    # A row must stay one line under str.splitlines, which `load` splits by.
    if "," in m.label or m.label.splitlines() not in ([m.label], []):
        raise DataError(f"label {m.label!r} contains a reserved character")
    if not np.isfinite(m.features).all():
        raise DataError(f"measurement labeled {m.label!r} has a non-finite feature")
    # A row with no features is its label alone, and `load` skips empty lines.
    if not m.label and not m.features.size:
        raise DataError("a measurement with no features needs a non-empty label")


def _write_atomic(path: str, chunks):
    """Write `chunks` to a temp file beside `path`, then rename it over `path`.

    A chunk is text, written as a text file writes it with its line ends
    untranslated, or a C-contiguous buffer (bytes, an array), whose bytes
    are written as they stand. On any error the temp file is removed and
    `path` keeps its old bytes. The data is synced before the rename, so a
    crash leaves either the old file or the complete new one. An existing
    file's permission bits carry over to the replacement.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", newline="") as fh:
            for chunk in chunks:
                if isinstance(chunk, str):
                    fh.write(chunk)
                else:
                    fh.flush()  # the text so far goes first
                    fh.buffer.write(chunk)
            fh.flush()
            os.fsync(fh.fileno())
        if os.path.exists(path):
            shutil.copymode(path, tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def refuse_constant(name: str):
    """`json.loads`'s `parse_constant`: JSON has no `NaN`, `Infinity` or `-Infinity`."""
    raise ValueError(f"{name} is not a JSON value")


def write_json(path: str, doc):
    """Write `doc` atomically as compact JSON and a newline. The encoded
    chunks are streamed, as `json.dump` does, rather than joined first. A
    float that is not finite is a ValueError, since JSON has no such value."""
    chunks = json.JSONEncoder(separators=(",", ":"), allow_nan=False).iterencode(doc)
    _write_atomic(path, itertools.chain(chunks, ["\n"]))


def save(d: Dataset, path: str):
    for m in d.measurements:
        _check_row(m)
    _write_atomic(path, itertools.chain([_header_line(d)], map(_format_row, d.measurements)))


def load(path: str) -> Dataset:
    return _parse(path)[0]


def _parse(path: str) -> tuple[Dataset, list[str]]:
    """Parse and validate a dataset file; also return its non-empty row lines.

    All row bodies are parsed at once by `_parse_rows_bulk`. Only when that
    cannot vouch for its result does `_parse_rows_one_by_one` run, and it
    either raises the DataError naming the first bad line or reads the rare
    tokens the bulk parser refuses. Both round correctly, so the features
    are the same bits either way. A header `row_meta` needs one entry per row.
    """
    try:
        with open(path, "r") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: cannot decode the file as text: {exc}") from exc
    if not lines:
        raise DataError(f"{path}: empty dataset file")
    try:
        header = json.loads(lines[0], parse_constant=refuse_constant)
    except (ValueError, RecursionError) as exc:
        raise DataError(f"{path}: line 1: malformed header: {exc}") from exc
    if not isinstance(header, dict):
        raise DataError(f"{path}: line 1: header is not a JSON object")
    if header.get("format") != FILE_FORMAT:
        raise DataError(f"{path}: not a {FILE_FORMAT} file")
    if type(header.get("version")) is not int or header["version"] != FILE_VERSION:
        raise DataError(f"{path}: unsupported version {header.get('version')!r}")

    for key, kind, item in (("events", list, str), ("classes", list, str), ("row_meta", list, dict),
                            ("meta", dict, object), ("normalization", dict, object)):
        value = header.get(key)
        if value is not None and not (isinstance(value, kind) and all(isinstance(v, item) for v in value)):
            of = "" if item is object else f" of {item.__name__}"
            raise DataError(f"{path}: line 1: {key} is not a {kind.__name__}{of}")
    for name in header.get("events") or []:
        if name not in EVENT_KINDS:
            raise DataError(f"{path}: header references unknown event {name!r}")

    length = header.get("feature_length")
    row_meta = header.get("row_meta")
    rows = [line for line in lines[1:] if line]
    measurements = _parse_rows_bulk(rows, length, row_meta)
    if measurements is None:
        measurements = _parse_rows_one_by_one(path, lines, length, row_meta)
        if row_meta is not None and len(row_meta) > len(measurements):
            raise DataError(
                f"{path}: line 1: header row_meta has {len(row_meta)} entries, "
                f"more than the {len(measurements)} rows"
            )

    classes = sorted({m.label for m in measurements})
    if header.get("classes") and classes != sorted(header["classes"]):
        raise DataError(
            f"{path}: header classes {header['classes']} do not match rows {classes}"
        )

    normalization = None
    if header.get("normalization") is not None:
        try:
            normalization = NormParams(
                feature_min=np.array(header["normalization"]["min"], dtype=np.float64),
                feature_max=np.array(header["normalization"]["max"], dtype=np.float64),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"{path}: line 1: malformed normalization: {exc!r}") from exc
        if not all(b.shape == (length,) and np.isfinite(b).all()
                   for b in (normalization.feature_min, normalization.feature_max)):
            raise DataError(f"{path}: line 1: normalization min/max need {length} finite numbers")
    meta = dict(header.get("meta") or {})
    for key in _HEADER_META_KEYS:
        if header.get(key) is not None:
            meta[key] = header[key]
    return Dataset(measurements=tuple(measurements), normalization=normalization, meta=meta), rows


def _parse_rows_bulk(rows: list[str], length, row_meta) -> list[Measurement] | None:
    """Every row body parsed by one `np.loadtxt` call, or None when the
    result might differ from what `_parse_rows_one_by_one` returns.

    Bodies with no `-`, `.`, `e` or `E` (counter rows) are read by the
    integer parser, whose grammar (optional `+`, digits, surrounding
    whitespace) is a subset of the float parser's with the same values,
    and cast to float64: exact, since int64 -> float64 rounds to
    nearest-even as the float parser does. Keeping `-` out keeps `-0` from
    reading as +0.0; keeping `.eE` out keeps float tokens from the integer
    dtype. When the integer parser refuses a token (above int64, `inf`),
    or a body holds one of those characters, the float parser reads the
    file instead.

    The result is kept only when each row holds `length` finite features
    and `row_meta`, if present, has one entry per row. Any other file, and
    any token loadtxt refuses, goes to the per-line parser, which raises
    the error or accepts the tokens only Python's `float` reads (`1_0`,
    `١`).
    """
    split = [row.partition(",") for row in rows]
    bodies = [body for _, _, body in split]
    # loadtxt skips empty lines, so an empty body would shift every later
    # row; "\x1f" is whitespace to loadtxt but not to numpy's string cast.
    if not bodies or not all(bodies) or any("\x1f" in body for body in bodies):
        return None
    if row_meta is not None and len(row_meta) != len(rows):
        return None
    x = None
    if not any(c in body for body in bodies for c in "-.eE"):
        x = _loadtxt(bodies, np.int64)
    if x is None:
        x = _loadtxt(bodies, np.float64)
    if x is None or x.shape != (len(rows), length) or not np.isfinite(x).all():
        return None
    metas = row_meta if row_meta is not None else [{} for _ in rows]
    return [
        Measurement(label=label, features=features, meta=meta)
        for (label, _, _), features, meta in zip(split, x, metas)
    ]


def _loadtxt(bodies: list[str], dtype) -> np.ndarray | None:
    """`bodies` read by loadtxt's parser for `dtype`, as float64; None when
    it refuses a token. Older numpy (from 1.23) reads a token its integer
    parser refuses through the float parser with only a DeprecationWarning,
    and casts `inf` or a value above int64 to a wrong integer, so that
    warning is a refusal."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            x = np.loadtxt(bodies, delimiter=",", dtype=dtype, comments=None, ndmin=2)
    except (ValueError, DeprecationWarning):
        return None
    return x.astype(np.float64, copy=False)


def _parse_rows_one_by_one(path: str, lines: list[str], length, row_meta) -> list[Measurement]:
    """The rows of `lines[1:]` parsed line by line; raises the DataError
    that names the first bad line."""
    measurements = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        fields = line.split(",")
        label = fields[0]
        if len(fields) - 1 != length:
            raise DataError(
                f"{path}: line {lineno} (label {label!r}): expected "
                f"{length} features, found {len(fields) - 1}"
            )
        try:
            features = np.array(fields[1:], dtype=np.float64)
        except ValueError as exc:
            raise DataError(f"{path}: line {lineno}: non-numeric feature: {exc}") from exc
        if not np.isfinite(features).all():
            raise DataError(f"{path}: line {lineno} (label {label!r}): non-finite feature")
        meta = {}
        if row_meta is not None:
            if len(measurements) >= len(row_meta):
                raise DataError(
                    f"{path}: line {lineno}: header row_meta has {len(row_meta)} "
                    f"entries, too few for the rows"
                )
            meta = row_meta[len(measurements)]
        measurements.append(Measurement(label=label, features=features, meta=meta))

    return measurements


def append_measurement(path: str, m: Measurement, dataset_meta: dict | None = None):
    """Append one measurement to a trace file, creating it if needed.

    The existing file is parsed and validated in full, as `load` does. Only
    the header (class list, row metadata, merged meta) and the new row are
    formatted; the existing row lines are copied verbatim. Feature length
    must match what the file already holds, and so must every key of
    `dataset_meta` the file already holds; keys the file lacks are added.
    """
    _check_row(m)
    d, rows = _parse(path) if os.path.exists(path) else (Dataset(measurements=()), [])
    if len(d) and d.feature_length != len(m.features):
        raise DataError(
            f"{path}: holds {d.feature_length}-feature rows, "
            f"cannot append {len(m.features)}"
        )
    meta = dict(d.meta)
    # Compared as the header holds them (a tuple reads back as a list). setdefault
    # adds a key the file lacks and returns the file's value of the others.
    conflicts = [
        f"{key} is {meta[key]!r} in the file, {value!r} in the append"
        for key, value in json.loads(_header_json(dataset_meta or {})).items()
        if meta.setdefault(key, value) != value
    ]
    if conflicts:
        raise DataError(f"{path}: the append's dataset meta disagrees with the file's: "
                        + "; ".join(conflicts))
    d = Dataset(measurements=d.measurements + (m,), normalization=d.normalization, meta=meta)
    _write_atomic(
        path,
        itertools.chain([_header_line(d)], (row + "\n" for row in rows), [_format_row(m)]),
    )
