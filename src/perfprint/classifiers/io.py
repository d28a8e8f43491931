"""Model persistence: a versioned JSON envelope line, then the raw arrays.

A version-2 file is one line of compact JSON, the envelope, followed by the
data section. The envelope holds the format, version, kind, classes, seed,
hyperparameters, provenance, the model's diagnostics (how training went,
which ranking never reads) and the payload, which the model class of that
kind writes and reads (`to_payload`, `from_payload`). The kinds, and the
class that reads each, come from `MODEL_CLASSES` alone; a file of any other
kind is refused. Each array in the payload is written as {"dtype": "<f8",
"shape": [...], "offset": N}, and its little-endian float64 bytes start N
bytes into the data section; the arrays lie back to back in payload order.
Files written on one machine load anywhere, and a file holds no wall-clock
time, so identical training runs produce identical bytes on the same
machine, numpy, BLAS library and BLAS thread count. A net's bytes can
change with the BLAS thread count alone; kNN, tree and SVM files keep
theirs across thread counts (tests/test_blas_threads.py).

`load_model` checks the layout before it allocates an array: each dtype is
"<f8", each shape a list of non-negative ints, the offsets run back to back
from 0, and the data section is exactly as long as the arrays. A version-1
file (one JSON line, each array base64 text, no diagnostics) still loads.
"""

from __future__ import annotations

import base64
import json
import math
import os

import numpy as np

from ..dataset import _write_atomic, refuse_constant
from ..errors import DataError
from .knn import KnnModel
from .net import AutoencoderNetModel
from .svm import LinearSvmModel
from .tree import DecisionTreeModel

FILE_FORMAT = "perfprint-model"
FILE_VERSION = 2
_DTYPE = "<f8"
MODEL_CLASSES = {cls.kind: cls for cls in (KnnModel, DecisionTreeModel, LinearSvmModel,
                                           AutoencoderNetModel)}


def save_model(model, path: str, provenance: dict | None = None):
    """Write `model` atomically: the envelope line, then each payload
    array's buffer as it stands (a little-endian float64 array is not
    copied)."""
    payload, arrays, offset = {}, [], 0
    for name, value in model.to_payload().items():
        if isinstance(value, np.ndarray):
            value = np.ascontiguousarray(value, dtype=_DTYPE)
            payload[name] = {"dtype": _DTYPE, "shape": list(value.shape), "offset": offset}
            arrays.append(value)
            offset += value.nbytes
        else:
            payload[name] = value
    envelope = {
        "format": FILE_FORMAT,
        "version": FILE_VERSION,
        "kind": model.kind,
        "classes": model.classes,
        "seed": model.seed,
        "hyperparams": model.hyperparams,
        "provenance": provenance,
        "diagnostics": model.diagnostics(),
        "payload": payload,
    }
    line = json.dumps(envelope, separators=(",", ":"), allow_nan=False)
    _write_atomic(path, [line, "\n", *arrays])


def _read_arrays(fh, payload: dict, data_size: int):
    """Replace each array in a version-2 payload by a fresh float64 array
    read from `fh`, which stands at the start of the data section."""
    arrays, offset = {}, 0
    for name, value in payload.items():
        if not isinstance(value, dict):
            continue
        shape = value.get("shape")
        if not (set(value) == {"dtype", "shape", "offset"} and value["dtype"] == _DTYPE
                and isinstance(shape, list) and all(type(n) is int and n >= 0 for n in shape)
                and type(value["offset"]) is int and value["offset"] == offset):
            raise DataError(f"array {name!r} is not a {_DTYPE} array at offset {offset}: {value}")
        arrays[name] = shape
        offset += math.prod(shape) * 8
    if offset != data_size:
        raise DataError(f"the arrays take {offset} bytes, the data section holds {data_size}")
    for name, shape in arrays.items():
        array = np.empty(shape, dtype=_DTYPE)
        if fh.readinto(array) != array.nbytes:
            raise DataError(f"array {name!r} is cut short")
        payload[name] = array.astype(np.float64, copy=False)


def _decode(obj: dict) -> np.ndarray:
    """A version-1 file's array: its shape and base64-packed little-endian
    bytes."""
    raw = base64.b64decode(obj["data"])
    return np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(obj["shape"])


def load_model(path: str):
    with open(path, "rb") as fh:
        line = fh.readline()
        data_size = os.fstat(fh.fileno()).st_size - len(line)
        try:
            doc = json.loads(line, parse_constant=refuse_constant)
        except (RecursionError, ValueError) as exc:  # not JSON, not UTF-8, or nested too deep
            raise DataError(f"{path}: malformed model file: {exc}") from exc
        if not isinstance(doc, dict) or doc.get("format") != FILE_FORMAT:
            raise DataError(f"{path}: not a {FILE_FORMAT} file")
        version = doc.get("version")
        if type(version) is not int or version not in (1, FILE_VERSION):
            raise DataError(f"{path}: unsupported version {version!r}")
        kind = doc.get("kind")
        if not isinstance(kind, str) or kind not in MODEL_CLASSES:
            raise DataError(f"{path}: unknown model kind {kind!r}")
        classes, payload = doc.get("classes"), doc.get("payload")
        if not (isinstance(classes, list) and all(isinstance(c, str) for c in classes)):
            raise DataError(f"{path}: classes must be a list of labels")
        if not isinstance(payload, dict):
            raise DataError(f"{path}: payload must be a JSON object")
        try:
            if version == 1:
                if data_size:
                    raise DataError(f"{data_size} bytes follow a version-1 model")
                payload = {k: _decode(v) if isinstance(v, dict) else v for k, v in payload.items()}
            else:
                _read_arrays(fh, payload, data_size)
            model = MODEL_CLASSES[kind].from_payload(
                classes, payload, doc.get("hyperparams", {}), doc.get("seed")
            )
            if version != 1:
                model.restore_diagnostics(doc["diagnostics"])
        except (KeyError, IndexError, TypeError, ValueError, OverflowError, DataError) as exc:
            raise DataError(f"{path}: corrupt {kind!r} model: {exc}") from exc
    model.provenance = doc.get("provenance")
    return model
