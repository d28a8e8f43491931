"""Model persistence: a versioned JSON envelope around each kind's payload.

The envelope holds the format, version, kind, classes, seed, hyperparameters
and provenance; the payload is written and read by the model class of that
kind (`to_payload`, `from_payload`). Array payloads are little-endian 64-bit
floats, so files written on one machine load anywhere. The file holds no
wall-clock time, so identical training runs produce identical bytes.
"""

from __future__ import annotations

import itertools
import json

from ..dataset import _write_atomic
from ..errors import DataError
from .base import Model

FILE_FORMAT = "perfprint-model"
FILE_VERSION = 1


def save_model(model, path: str, provenance: dict | None = None):
    """Write `model` atomically as one line of compact JSON.

    The bytes are those of `write_json` of the whole document, but each
    payload array's base64 text is written as it stands rather than passed
    through the JSON encoder: its characters ([A-Za-z0-9+/=]) are never
    escaped, and the text is most of the file.
    """
    envelope = {
        "format": FILE_FORMAT,
        "version": FILE_VERSION,
        "kind": model.kind,
        "classes": model.classes,
        "seed": model.seed,
        "hyperparams": model.hyperparams,
        "provenance": provenance,
        "payload": None,  # the last key; its value is written below
    }
    head = _dumps(envelope)[: -len("null}")]
    _write_atomic(path, itertools.chain([head], _payload_chunks(model.to_payload()), ["}\n"]))


def _dumps(value) -> str:
    return json.dumps(value, separators=(",", ":"))


def _payload_chunks(payload: dict):
    """`_dumps(payload)` in chunks, each array's base64 text one chunk."""
    yield "{"
    for i, (name, value) in enumerate(payload.items()):
        yield ("," if i else "") + _dumps(name) + ":"
        if isinstance(value, dict) and list(value) == ["shape", "data"]:  # from `_encode`
            yield '{"shape":' + _dumps(value["shape"]) + ',"data":"'
            yield value["data"]
            yield '"}'
        else:
            yield _dumps(value)
    yield "}"


def load_model(path: str):
    try:
        with open(path, "r") as fh:
            doc = json.load(fh)
    except (RecursionError, ValueError) as exc:  # not JSON, not UTF-8, or nested too deep
        raise DataError(f"{path}: malformed model file: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != FILE_FORMAT:
        raise DataError(f"{path}: not a {FILE_FORMAT} file")
    if doc.get("version") != FILE_VERSION:
        raise DataError(f"{path}: unsupported version {doc.get('version')!r}")
    kind = doc.get("kind")
    model_classes = {cls.kind: cls for cls in Model.__subclasses__()}
    if not isinstance(kind, str) or kind not in model_classes:
        raise DataError(f"{path}: unknown model kind {kind!r}")
    classes, payload = doc.get("classes"), doc.get("payload")
    if not (isinstance(classes, list) and all(isinstance(c, str) for c in classes)):
        raise DataError(f"{path}: classes must be a list of labels")
    if not isinstance(payload, dict):
        raise DataError(f"{path}: payload must be a JSON object")
    try:
        model = model_classes[kind].from_payload(
            classes, payload, doc.get("hyperparams", {}), doc.get("seed")
        )
    except (KeyError, IndexError, TypeError, ValueError, OverflowError, DataError) as exc:
        raise DataError(f"{path}: corrupt {kind!r} payload: {exc}") from exc
    model.provenance = doc.get("provenance")
    return model
