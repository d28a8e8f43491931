"""Scenario files for `perfprint collect --scenario`, with keys dropped or
retyped, text truncated, or bytes that are not UTF-8: `_load_scenario`
either returns a collector config or raises ConfigError or DataError,
never another exception."""

import copy
import json
import os
import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st

from perfprint import events
from perfprint.cli import _load_scenario
from perfprint.errors import ConfigError, DataError

# derandomize keeps the examples fixed from run to run.
PROPERTY = settings(derandomize=True, database=None, max_examples=300, deadline=None)

# Values of every JSON type, among them ones that float() or int() refuses
# or overflows on; json writes the infinities and nan as Infinity and NaN.
JSON_VALUES = [None, True, 0, 1, -1, 0.5, -0.0, 1e300, float("inf"), float("-inf"), float("nan"),
               10**400, "", "x", "1.5", "core", "instructions", [], ["instructions"], [[0]], {},
               {"type": "core"}]


def _paths(value, prefix=()):
    """Every key path into a parsed JSON document, outermost first."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


@st.composite
def scenario_files(draw):
    name = draw(st.sampled_from(events.SCENARIO_NAMES))
    preset = events.preset(name)
    doc = {**events.config_to_dict(preset.config), "name": name,
           "target_process_pattern": preset.target_process_pattern}
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = copy.deepcopy(draw(st.sampled_from(JSON_VALUES)))
    raw = json.dumps(doc).encode()
    mutation = draw(st.sampled_from(["none", "truncate", "bytes"]))
    if mutation == "truncate":
        raw = raw[:draw(st.integers(0, len(raw) - 1))]
    elif mutation == "bytes":
        at = draw(st.integers(0, len(raw)))
        raw = raw[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\x80", b"\x00"])) + raw[at:]
    return raw


@PROPERTY
@given(scenario_files())
@example(b"\xff\xfe{}")
@example(b"[" * 100_000)
@example(b'{"events": ["instructions"], "scope": {"type": "core", "cpu": 0}, "duration_s": 1e999}')
def test_a_malformed_scenario_file_loads_or_raises_a_package_error(raw):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scenario.json")
        with open(path, "wb") as fh:
            fh.write(raw)
        try:
            config, pattern, name = _load_scenario(path)
        except (ConfigError, DataError):
            return
    assert isinstance(name, str) and (pattern is None or isinstance(pattern, str))
    assert config.expected_samples >= 1
    assert events.config_from_dict(events.config_to_dict(config)) == config
