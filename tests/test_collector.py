import errno
import math
import os
import platform
import subprocess
import sys
import time

import numpy as np
import pytest

from perfprint import collector
from perfprint.collector import AccessLevel, RawTraceSet
from perfprint.errors import (
    CollectorError,
    ConfigError,
    InterfaceUnavailableError,
    PermissionDeniedError,
    ProcessWaitTimeoutError,
)
from perfprint.events import EVENT_NAMES, CollectorConfig, EventSpec, ProfilingScope

needs_perf = pytest.mark.skipif(
    not collector.interface_available(),
    reason="perf interface or permission unavailable on this system",
)


@pytest.mark.parametrize(
    "value,expected",
    [
        (-1, AccessLevel.FULL_INCLUDING_KERNEL),
        (-2, AccessLevel.FULL_INCLUDING_KERNEL),
        (0, AccessLevel.NO_KERNEL_DETAIL),
        (1, AccessLevel.NO_CORE_WIDE),
        (2, AccessLevel.PROCESS_USER_ONLY),
        (3, AccessLevel.DISABLED),
        (4, AccessLevel.DISABLED),
    ],
)
def test_access_level_threshold_mapping(value, expected):
    assert AccessLevel.from_paranoid(value) is expected


def test_detect_access_level_reads_file(tmp_path):
    path = tmp_path / "paranoid"
    path.write_text("-1\n")
    assert collector.detect_access_level(str(path)) is AccessLevel.FULL_INCLUDING_KERNEL
    path.write_text("2\n")
    assert collector.detect_access_level(str(path)) is AccessLevel.PROCESS_USER_ONLY
    path.write_text("3\n")
    assert collector.detect_access_level(str(path)) is AccessLevel.DISABLED


def test_detect_access_level_missing_file(tmp_path):
    with pytest.raises(InterfaceUnavailableError, match="unavailable"):
        collector.detect_access_level(str(tmp_path / "nope"))


def test_detect_access_level_garbage(tmp_path):
    path = tmp_path / "paranoid"
    path.write_text("lots\n")
    with pytest.raises(InterfaceUnavailableError):
        collector.detect_access_level(str(path))


def test_access_level_permissions():
    assert AccessLevel.NO_CORE_WIDE.allows(core_wide=False)
    assert not AccessLevel.NO_CORE_WIDE.allows(core_wide=True)
    assert not AccessLevel.DISABLED.allows(core_wide=False)
    assert AccessLevel.FULL_INCLUDING_KERNEL.allows(core_wide=True)


def test_await_returns_new_matching_pid():
    scans = iter(
        [
            {1: "init", 50: "bash"},  # baseline
            {1: "init", 50: "bash"},
            {1: "init", 50: "bash", 99: "tor"},
        ]
    )
    pid = collector.await_target_process(
        "tor", timeout_s=5, poll_interval_ms=1, scan=lambda: next(scans)
    )
    assert pid == 99


def test_await_ignores_baseline_process():
    # A match already running at call time never satisfies the wait.
    snapshot = {1: "init", 70: "tor"}
    with pytest.raises(ProcessWaitTimeoutError) as exc:
        collector.await_target_process(
            "tor", timeout_s=0.05, poll_interval_ms=1, scan=lambda: dict(snapshot)
        )
    assert exc.value.last_scan == snapshot


def test_await_times_out_with_snapshot():
    with pytest.raises(ProcessWaitTimeoutError) as exc:
        collector.await_target_process(
            "chrome", timeout_s=0.05, poll_interval_ms=1, scan=lambda: {1: "init"}
        )
    assert exc.value.last_scan == {1: "init"}


def test_await_rejects_empty_pattern():
    with pytest.raises(ConfigError):
        collector.await_target_process("", timeout_s=1)


@pytest.mark.parametrize("timeout_s", [math.nan, -1.0])
def test_await_rejects_a_timeout_before_it_scans(timeout_s):
    def scan():
        raise AssertionError("scanned")

    with pytest.raises(ConfigError, match="timeout"):
        collector.await_target_process("tor", timeout_s=timeout_s, scan=scan)


def test_await_match_is_case_insensitive_substring():
    scans = iter([{1: "init"}, {1: "init", 321: "Tor Browser"}])
    pid = collector.await_target_process(
        "tor", timeout_s=5, poll_interval_ms=1, scan=lambda: next(scans)
    )
    assert pid == 321


def test_raw_trace_set_rejects_ragged_vectors():
    config = CollectorConfig(
        events=(EventSpec("instructions"), EventSpec("bus-cycles")),
        scope=ProfilingScope.core(0),
        duration_s=0.001,
    )
    with pytest.raises(CollectorError, match="length"):
        RawTraceSet(
            counts={"instructions": np.array([1, 2]), "bus-cycles": np.array([1])},
            timestamps=np.array([0.0, 1.0]),
            config=config,
        )


def test_raw_trace_set_rejects_negative_deltas():
    config = CollectorConfig(
        events=(EventSpec("instructions"),),
        scope=ProfilingScope.core(0),
        duration_s=0.001,
    )
    with pytest.raises(CollectorError, match="negative"):
        RawTraceSet(
            counts={"instructions": np.array([1, -2])},
            timestamps=np.array([0.0, 1.0]),
            config=config,
        )


def test_collect_requires_resolved_pid():
    config = CollectorConfig(
        events=(EventSpec("instructions"),),
        scope=ProfilingScope.process(),
        duration_s=0.001,
    )
    with pytest.raises(ConfigError, match="pid"):
        collector.collect(config)


def test_collect_disabled_access_names_required_level(monkeypatch):
    monkeypatch.setattr(collector, "detect_access_level", lambda: AccessLevel.DISABLED)
    monkeypatch.setattr(collector.os, "geteuid", lambda: 1000)
    config = CollectorConfig(
        events=(EventSpec("instructions"),),
        scope=ProfilingScope.process(1),
        duration_s=0.001,
    )
    with pytest.raises(PermissionDeniedError, match="2 or lower") as exc:
        collector.collect(config)
    assert exc.value.required_level == "2 or lower"


def test_collect_core_wide_denied_at_level_one(monkeypatch):
    monkeypatch.setattr(
        collector, "detect_access_level", lambda: AccessLevel.NO_CORE_WIDE
    )
    monkeypatch.setattr(collector.os, "geteuid", lambda: 1000)
    config = CollectorConfig(
        events=(EventSpec("instructions"),),
        scope=ProfilingScope.core(0),
        duration_s=0.001,
    )
    with pytest.raises(PermissionDeniedError, match="core-wide"):
        collector.collect(config)


def _spawn(code: str) -> subprocess.Popen:
    return subprocess.Popen([sys.executable, "-c", code])


BUSY_LOOP = "x = 0\nwhile True:\n    x += 1\n"
SLEEPER = "import time\ntime.sleep(30)\n"


@needs_perf
def test_busy_loop_yields_positive_instruction_deltas():
    child = _spawn(BUSY_LOOP)
    try:
        time.sleep(0.1)  # let the interpreter reach the loop
        config = CollectorConfig(
            events=(EventSpec("instructions"),),
            scope=ProfilingScope.process(child.pid),
            duration_s=0.2,
        )
        raw = collector.collect(config)
    finally:
        child.kill()
        child.wait()
    deltas = raw.counts["instructions"]
    assert len(deltas) == config.expected_samples
    assert (deltas > 0).mean() > 0.99


@needs_perf
def test_sleeping_process_is_nearly_silent():
    busy = _spawn(BUSY_LOOP)
    sleeper = _spawn(SLEEPER)
    try:
        time.sleep(0.1)
        def grab(pid):
            config = CollectorConfig(
                events=(EventSpec("instructions"),),
                scope=ProfilingScope.process(pid),
                duration_s=0.2,
            )
            return collector.collect(config).counts["instructions"]

        busy_deltas = grab(busy.pid)
        sleep_deltas = grab(sleeper.pid)
    finally:
        for child in (busy, sleeper):
            child.kill()
            child.wait()
    assert sleep_deltas.mean() < 0.01 * busy_deltas.mean()


@needs_perf
def test_interval_pacing_hits_expected_sample_count():
    config = CollectorConfig(
        events=(EventSpec("instructions"),),
        scope=ProfilingScope.process(0),  # pid 0 profiles the calling process
        duration_s=0.05,
        read_interval_us=500,
    )
    raw = collector.collect(config)
    assert abs(raw.samples_per_event - config.expected_samples) <= 1


def _fake_perf_open(monkeypatch, tmp_path, fd=5):
    """Stand perf_event_open in by a libc whose syscall returns `fd`; the
    returned list collects the attr each call is given."""
    attrs = []

    class Libc:
        def syscall(self, number, attr, *args):
            attrs.append(attr._obj)
            return fd

    paranoid = tmp_path / "paranoid"
    paranoid.write_text("2\n")
    monkeypatch.setattr(collector, "PARANOID_PATH", str(paranoid))
    monkeypatch.setitem(collector._SYSCALL_NR, platform.machine(), 298)
    monkeypatch.setattr(collector.ctypes, "CDLL", lambda *args, **kwargs: Libc())
    return attrs


def test_every_counter_excludes_the_kernel(monkeypatch, tmp_path):
    attrs = _fake_perf_open(monkeypatch, tmp_path)
    fds = [collector._open_counter(EventSpec(name), 0, -1) for name in EVENT_NAMES]
    assert fds == [5] * len(EVENT_NAMES)
    assert [a.flags for a in attrs] == [
        collector._FLAG_DISABLED | collector._FLAG_EXCLUDE_KERNEL] * len(EVENT_NAMES)


def test_each_event_is_opened_with_its_perf_type_and_config(monkeypatch, tmp_path):
    # attr.type 0 is PERF_TYPE_HARDWARE and 3 PERF_TYPE_HW_CACHE; a cache
    # event's config is its cache id, read op and access result both 0.
    attrs = _fake_perf_open(monkeypatch, tmp_path)
    for name in EVENT_NAMES:
        collector._open_counter(EventSpec(name), 0, -1)
    assert {name: (a.type, a.config) for name, a in zip(EVENT_NAMES, attrs)} == {
        "instructions": (0, 1),
        "branch-instructions": (0, 4),
        "cache-references": (0, 2),
        "bus-cycles": (0, 6),
        "l1d-loads": (3, 0),
        "l1i-loads": (3, 1),
        "llc-loads": (3, 2),
    }


@pytest.mark.parametrize("core_wide", [False, True])
@pytest.mark.parametrize("paranoid", range(-1, 5))
def test_a_refusal_names_the_highest_level_the_policy_admits(monkeypatch, tmp_path, paranoid,
                                                             core_wide):
    highest = max(n for n in range(-1, 5) if AccessLevel.from_paranoid(n).allows(core_wide))
    required = f"{highest} or lower"
    level = AccessLevel.from_paranoid(paranoid)
    scope = ProfilingScope.core(0) if core_wide else ProfilingScope.process(1)
    config = CollectorConfig(events=(EventSpec("instructions"),), scope=scope, duration_s=0.001)
    monkeypatch.setattr(collector, "detect_access_level", lambda: level)
    monkeypatch.setattr(collector.os, "geteuid", lambda: 1000)
    refusals = []
    if level.allows(core_wide):
        collector._check_access(config)
    else:
        with pytest.raises(PermissionDeniedError) as exc:
            collector._check_access(config)
        refusals.append(exc.value)
    # The kernel refuses the open itself, whatever the check decided.
    _fake_perf_open(monkeypatch, tmp_path, fd=-1)
    monkeypatch.setattr(collector.ctypes, "get_errno", lambda: errno.EACCES)
    with pytest.raises(PermissionDeniedError) as exc:
        collector._open_counter(EventSpec("instructions"), scope.pid, scope.cpu)
    refusals.append(exc.value)
    for refusal in refusals:
        assert refusal.required_level == required
        assert f"perf_event_paranoid {required}" in str(refusal)


# Cumulative counts each stand-in counter returns, one per read: the read
# before the loop, then one per sample.
SCRIPT = np.array([[100, 130, 190], [7, 7, 12]])


def _stand_in_counters(monkeypatch, fail_open_at=None):
    """Replace the counter calls `collect` makes: each open returns a real
    fd on the null device (or raises PermissionDeniedError at open number
    `fail_open_at`), ioctls are recorded, and each read returns the next
    count of that fd's row of SCRIPT. Returns the opened fds and the log of
    calls, as ("ioctl", fd, request) and ("read", fd)."""
    fds, log, reads = [], [], {}
    monkeypatch.setattr(collector.os, "geteuid", lambda: 0)

    def open_counter(spec, pid, cpu):
        if len(fds) == fail_open_at:
            raise PermissionDeniedError("denied", required_level="2 or lower")
        fds.append(os.open(os.devnull, os.O_RDONLY))
        reads[fds[-1]] = iter(SCRIPT[len(fds) - 1].tolist())
        return fds[-1]

    def read_counter(fd):
        log.append(("read", fd))
        return next(reads[fd])

    monkeypatch.setattr(collector, "_open_counter", open_counter)
    monkeypatch.setattr(collector, "_ioctl", lambda fd, request: log.append(("ioctl", fd, request)))
    monkeypatch.setattr(collector, "_read_counter", read_counter)
    return fds, log


def _closed(fd):
    try:
        os.fstat(fd)
    except OSError:
        return True
    return False


TWO_SAMPLES = CollectorConfig(events=(EventSpec("instructions"), EventSpec("llc-loads")),
                              scope=ProfilingScope.process(1), duration_s=0.0004,
                              read_interval_us=200)


def test_collect_reports_the_deltas_of_its_counter_reads(monkeypatch):
    fds, log = _stand_in_counters(monkeypatch)
    assert TWO_SAMPLES.expected_samples == 2
    raw = collector.collect(TWO_SAMPLES)
    for name, row in zip(TWO_SAMPLES.event_names, SCRIPT):
        np.testing.assert_array_equal(raw.counts[name], np.diff(row))
    assert raw.timestamps.shape == (2,) and (np.diff(raw.timestamps) > 0).all()
    reads = [i for i, call in enumerate(log) if call[0] == "read"]
    enables = [i for i, call in enumerate(log) if call[2:] == (collector._PERF_EVENT_IOC_ENABLE,)]
    disables = [i for i, call in enumerate(log) if call[2:] == (collector._PERF_EVENT_IOC_DISABLE,)]
    assert [log[i][1] for i in enables] == [log[i][1] for i in disables] == fds
    assert max(enables) < min(reads) and max(reads) < min(disables)
    assert len(reads) == SCRIPT.size
    assert all(_closed(fd) for fd in fds)


def test_a_refused_second_counter_closes_the_first(monkeypatch):
    fds, log = _stand_in_counters(monkeypatch, fail_open_at=1)
    with pytest.raises(PermissionDeniedError, match="denied"):
        collector.collect(TWO_SAMPLES)
    assert len(fds) == 1 and _closed(fds[0])
    assert log == []
