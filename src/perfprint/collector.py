"""Acquire event-count traces from the Linux perf interface.

This is the only platform-gated module: everything downstream consumes
recorded traces. On systems without the interface, `collect` raises
`InterfaceUnavailableError` and the rest of the package works normally.

Counters are opened one file descriptor per event, ungrouped, enabled
together, and read in a deadline-paced loop; stored samples are
per-interval deltas of the cumulative counts. Nothing keeps the kernel
from multiplexing the counters when they outnumber the hardware slots,
and nothing detects it: the counts are taken as read.
"""

from __future__ import annotations

import ctypes
import enum
import os
import platform
import struct
import time
from dataclasses import dataclass

import numpy as np

from .errors import (
    CollectorError,
    ConfigError,
    CounterSlotsExhaustedError,
    InterfaceUnavailableError,
    PermissionDeniedError,
    ProcessWaitTimeoutError,
    UnsupportedEventError,
)
from .events import GENERIC_HARDWARE, HARDWARE_CACHE, CollectorConfig, EventSpec

PARANOID_PATH = "/proc/sys/kernel/perf_event_paranoid"

_SYSCALL_NR = {"x86_64": 298, "aarch64": 241, "riscv64": 241, "arm": 364, "armv7l": 364}

_PERF_TYPE = {GENERIC_HARDWARE: 0, HARDWARE_CACHE: 3}  # attr.type per event kind

_PERF_EVENT_IOC_ENABLE = 0x2400
_PERF_EVENT_IOC_DISABLE = 0x2401

_FLAG_DISABLED = 1 << 0
_FLAG_EXCLUDE_KERNEL = 1 << 5

# attr.config per event: plain ids for generic hardware events; cache events
# encode (cache id) | (read op << 8) | (access result << 16), all zero here
# except the cache id, since every cache event we use is a load-access count.
_EVENT_CONFIG = {
    "instructions": 1,
    "branch-instructions": 4,
    "cache-references": 2,
    "bus-cycles": 6,
    "l1d-loads": 0,
    "l1i-loads": 1,
    "llc-loads": 2,
}


class AccessLevel(enum.Enum):
    """User-space event-counting permission derived from the paranoid level."""

    FULL_INCLUDING_KERNEL = "full-including-kernel"  # < 0
    NO_KERNEL_DETAIL = "no-kernel-detail"  # 0
    NO_CORE_WIDE = "no-core-wide"  # 1
    PROCESS_USER_ONLY = "process-user-only"  # 2
    DISABLED = "disabled"  # >= 3

    @classmethod
    def from_paranoid(cls, value: int) -> "AccessLevel":
        if value < 0:
            return cls.FULL_INCLUDING_KERNEL
        if value == 0:
            return cls.NO_KERNEL_DETAIL
        if value == 1:
            return cls.NO_CORE_WIDE
        if value == 2:
            return cls.PROCESS_USER_ONLY
        return cls.DISABLED

    def allows(self, core_wide: bool) -> bool:
        if self is AccessLevel.DISABLED:
            return False
        if core_wide:
            return self in (AccessLevel.FULL_INCLUDING_KERNEL, AccessLevel.NO_KERNEL_DETAIL)
        return True


def _required_paranoid(core_wide: bool) -> str:
    """The perf_event_paranoid setting a scope needs, read off `allows`."""
    highest = max(n for n in range(-1, 4) if AccessLevel.from_paranoid(n).allows(core_wide))
    return f"{highest} or lower"


@dataclass(eq=False)
class RawTraceSet:
    """Per-event delta series from one collection session.

    counts maps event name -> int64 array of per-interval deltas; all arrays
    have equal length. timestamps are seconds from the session start, one
    per read round.
    """

    counts: dict[str, np.ndarray]
    timestamps: np.ndarray
    config: CollectorConfig

    def __post_init__(self):
        lengths = {name: len(v) for name, v in self.counts.items()}
        if len(set(lengths.values())) != 1:
            raise CollectorError(f"per-event vectors differ in length: {lengths}")
        if next(iter(lengths.values())) < 1:
            raise CollectorError("trace set contains no samples")
        for name, v in self.counts.items():
            if np.any(np.asarray(v) < 0):
                raise CollectorError(f"negative deltas in event {name!r}")

    @property
    def samples_per_event(self) -> int:
        return len(next(iter(self.counts.values())))


def detect_access_level(path: str = PARANOID_PATH) -> AccessLevel:
    """Read the paranoid setting and map it onto an AccessLevel."""
    try:
        with open(path, "r") as fh:
            raw = fh.read().strip()
    except OSError as exc:
        raise InterfaceUnavailableError(
            f"performance-monitoring interface unavailable: cannot read {path} ({exc})"
        ) from exc
    try:
        value = int(raw)
    except ValueError as exc:
        raise InterfaceUnavailableError(
            f"unexpected contents in {path}: {raw!r}"
        ) from exc
    return AccessLevel.from_paranoid(value)


def _scan_processes() -> dict[int, str]:
    """pid -> process name from /proc/<pid>/comm."""
    procs = {}
    try:
        entries = os.listdir("/proc")
    except OSError as exc:
        raise InterfaceUnavailableError(f"cannot scan processes: {exc}") from exc
    for entry in entries:
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/comm", "r") as fh:
                procs[int(entry)] = fh.read().strip()
        except OSError:
            continue  # process vanished between listing and read
    return procs


def await_target_process(
    pattern: str,
    timeout_s: float,
    poll_interval_ms: int = 500,
    scan=_scan_processes,
) -> int:
    """Wait for a process whose name matches `pattern` to appear.

    Only processes absent from the baseline scan taken at call time count as
    new; an already-running match keeps the wait going. Matching is a
    case-insensitive substring test on the process name. Returns the lowest
    matching new pid.
    """
    if not pattern:
        raise ConfigError("process pattern must not be empty")
    if not timeout_s >= 0:  # also nan, which no deadline test would ever pass
        raise ConfigError(f"await timeout must be >= 0 seconds, got {timeout_s}")
    needle = pattern.lower()
    baseline = set(scan())
    deadline = time.monotonic() + timeout_s
    snapshot: dict[int, str] = {}
    while True:
        snapshot = scan()
        matches = sorted(
            pid
            for pid, name in snapshot.items()
            if pid not in baseline and needle in name.lower()
        )
        if matches:
            return matches[0]
        if time.monotonic() >= deadline:
            raise ProcessWaitTimeoutError(
                f"no new process matching {pattern!r} within {timeout_s} s",
                last_scan=snapshot,
            )
        time.sleep(min(poll_interval_ms / 1000.0, max(deadline - time.monotonic(), 0.0)))


class _PerfEventAttr(ctypes.Structure):
    # Minimal prefix of struct perf_event_attr; the size field tells the
    # kernel how much we filled in.
    _fields_ = [
        ("type", ctypes.c_uint),
        ("size", ctypes.c_uint),
        ("config", ctypes.c_ulonglong),
        ("sample_period", ctypes.c_ulonglong),
        ("sample_type", ctypes.c_ulonglong),
        ("read_format", ctypes.c_ulonglong),
        ("flags", ctypes.c_ulonglong),
        ("wakeup_events", ctypes.c_uint),
        ("bp_type", ctypes.c_uint),
        ("config1", ctypes.c_ulonglong),
        ("config2", ctypes.c_ulonglong),
    ]


def _open_counter(spec: EventSpec, pid: int, cpu: int) -> int:
    arch = platform.machine()
    if os.name != "posix" or arch not in _SYSCALL_NR or not os.path.exists(PARANOID_PATH):
        raise InterfaceUnavailableError(
            "performance-monitoring interface unavailable on this platform"
        )
    libc = ctypes.CDLL(None, use_errno=True)
    attr = _PerfEventAttr()
    attr.type = _PERF_TYPE[spec.kind]
    attr.size = ctypes.sizeof(_PerfEventAttr)
    attr.config = _EVENT_CONFIG[spec.event_name]
    attr.flags = _FLAG_DISABLED | _FLAG_EXCLUDE_KERNEL
    fd = libc.syscall(
        ctypes.c_long(_SYSCALL_NR[arch]),
        ctypes.byref(attr),
        ctypes.c_int(pid),
        ctypes.c_int(cpu),
        ctypes.c_int(-1),  # no group linkage: every event stands alone
        ctypes.c_ulong(0),
    )
    if fd >= 0:
        return fd
    err = ctypes.get_errno()
    if err in (13, 1):  # EACCES, EPERM
        required = _required_paranoid(core_wide=cpu >= 0)
        raise PermissionDeniedError(
            f"permission denied opening counter for {spec.event_name!r}: "
            f"requires perf_event_paranoid {required} (or CAP_SYS_ADMIN)",
            required_level=required,
        )
    if err in (2, 19, 95):  # ENOENT, ENODEV, EOPNOTSUPP
        raise UnsupportedEventError(
            f"event {spec.event_name!r} is not supported on this CPU (errno {err})"
        )
    if err in (24, 23, 28):  # EMFILE, ENFILE, ENOSPC
        raise CounterSlotsExhaustedError(
            f"out of hardware counter slots opening {spec.event_name!r}; "
            "reduce the number of events"
        )
    raise CollectorError(
        f"perf_event_open failed for {spec.event_name!r}: {os.strerror(err)}"
    )


def _ioctl(fd: int, request: int):
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.ioctl(fd, request, 0) != 0:
        err = ctypes.get_errno()
        raise CollectorError(f"counter ioctl failed: {os.strerror(err)}")


def _read_counter(fd: int) -> int:
    return struct.unpack("<Q", os.read(fd, 8))[0]


def _check_access(config: CollectorConfig):
    # Root (CAP_SYS_ADMIN) overrides the paranoid policy.
    if hasattr(os, "geteuid") and os.geteuid() == 0:
        return
    level = detect_access_level()
    core_wide = config.scope.is_core_wide
    if not level.allows(core_wide):
        wanted = "core-wide" if core_wide else "process-specific"
        required = _required_paranoid(core_wide)
        raise PermissionDeniedError(
            f"{wanted} collection not permitted at access level {level.value}; "
            f"requires perf_event_paranoid {required}",
            required_level=required,
        )


def collect(config: CollectorConfig) -> RawTraceSet:
    """Run one collection session and return per-interval deltas.

    One counter per event, kernel excluded as configured, all enabled
    together; the loop reads every counter once per interval until the
    duration elapses. Raises PermissionDeniedError / UnsupportedEventError /
    CounterSlotsExhaustedError with actionable messages.
    """
    if config.scope.is_process_specific and config.scope.pid < 0:
        raise ConfigError("process-specific collection needs a concrete pid")
    _check_access(config)

    fds = []
    try:
        for spec in config.events:
            fds.append(_open_counter(spec, config.scope.pid, config.scope.cpu))
        for fd in fds:
            _ioctl(fd, _PERF_EVENT_IOC_ENABLE)

        n_events = len(fds)
        n_samples = config.expected_samples
        interval_ns = config.read_interval_us * 1000
        deltas = np.zeros((n_events, n_samples), dtype=np.int64)
        timestamps = np.zeros(n_samples, dtype=np.float64)

        previous = [_read_counter(fd) for fd in fds]
        start_ns = time.perf_counter_ns()
        for i in range(n_samples):
            deadline = start_ns + (i + 1) * interval_ns
            while time.perf_counter_ns() < deadline:
                pass  # spin; sleep granularity is far coarser than the interval
            for j, fd in enumerate(fds):
                value = _read_counter(fd)
                deltas[j, i] = value - previous[j]
                previous[j] = value
            timestamps[i] = (time.perf_counter_ns() - start_ns) / 1e9

        for fd in fds:
            _ioctl(fd, _PERF_EVENT_IOC_DISABLE)
    finally:
        for fd in fds:
            try:
                os.close(fd)
            except OSError:
                pass

    counts = {
        spec.event_name: deltas[j] for j, spec in enumerate(config.events)
    }
    return RawTraceSet(counts=counts, timestamps=timestamps, config=config)


def interface_available() -> bool:
    """True when a hardware counter can actually be opened on this system."""
    try:
        fd = _open_counter(EventSpec("instructions"), os.getpid(), -1)
    except CollectorError:
        return False
    os.close(fd)
    return True
