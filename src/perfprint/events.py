"""Declarative description of what to measure.

Event names are abstract symbols from a closed set; the mapping to platform
encodings lives in the collector so recorded datasets stay loadable on any
machine. Three named scenario presets cover the supported profiling setups.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import ConfigError

# Closed symbolic event set. Order here is the canonical order used when a
# caller asks for "the first n events" (synthetic data does this).
GENERIC_HARDWARE = "generic-hardware"
HARDWARE_CACHE = "hardware-cache"

EVENT_KINDS = {
    "instructions": GENERIC_HARDWARE,
    "branch-instructions": GENERIC_HARDWARE,
    "cache-references": GENERIC_HARDWARE,
    "l1d-loads": HARDWARE_CACHE,
    "l1i-loads": HARDWARE_CACHE,
    "bus-cycles": GENERIC_HARDWARE,
    "llc-loads": HARDWARE_CACHE,
}

EVENT_NAMES = tuple(EVENT_KINDS)

SCENARIO_NAMES = ("ChromeArm", "ChromeIncognitoIntel", "TorIntel")

# Default spacing between counter reads. Each scenario's interval is chosen
# so its duration yields the expected 25,000 / 10,000 / 50,000 samples per
# event; both are well above the 1.5-3 us cost of a single counter read, so
# the read loop can keep pace.
DEFAULT_READ_INTERVAL_US = 200


@dataclass(frozen=True)
class EventSpec:
    """One hardware event to count.

    `kind` is derived from the name: cache-load events belong to the
    hardware-cache group, everything else to the generic-hardware group.
    Kernel activity is never counted, for portability.
    """

    event_name: str

    def __post_init__(self):
        if self.event_name not in EVENT_KINDS:
            raise ConfigError(
                f"unknown event name {self.event_name!r}; "
                f"expected one of {', '.join(EVENT_NAMES)}"
            )

    @property
    def kind(self) -> str:
        return EVENT_KINDS[self.event_name]


@dataclass(frozen=True)
class ProfilingScope:
    """Either one process on any core, or one core for all processes.

    The unused selector is -1. A process scope with pid -1 is a placeholder
    to be resolved (e.g. by process discovery) before collection starts.
    """

    pid: int = -1
    cpu: int = -1

    def __post_init__(self):
        if self.pid >= 0 and self.cpu >= 0:
            raise ConfigError("scope cannot be both process-specific and core-wide")

    @classmethod
    def process(cls, pid: int = -1) -> "ProfilingScope":
        return cls(pid=pid, cpu=-1)

    @classmethod
    def core(cls, cpu: int) -> "ProfilingScope":
        if cpu < 0:
            raise ConfigError(f"core index must be >= 0, got {cpu}")
        return cls(pid=-1, cpu=cpu)

    @property
    def is_core_wide(self) -> bool:
        return self.cpu >= 0

    @property
    def is_process_specific(self) -> bool:
        return not self.is_core_wide


@dataclass(frozen=True)
class CollectorConfig:
    """Which events to count, in which scope, for how long."""

    events: tuple[EventSpec, ...]
    scope: ProfilingScope
    duration_s: float
    read_interval_us: int = DEFAULT_READ_INTERVAL_US

    def __post_init__(self):
        object.__setattr__(self, "events", tuple(self.events))
        if not self.events:
            raise ConfigError("event list must not be empty")
        names = [e.event_name for e in self.events]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate event names in config: {names}")
        if not 0 < self.duration_s < math.inf:
            raise ConfigError(f"duration must be finite and > 0 s, got {self.duration_s}")
        if self.read_interval_us <= 0:
            raise ConfigError(
                f"read interval must be > 0 us, got {self.read_interval_us}"
            )
        if self.expected_samples < 1:
            raise ConfigError(
                "configuration yields no samples: duration "
                f"{self.duration_s} s at {self.read_interval_us} us per read"
            )

    @property
    def event_names(self) -> list[str]:
        return [e.event_name for e in self.events]

    @property
    def expected_samples(self) -> int:
        """Samples per event: floor(duration / read interval).

        The tiny epsilon keeps exact ratios (5 s / 200 us) from landing one
        below the true count through float rounding.
        """
        return math.floor(self.duration_s * 1e6 / self.read_interval_us + 1e-9)

    @property
    def feature_length(self) -> int:
        """Length of the concatenated per-measurement feature vector."""
        return len(self.events) * self.expected_samples

    def with_pid(self, pid: int) -> "CollectorConfig":
        """Resolve a process-specific scope to a concrete pid."""
        if not self.scope.is_process_specific:
            raise ConfigError("cannot set a pid on a core-wide config")
        return replace(self, scope=ProfilingScope.process(pid))


@dataclass(frozen=True)
class ScenarioPreset:
    name: str
    config: CollectorConfig
    target_process_pattern: str


_PRESETS = {
    "ChromeArm": dict(
        events=(
            "instructions",
            "branch-instructions",
            "cache-references",
            "l1d-loads",
            "l1i-loads",
            "bus-cycles",
        ),
        scope=ProfilingScope.core(0),
        duration_s=5.0,
        read_interval_us=200,  # 25,000 samples/event over 5 s
        pattern="chrome",
    ),
    "ChromeIncognitoIntel": dict(
        events=("branch-instructions", "cache-references", "llc-loads"),
        scope=ProfilingScope.process(),
        duration_s=1.0,
        read_interval_us=100,  # 10,000 samples/event over 1 s
        pattern="chrome",
    ),
    "TorIntel": dict(
        events=("branch-instructions", "cache-references", "llc-loads"),
        scope=ProfilingScope.process(),
        duration_s=5.0,
        read_interval_us=100,  # 50,000 samples/event over 5 s
        pattern="tor",
    ),
}


def preset(name: str, read_interval_us: int | None = None) -> ScenarioPreset:
    """Return the named scenario preset, fully populated.

    Pure and deterministic. `read_interval_us` overrides the preset's read
    interval, and with it the samples per event; the duration stays.
    """
    try:
        spec = _PRESETS[name]
    except KeyError:
        raise ConfigError(
            f"unknown scenario {name!r}; expected one of {', '.join(SCENARIO_NAMES)}"
        ) from None
    config = CollectorConfig(
        events=tuple(EventSpec(n) for n in spec["events"]),
        scope=spec["scope"],
        duration_s=spec["duration_s"],
        read_interval_us=spec["read_interval_us"] if read_interval_us is None else read_interval_us,
    )
    return ScenarioPreset(name=name, config=config, target_process_pattern=spec["pattern"])


def config_to_dict(config: CollectorConfig) -> dict:
    scope_type = "core" if config.scope.is_core_wide else "process"
    return {
        "events": config.event_names,
        "scope": {"type": scope_type, "pid": config.scope.pid, "cpu": config.scope.cpu},
        "duration_s": config.duration_s,
        "read_interval_us": config.read_interval_us,
    }


def config_from_dict(data: dict) -> CollectorConfig:
    try:
        events = tuple(EventSpec(name) for name in data["events"])
        scope_data = data["scope"]
        if scope_data["type"] == "core":
            scope = ProfilingScope.core(int(scope_data["cpu"]))
        elif scope_data["type"] == "process":
            scope = ProfilingScope.process(int(scope_data.get("pid", -1)))
        else:
            raise ConfigError(f"unknown scope type {scope_data['type']!r}")
        return CollectorConfig(
            events=events,
            scope=scope,
            duration_s=float(data["duration_s"]),
            read_interval_us=int(data.get("read_interval_us", DEFAULT_READ_INTERVAL_US)),
        )
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"malformed collector config: {exc}") from exc
