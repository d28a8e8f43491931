import pytest

from perfprint import events
from perfprint.errors import ConfigError


def test_chrome_arm_preset():
    p = events.preset("ChromeArm")
    assert [e.event_name for e in p.config.events] == [
        "instructions",
        "branch-instructions",
        "cache-references",
        "l1d-loads",
        "l1i-loads",
        "bus-cycles",
    ]
    assert p.config.scope.is_core_wide
    assert p.config.duration_s == 5.0
    assert p.config.expected_samples == 25000
    assert p.config.feature_length == 150000


def test_chrome_incognito_intel_preset():
    p = events.preset("ChromeIncognitoIntel")
    assert [e.event_name for e in p.config.events] == [
        "branch-instructions",
        "cache-references",
        "llc-loads",
    ]
    assert p.config.scope.is_process_specific
    assert p.config.duration_s == 1.0
    assert p.config.expected_samples == 10000
    assert p.config.feature_length == 30000


def test_tor_intel_preset():
    p = events.preset("TorIntel")
    assert [e.event_name for e in p.config.events] == [
        "branch-instructions",
        "cache-references",
        "llc-loads",
    ]
    assert p.config.duration_s == 5.0
    assert p.config.expected_samples == 50000
    assert p.config.feature_length == 150000
    assert p.target_process_pattern == "tor"


def test_preset_is_pure():
    assert events.preset("TorIntel") == events.preset("TorIntel")


def test_unknown_preset_is_descriptive():
    with pytest.raises(ConfigError, match="unknown scenario"):
        events.preset("Safari")


def test_event_kind_follows_name():
    assert events.EventSpec("llc-loads").kind == events.HARDWARE_CACHE
    assert events.EventSpec("l1d-loads").kind == events.HARDWARE_CACHE
    assert events.EventSpec("l1i-loads").kind == events.HARDWARE_CACHE
    assert events.EventSpec("instructions").kind == events.GENERIC_HARDWARE
    assert events.EventSpec("bus-cycles").kind == events.GENERIC_HARDWARE


def test_unknown_event_name_rejected():
    with pytest.raises(ConfigError, match="unknown event"):
        events.EventSpec("tlb-misses")


def test_scope_variants():
    core = events.ProfilingScope.core(2)
    assert core.cpu == 2 and core.pid == -1 and core.is_core_wide
    proc = events.ProfilingScope.process(1234)
    assert proc.pid == 1234 and proc.cpu == -1 and proc.is_process_specific
    with pytest.raises(ConfigError):
        events.ProfilingScope.core(-1)
    with pytest.raises(ConfigError):
        events.ProfilingScope(pid=1, cpu=1)


def test_config_invariants():
    spec = [events.EventSpec("instructions")]
    with pytest.raises(ConfigError, match="empty"):
        events.CollectorConfig(events=(), scope=events.ProfilingScope.core(0), duration_s=1)
    with pytest.raises(ConfigError, match="duplicate"):
        events.CollectorConfig(events=spec * 2, scope=events.ProfilingScope.core(0), duration_s=1)
    with pytest.raises(ConfigError, match="duration"):
        events.CollectorConfig(events=spec, scope=events.ProfilingScope.core(0), duration_s=0)
    with pytest.raises(ConfigError, match="interval"):
        events.CollectorConfig(
            events=spec, scope=events.ProfilingScope.core(0), duration_s=1, read_interval_us=0
        )


def test_expected_samples_floor():
    config = events.CollectorConfig(
        events=(events.EventSpec("instructions"),),
        scope=events.ProfilingScope.core(0),
        duration_s=0.001,
        read_interval_us=200,
    )
    assert config.expected_samples == 5


def test_with_pid_on_process_scope_only():
    config = events.preset("TorIntel").config
    resolved = config.with_pid(42)
    assert resolved.scope.pid == 42
    assert resolved.events == config.events
    with pytest.raises(ConfigError):
        events.preset("ChromeArm").config.with_pid(42)


def test_config_dict_round_trip():
    for name in events.SCENARIO_NAMES:
        config = events.preset(name).config
        assert events.config_from_dict(events.config_to_dict(config)) == config


def test_config_from_dict_rejects_garbage():
    with pytest.raises(ConfigError):
        events.config_from_dict({"events": ["instructions"]})
    with pytest.raises(ConfigError):
        events.config_from_dict(
            {"events": ["instructions"], "scope": {"type": "socket"}, "duration_s": 1}
        )
    for cpu, duration in [(0, "abc"), (0, float("inf")), (0, float("nan")), ("x", 1)]:
        with pytest.raises(ConfigError):
            events.config_from_dict(
                {"events": ["instructions"], "scope": {"type": "core", "cpu": cpu}, "duration_s": duration}
            )
