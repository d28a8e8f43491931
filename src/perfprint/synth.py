"""Deterministic synthetic-trace generator.

Each class gets a per-event base waveform built from a random step function
(workload phases) plus smooth bumps (load bursts), so classes differ both
in level and in temporal pattern. Measurements derive from the waveforms
through the noise phenomena the pipeline must tolerate: additive noise, a
shared circular misalignment shift, amplitude jitter, and a background
count floor. Everything is a pure function of its seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, Measurement
from .errors import ConfigError, check_seed
from .events import EVENT_NAMES


@dataclass(frozen=True)
class NoiseModel:
    """Noise applied when deriving measurements from class waveforms.

    additive_sigma scales Gaussian noise by each waveform's RMS; max_shift
    is the circular-shift bound as a fraction of the per-event length;
    amplitude_jitter draws one multiplicative factor per measurement from
    [1-j, 1+j]; background_floor is the mean of a Poisson count added to
    every sample.
    """

    additive_sigma: float = 0.0
    max_shift: float = 0.0
    amplitude_jitter: float = 0.0
    background_floor: float = 0.0

    def __post_init__(self):
        for name in ("additive_sigma", "max_shift", "amplitude_jitter", "background_floor"):
            if not 0 <= getattr(self, name) < np.inf:  # nan fails too
                raise ConfigError(f"{name} must be finite and >= 0, got {getattr(self, name)}")
        if self.max_shift >= 0.5:
            raise ConfigError(f"max_shift must be < 0.5, got {self.max_shift}")
        # The generator's own limits: a jitter range wider than the largest
        # double, a Poisson mean near 2**63.
        probe = np.random.default_rng(0)
        try:
            probe.uniform(1.0 - self.amplitude_jitter, 1.0 + self.amplitude_jitter, size=0)
            probe.poisson(self.background_floor, size=0)
        except (OverflowError, ValueError) as exc:
            raise ConfigError(f"noise model beyond the generator's range: {exc}") from exc


@dataclass(frozen=True, eq=False)
class ClassProfile:
    label: str
    waveforms: tuple[np.ndarray, ...]  # one per event, equal lengths

    @property
    def concatenated(self) -> np.ndarray:
        return np.concatenate(self.waveforms)


def _class_waveform(rng: np.random.Generator, length: int) -> np.ndarray:
    # Step function: few wide phases with distinct count levels, at most one
    # per sample.
    n_phases = min(int(rng.integers(3, 7)), length)
    boundaries = np.sort(rng.choice(np.arange(1, length), size=n_phases - 1, replace=False))
    levels = rng.uniform(20.0, 120.0, size=n_phases)
    segments = np.diff(np.concatenate([[0], boundaries, [length]]))
    wave = np.repeat(levels, segments)
    # Bumps: localized bursts strong enough to act as class signatures.
    t = np.arange(length, dtype=np.float64)
    for _ in range(int(rng.integers(2, 6))):
        center = rng.uniform(0, length)
        width = rng.uniform(0.01, 0.05) * length
        amplitude = rng.uniform(30.0, 90.0)
        wave = wave + amplitude * np.exp(-0.5 * ((t - center) / width) ** 2)
    return wave


def gen_profiles(
    n_classes: int, n_events: int, samples_per_event: int, seed: int
) -> list[ClassProfile]:
    """One profile per class; identical (seed, class index) means identical
    profile. Labels follow the synthetic `class-NN` convention."""
    if n_classes < 1:
        raise ConfigError(f"need at least one class, got {n_classes}")
    if not 1 <= n_events <= len(EVENT_NAMES):
        raise ConfigError(f"n_events must be in [1, {len(EVENT_NAMES)}], got {n_events}")
    if samples_per_event < 2:
        raise ConfigError(f"samples_per_event must be >= 2, got {samples_per_event}")
    check_seed(seed)
    profiles = []
    for c in range(n_classes):
        rng = np.random.default_rng([seed, c])
        waveforms = tuple(_class_waveform(rng, samples_per_event) for _ in range(n_events))
        profiles.append(ClassProfile(label=f"class-{c:02d}", waveforms=waveforms))
    return profiles


def gen_dataset(
    profiles: list[ClassProfile],
    n_per_class: int,
    noise: NoiseModel,
    seed: int,
) -> Dataset:
    """Derive a labeled dataset from class profiles under a noise model.

    All events of one measurement share a single circular shift (the trace
    starts late as a whole); jitter, additive noise, and the background
    floor are applied per the noise model, and counts are clamped at zero.
    """
    if n_per_class < 1:
        raise ConfigError(f"n_per_class must be >= 1, got {n_per_class}")
    if not isinstance(noise, NoiseModel):
        raise ConfigError("noise must be a NoiseModel")
    if not profiles:
        raise ConfigError("no class profiles given")
    length = len(profiles[0].waveforms[0])
    n_events = len(profiles[0].waveforms)
    check_seed(seed)
    rng = np.random.default_rng(seed)
    max_shift_samples = int(noise.max_shift * length)

    measurements = []
    for profile in profiles:
        for _ in range(n_per_class):
            shift = 0
            if max_shift_samples > 0:
                shift = int(rng.integers(-max_shift_samples, max_shift_samples + 1))
            gain = 1.0
            if noise.amplitude_jitter > 0:
                gain = rng.uniform(1.0 - noise.amplitude_jitter, 1.0 + noise.amplitude_jitter)
            parts = []
            for wave in profile.waveforms:
                sample = np.roll(wave, shift) if shift else wave.copy()
                if gain != 1.0:
                    sample = sample * gain
                if noise.additive_sigma > 0:
                    rms = float(np.sqrt(np.mean(wave * wave)))
                    sample = sample + rng.normal(0.0, noise.additive_sigma * rms, size=length)
                if noise.background_floor > 0:
                    sample = sample + rng.poisson(noise.background_floor, size=length)
                parts.append(np.clip(sample, 0.0, None))
            measurements.append(
                Measurement(label=profile.label, features=np.concatenate(parts))
            )

    return Dataset(
        measurements=tuple(measurements),
        meta={
            "scenario": "synthetic",
            "events": list(EVENT_NAMES[:n_events]),
            "samples_per_event": length,
            "synth_seed": seed,
            "noise": {
                "additive_sigma": noise.additive_sigma,
                "max_shift": noise.max_shift,
                "amplitude_jitter": noise.amplitude_jitter,
                "background_floor": noise.background_floor,
            },
        },
    )
