"""Countermeasure transforms and the before/after leakage comparison.

Three dataset-level policies: injecting noise into the counts, degrading
the effective sampling frequency, and denying counter access outright.
Organizational countermeasures (input-independent browser code, a
profile-own-process-only policy) have no dataset semantics and are covered
in the README instead.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .dataset import Dataset, downsample, split
from .errors import ConfigError, check_seed
from .evaluation import EvalReport, evaluate


class PolicyKind(enum.Enum):
    NOISE_INJECTION = "noise-injection"
    SAMPLING_DEGRADATION = "sampling-degradation"
    ACCESS_DENIED = "access-denied"


@dataclass(frozen=True)
class MitigationPolicy:
    kind: PolicyKind
    sigma: float = 0.0  # noise scale as a fraction of per-feature train RMS
    factor: int = 2  # sampling-degradation downsample factor
    seed: int = 0

    def __post_init__(self):
        if self.kind is PolicyKind.NOISE_INJECTION and not 0 <= self.sigma < math.inf:
            raise ConfigError(f"sigma must be finite and >= 0, got {self.sigma}")
        if self.kind is PolicyKind.SAMPLING_DEGRADATION and self.factor < 2:
            raise ConfigError(f"factor must be >= 2, got {self.factor}")
        if self.kind is PolicyKind.NOISE_INJECTION:
            check_seed(self.seed, "policy seed")  # the noise draw's seed

    @classmethod
    def noise_injection(cls, sigma: float = 1.0, seed: int = 0) -> "MitigationPolicy":
        return cls(kind=PolicyKind.NOISE_INJECTION, sigma=sigma, seed=seed)

    @classmethod
    def sampling_degradation(cls, factor: int = 2) -> "MitigationPolicy":
        return cls(kind=PolicyKind.SAMPLING_DEGRADATION, factor=factor)

    @classmethod
    def access_denied(cls) -> "MitigationPolicy":
        return cls(kind=PolicyKind.ACCESS_DENIED)


def apply(policy: MitigationPolicy, d: Dataset, rms_reference: Dataset | None = None) -> Dataset:
    """Transform a dataset under a mitigation policy.

    Noise scale is sigma times the per-feature RMS of `rms_reference` (the
    training set) so one sigma is comparable across events with wildly
    different count magnitudes; without a reference, the dataset itself is
    used. Access denial models the disabled interface by emptying every
    feature vector.
    """
    if not len(d):
        raise ConfigError("cannot apply a policy to an empty dataset")
    if policy.kind is PolicyKind.SAMPLING_DEGRADATION:
        return downsample(d, policy.factor)
    if policy.kind is PolicyKind.ACCESS_DENIED:
        return d.with_features(np.zeros((len(d), 0)))
    # Noise injection: one draw in row order, scaled, shifted and clipped in
    # place, so no second (n, d) temporary is held beside it.
    if policy.sigma == 0:
        return d
    reference = rms_reference if rms_reference is not None else d
    scale = policy.sigma * np.sqrt((reference.feature_matrix() ** 2).mean(axis=0))
    noisy = np.random.default_rng(policy.seed).normal(0.0, 1.0, size=(len(d), d.feature_length))
    noisy *= scale
    for row, m in zip(noisy, d.measurements):
        row += m.features
    return d.with_features(np.clip(noisy, 0.0, None, out=noisy))


@dataclass(frozen=True, eq=False)
class LeakageReport:
    before: EvalReport
    after: EvalReport
    seeds: dict

    @property
    def accuracy_delta(self) -> float:  # before minus after, in success-rate points
        return self.before.success_rate - self.after.success_rate


def leakage_report(
    trainer,
    clean: Dataset,
    policy: MitigationPolicy,
    n_train_per_class: int,
    n_test_per_class: int,
    split_seed: int,
) -> LeakageReport:
    """Train and evaluate on a clean split, then on the policy-transformed
    split (policy applied to both sides, noise scale taken from the clean
    training set)."""
    train, test = split(clean, n_train_per_class, n_test_per_class, split_seed)
    before = evaluate(trainer(train), test)
    # Distinct derived seeds per side, or both sides would receive the same
    # noise stream and test points would sit artificially close to the
    # train points sharing their position.
    mitigated_train = apply(policy, train)
    mitigated_test = apply(replace(policy, seed=policy.seed + 1), test, rms_reference=train)
    after = evaluate(trainer(mitigated_train), mitigated_test)
    return LeakageReport(
        before=before,
        after=after,
        seeds={
            "split_seed": split_seed,
            "policy_seed_train": policy.seed,
            "policy_seed_test": policy.seed + 1,
        },
    )
