"""Triage and aggregation: turn hundreds of trials into a failure map.

Raw campaign output is a list of per-trial verdicts; what an engineer needs
is *which failure modes exist and how big each is*.  The triage layer
buckets every failed trial by the triple that identifies its mode —
``violated invariant x active fault kinds x failsafe state at violation`` —
and aggregates campaign-level statistics: survival rate, failsafe
reaction-time (MTTR) percentiles, and the mission-completion distribution.
Buckets are sorted biggest-first, so the top of the report is the next bug
to fix.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.chaos.harness import (
    TrialResult,
    VERDICT_CRASH,
    VERDICT_SAFE,
    VERDICT_VIOLATION,
)


def percentile(values: Sequence[float], fraction: float) -> float:
    """Deterministic linear-interpolation percentile (no numpy dtype drift)."""
    if not values:
        raise ValueError("percentile of an empty sequence")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction out of range: {fraction}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = fraction * (len(ordered) - 1)
    lower = int(rank)
    upper = min(lower + 1, len(ordered) - 1)
    weight = rank - lower
    return ordered[lower] * (1.0 - weight) + ordered[upper] * weight


@dataclass(frozen=True)
class FailureBucket:
    """One failure mode: its identifying triple and its members."""

    invariant: str
    active_faults: Tuple[str, ...]
    failsafe: str
    trial_indices: Tuple[int, ...]

    @property
    def count(self) -> int:
        return len(self.trial_indices)

    @property
    def key(self) -> Tuple[str, Tuple[str, ...], str]:
        return (self.invariant, self.active_faults, self.failsafe)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "invariant": self.invariant,
            "active_faults": list(self.active_faults),
            "failsafe": self.failsafe,
            "count": self.count,
            "trial_indices": list(self.trial_indices),
        }


@dataclass(frozen=True)
class CampaignReport:
    """Campaign-level aggregation of a chaos run."""

    campaign_seed: int
    trials: int
    safe: int
    violations: int
    crashes: int
    buckets: Tuple[FailureBucket, ...]
    #: Failsafe reaction-time (fault onset -> first reaction) percentiles.
    mttr_p50_s: Optional[float]
    mttr_p90_s: Optional[float]
    mttr_p99_s: Optional[float]
    completion_mean: float
    completion_p50: float
    completion_min: float
    invariant_counts: Tuple[Tuple[str, int], ...]

    @property
    def survival_rate(self) -> float:
        """Fraction of trials with no crash (violations still count as
        surviving: the vehicle came home, the contract did not)."""
        return 1.0 - self.crashes / self.trials

    @property
    def clean_rate(self) -> float:
        """Fraction of trials with no violation of any kind."""
        return self.safe / self.trials

    def to_dict(self) -> Dict[str, Any]:
        return {
            "campaign_seed": self.campaign_seed,
            "trials": self.trials,
            "safe": self.safe,
            "violations": self.violations,
            "crashes": self.crashes,
            "survival_rate": self.survival_rate,
            "clean_rate": self.clean_rate,
            "mttr_p50_s": self.mttr_p50_s,
            "mttr_p90_s": self.mttr_p90_s,
            "mttr_p99_s": self.mttr_p99_s,
            "completion_mean": self.completion_mean,
            "completion_p50": self.completion_p50,
            "completion_min": self.completion_min,
            "invariant_counts": [
                {"invariant": name, "count": count}
                for name, count in self.invariant_counts
            ],
            "buckets": [bucket.to_dict() for bucket in self.buckets],
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


def triage(results: Sequence[TrialResult]) -> CampaignReport:
    """Bucket failures and aggregate campaign statistics."""
    if not results:
        raise ValueError("cannot triage an empty campaign")
    campaign_seed = results[0].spec.campaign_seed
    safe = sum(1 for result in results if result.verdict == VERDICT_SAFE)
    crashes = sum(1 for result in results if result.verdict == VERDICT_CRASH)
    violations = sum(
        1 for result in results if result.verdict == VERDICT_VIOLATION
    )

    members: Dict[Tuple[str, Tuple[str, ...], str], List[int]] = {}
    invariant_tallies: Dict[str, int] = {}
    for result in results:
        if result.violation is None:
            continue
        violation = result.violation
        key = (violation.invariant, violation.active_faults, violation.failsafe)
        members.setdefault(key, []).append(result.spec.trial_index)
        invariant_tallies[violation.invariant] = (
            invariant_tallies.get(violation.invariant, 0) + 1
        )
    buckets = tuple(
        sorted(
            (
                FailureBucket(
                    invariant=key[0],
                    active_faults=key[1],
                    failsafe=key[2],
                    trial_indices=tuple(sorted(indices)),
                )
                for key, indices in members.items()
            ),
            key=lambda bucket: (-bucket.count, bucket.key),
        )
    )

    reactions = sorted(
        result.recovery_time_s
        for result in results
        if result.recovery_time_s is not None
    )
    completions = [result.mission_completion for result in results]
    return CampaignReport(
        campaign_seed=campaign_seed,
        trials=len(results),
        safe=safe,
        violations=violations,
        crashes=crashes,
        buckets=buckets,
        mttr_p50_s=percentile(reactions, 0.50) if reactions else None,
        mttr_p90_s=percentile(reactions, 0.90) if reactions else None,
        mttr_p99_s=percentile(reactions, 0.99) if reactions else None,
        completion_mean=sum(completions) / len(completions),
        completion_p50=percentile(completions, 0.50),
        completion_min=min(completions),
        invariant_counts=tuple(
            sorted(invariant_tallies.items(), key=lambda item: (-item[1], item[0]))
        ),
    )
