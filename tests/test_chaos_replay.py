"""Acceptance: chaos-campaign replay determinism at 200-trial scale.

The determinism contract of the chaos engine is that a trial outcome is a
pure function of ``(campaign_seed, trial_index)`` plus the campaign config.
This module flies a full 200-trial fixed-seed campaign once (module-scoped
fixture) and then asserts the contract end to end: every failing trial,
re-flown from its recorded ``(seed, schedule)`` tuple — or from its
serialized black-box trace alone — reproduces the identical safety verdict,
violated invariant, and outcome metrics bit-for-bit.

The campaign runs at 200 Hz physics: EKF-in-the-loop flight is unstable at
the 100 Hz floor (the vehicle dives on waypoint steps with no faults at
all), which would mis-attribute controller artifacts to injected faults.
"""

import pytest

from repro.chaos import (
    CampaignConfig,
    VERDICT_CRASH,
    VERDICT_SAFE,
    VERDICT_VIOLATION,
    generate_trial,
    replay_trial,
    run_campaign,
    triage,
    verify_replay,
)
from repro.chaos.recorder import BlackBoxTrace
from repro.core.parallel import SweepRunnerConfig
from tests.goldens import campaign_digest

#: The acceptance campaign: 200 trials, fixed seed, short flights at 200 Hz.
ACCEPTANCE_CONFIG = CampaignConfig(
    campaign_seed=2021,
    trials=200,
    duration_s=8.0,
    physics_rate_hz=200.0,
    settle_s=3.0,
    min_onset_s=2.0,
    mission_half_extent_m=3.5,
)

#: ``campaign_digest`` of the acceptance campaign, computed before the
#: scalar trial, the ensemble group and the canned scenarios shared one
#: harness.  The scalar engine flew the same digest at that commit.
GOLDEN_DIGEST = "536e34d9db8bb8ef6920287cd97fad412ccbb1d0c623c2398d6a3ccc5fbb27f9"


@pytest.fixture(scope="module")
def campaign_results():
    """Fly the acceptance campaign once, inline (hermetic, single process).

    It flies on the default ensemble engine; every replay below re-flies
    on the scalar engine (``run_trial``), the oracle.
    """
    return run_campaign(
        ACCEPTANCE_CONFIG, SweepRunnerConfig(max_workers=1)
    ).results


def test_campaign_shape(campaign_results):
    assert len(campaign_results) == ACCEPTANCE_CONFIG.trials
    for index, result in enumerate(campaign_results):
        assert result.spec.trial_index == index
        assert result.spec.campaign_seed == ACCEPTANCE_CONFIG.campaign_seed
        assert result.verdict in (VERDICT_SAFE, VERDICT_VIOLATION, VERDICT_CRASH)


def test_campaign_matches_golden_digest(campaign_results):
    assert campaign_digest(campaign_results) == GOLDEN_DIGEST


def test_campaign_exercises_failure_modes(campaign_results):
    """The fixed seed must actually produce failures to make replay
    verification meaningful, without losing every airframe."""
    failed = [result for result in campaign_results if result.failed]
    safe = [result for result in campaign_results if not result.failed]
    assert len(failed) >= 10
    assert len(safe) >= 50
    invariants = {result.violated_invariant for result in failed}
    assert len(invariants) >= 2


def test_traces_exist_exactly_for_failures(campaign_results):
    for result in campaign_results:
        if result.failed:
            assert result.trace is not None
            assert result.trace.trial_index == result.spec.trial_index
            assert result.trace.verdict == result.verdict
        else:
            assert result.trace is None


def test_every_failing_trial_replays_bit_for_bit(campaign_results):
    """The acceptance criterion: re-running each failing trial from its
    recorded ``(seed, schedule)`` reproduces verdict, violated invariant,
    and every outcome metric bit-for-bit (including the black-box trace)."""
    failed = [result for result in campaign_results if result.failed]
    assert failed, "campaign produced no failures to verify"
    mismatched = [
        result.spec.trial_index
        for result in failed
        if not verify_replay(result, ACCEPTANCE_CONFIG)
    ]
    assert mismatched == []


def test_replay_from_serialized_trace_alone(campaign_results):
    """A trace file round-tripped through JSON is a sufficient flight plan:
    replaying from the deserialized trace reproduces the original."""
    failed = [result for result in campaign_results if result.failed]
    for result in failed[:3]:
        assert result.trace is not None
        restored = BlackBoxTrace.from_json(result.trace.to_json())
        assert restored.fingerprint() == result.trace.fingerprint()
        replayed = replay_trial(restored, ACCEPTANCE_CONFIG)
        assert replayed.metrics() == result.metrics()
        assert replayed.trace is not None
        assert replayed.trace.fingerprint() == result.trace.fingerprint()
        assert replayed.violated_invariant == result.violated_invariant


def test_trials_regenerate_in_isolation(campaign_results):
    """``generate_trial`` rebuilds any campaign member without flying or
    generating its neighbours."""
    for index in (0, 7, 99, ACCEPTANCE_CONFIG.trials - 1):
        assert (
            generate_trial(ACCEPTANCE_CONFIG, index)
            == campaign_results[index].spec
        )


def test_triage_is_consistent_with_results(campaign_results):
    report = triage(campaign_results)
    assert report.trials == ACCEPTANCE_CONFIG.trials
    assert report.safe + report.violations + report.crashes == report.trials
    assert 0.0 <= report.clean_rate <= report.survival_rate <= 1.0
    bucketed = sum(bucket.count for bucket in report.buckets)
    assert bucketed == report.violations + report.crashes
    # buckets are sorted biggest-first and index real failing trials
    counts = [bucket.count for bucket in report.buckets]
    assert counts == sorted(counts, reverse=True)
    failing_indices = {
        result.spec.trial_index for result in campaign_results if result.failed
    }
    for bucket in report.buckets:
        assert set(bucket.trial_indices) <= failing_indices
