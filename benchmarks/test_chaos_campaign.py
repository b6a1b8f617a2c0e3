"""Robustness benchmark: a fixed-seed chaos campaign with failure triage.

Flies a 30-trial generated campaign of compound fault schedules through the
closed-loop stack under the safety-invariant monitor, prints the triaged
failure map (buckets keyed by invariant x active faults x failsafe state),
and asserts the campaign-level robustness floor plus the replay determinism
of a sample of failures.  Complements ``test_fault_scenarios.py``: that
matrix probes hand-picked corners, this campaign samples the interior.
"""

from repro.chaos import CampaignConfig, run_campaign, triage, verify_replay
from repro.core.parallel import SweepRunnerConfig

from conftest import print_table

CONFIG = CampaignConfig(
    campaign_seed=2021,
    trials=30,
    duration_s=20.0,
    physics_rate_hz=200.0,
    max_faults=3,
)


def test_chaos_campaign_failure_map(benchmark):
    results = benchmark.pedantic(
        lambda: run_campaign(CONFIG, SweepRunnerConfig(max_workers=1)).results,
        rounds=1,
        iterations=1,
    )
    report = triage(results)

    rows = [
        (
            f"{bucket.count}x",
            bucket.invariant,
            "+".join(bucket.active_faults) or "-",
            bucket.failsafe,
            ",".join(str(index) for index in bucket.trial_indices),
        )
        for bucket in report.buckets
    ]
    print_table(
        "Chaos campaign failure buckets "
        f"(seed {CONFIG.campaign_seed}, {CONFIG.trials} trials; "
        f"survival {report.survival_rate:.0%}, clean {report.clean_rate:.0%})",
        ("count", "invariant", "active faults", "failsafe", "trials"),
        rows,
    )

    # Robustness floor: the stack keeps most airframes through compound
    # faults, and the campaign still exercises real failure modes.
    assert report.survival_rate >= 0.8
    assert report.safe + report.violations + report.crashes == CONFIG.trials
    assert report.buckets, "campaign produced no failures to triage"
    assert len(dict(report.invariant_counts)) >= 2

    # Failsafe reactions observed in-campaign stay on the outer-loop
    # timescale at the median.
    if report.mttr_p50_s is not None:
        assert report.mttr_p50_s < 10.0

    # Replay determinism on a sample of failures (the full 200-trial sweep
    # lives in tests/test_chaos_replay.py).
    failed = [result for result in results if result.failed]
    for result in failed[:3]:
        assert verify_replay(result, CONFIG)
