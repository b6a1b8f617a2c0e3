"""The canned fault scenarios: golden outcomes and input validation.

Every scenario flies through the chaos harness's one tick loop.  The
digests below were computed with the scenario runner that predates that
harness (its own loop and ``CrashEnvelope.crash_reason`` check every
tick), so they pin that the merge changed no outcome.
"""

import pytest

from repro.faults.scenarios import (
    TAKEOFF_SETTLE_S,
    Scenario,
    run_scenario,
    standard_scenarios,
)
from repro.faults.schedule import FaultSchedule
from tests.goldens import scenario_digest

#: ``scenario_digest(run_scenario(s, seed=7))`` for every standard scenario.
GOLDEN_DIGESTS = {
    "low-battery": "d2f4b094f284405df09577c38d082f663aa5ff665f5fbcaa76a8534b15b28493",
    "critical-battery": "9df8cfd2ea5cf7b67fbdee3a1b1a482aa9b486ca710e94fdf15eab5cea1a28d2",
    "gps-loss": "25db513d153c97e1ba0862ec2893ab3ed9a175ea81e80a1d232592d487e3df02",
    "link-blackout": "d06450efe0c973c989f29e5595745bb99881947c480fb8bd5de55d84f1a1c836",
    "motor-degradation": "4105b6cb964d40ece4c4c78960e9d59ca49fb8b455b7ea69acb241b168cafab4",
    "motor-out": "7ff38cfa85b1fa35b6c3520734bd02e3adfa55d71493cb27075e9cabe1537677",
    "esc-thermal": "7c7008dbedcf5a4f44e9c92853e7cb5b31e92dfe5633daacb627690a78550f8b",
    "imu-glitch": "dc34362bc32aba39d0a9852b1d300ac4ec5db22efd46a8b3efe3fa84651c5b7a",
    "offload-stall": "11830cd1ad771452cfe8604a5e00b59ddbad92edb2b8771bf30cb6ac7bdffb9e",
    "combined-stress": "01bab26f0887553f599f4d2f8ff09b38494fc124a744d1162f1e4b23d434b2d8",
}


def test_golden_table_covers_the_standard_matrix():
    assert [s.name for s in standard_scenarios()] == list(GOLDEN_DIGESTS)


@pytest.mark.parametrize(
    "scenario", standard_scenarios(), ids=lambda scenario: scenario.name
)
def test_scenario_outcome_matches_golden(scenario):
    result = run_scenario(scenario, seed=7)
    assert scenario_digest(result) == GOLDEN_DIGESTS[scenario.name]
    assert result.survived == (result.crash_reason is None)


@pytest.mark.parametrize("duration_s", [TAKEOFF_SETTLE_S, 3.0, 0.0, -1.0])
def test_duration_inside_the_takeoff_settle_is_rejected(duration_s):
    """The settle always flies in full, so a shorter flight would overrun."""
    with pytest.raises(ValueError, match="settle"):
        Scenario("short", FaultSchedule, duration_s=duration_s)

