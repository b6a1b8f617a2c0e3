"""Robustness benchmark: the mission x fault-schedule scenario matrix.

Flies the standard fault scenarios (GPS outage, link blackout, battery
faults, motor/ESC degradation, offload stalls, a combined stress case)
through the closed-loop stack and reports survival, recovery time, and
mission-completion degradation.  Every run is bit-for-bit deterministic for
a fixed seed — the property that makes fault campaigns regression-testable.
"""

from repro.faults.scenarios import run_scenario, standard_scenarios

from conftest import print_table

SEED = 7


def test_fault_scenario_matrix(benchmark):
    scenarios = standard_scenarios()

    def run_all():
        return [(s, run_scenario(s, seed=SEED)) for s in scenarios]

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    rows = [
        (
            scenario.name,
            "yes" if result.survived else f"NO ({result.crash_reason})",
            result.final_failsafe,
            result.final_mode,
            f"{result.mission_completion:.0%}",
            (
                f"{result.recovery_time_s:.1f} s"
                if result.recovery_time_s is not None
                else "-"
            ),
            f"{result.min_soc:.0%}",
        )
        for scenario, result in results
    ]
    print_table(
        "Fault-scenario matrix (survival / recovery / degradation)",
        (
            "scenario", "survived", "failsafe", "mode",
            "mission", "reaction", "min SoC",
        ),
        rows,
    )

    by_name = {scenario.name: result for scenario, result in results}

    # The failsafe ladder must recover (RTL or LAND, no crash) in the
    # canonical abort scenarios.
    for name, expected in (
        ("low-battery", "FAILSAFE_RTL"),
        ("critical-battery", "FAILSAFE_LAND"),
        ("gps-loss", "FAILSAFE_LAND"),
        ("link-blackout", "FAILSAFE_RTL"),
    ):
        result = by_name[name]
        assert result.survived, f"{name} crashed: {result.crash_reason}"
        assert result.final_failsafe == expected

    # Mild degradations ride through: mission completes without escalation.
    for name in ("motor-degradation", "esc-thermal", "combined-stress"):
        result = by_name[name]
        assert result.survived
        assert result.mission_completion == 1.0

    # The offload stall must trip the staleness watchdog, fall back to
    # onboard SLAM, and recover once poses resume.
    offload = by_name["offload-stall"]
    assert offload.survived
    assert any("fallback" in text for _, text in offload.events)
    assert any(text.startswith("RECOVERED") for _, text in offload.events)

    # Faults abort missions: abort scenarios must show real degradation.
    assert by_name["low-battery"].mission_completion < 1.0
    assert by_name["gps-loss"].mission_completion < 1.0

    # Every detected fault is reacted to within two seconds (Table 2's
    # outer-loop timescale): slow failsafes are as bad as none.
    for name in ("low-battery", "gps-loss", "offload-stall"):
        assert by_name[name].recovery_time_s is not None
        assert by_name[name].recovery_time_s < 2.0

    # Majority of the matrix survives; the intentional motor-out envelope
    # case is allowed to be lost (it still degrades before impact).
    survived = sum(1 for _, result in results if result.survived)
    assert survived >= len(results) - 1
    motor_out = by_name["motor-out"]
    assert any(text.startswith("DEGRADED") for _, text in motor_out.events)


def test_fault_scenarios_deterministic(benchmark):
    """Same seed, same flight: the determinism contract of the framework."""
    scenarios = standard_scenarios()

    def run_twice():
        first = [run_scenario(s, seed=SEED).metrics() for s in scenarios]
        second = [run_scenario(s, seed=SEED).metrics() for s in scenarios]
        return first, second

    first, second = benchmark.pedantic(run_twice, rounds=1, iterations=1)
    assert first == second
