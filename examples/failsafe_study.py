#!/usr/bin/env python
"""Failsafe study: how the autopilot degrades gracefully under faults.

The paper's stack (Figure 5) flies missions through an autopilot, a
MAVLink-like link, and optionally an off-board compute node.  Every one of
those layers can fail in flight — GPS outage, link blackout, a cell going
bad, ESC thermal throttling, an offload node stalling.  This example flies
the standard fault-scenario matrix and prints, per scenario, whether the
failsafe ladder (NOMINAL -> DEGRADED -> FAILSAFE_RTL/LAND) saved the
vehicle, how fast it reacted, and how much mission was sacrificed.

It then reruns one scenario with the same seed to demonstrate the
determinism contract: fault campaigns reproduce bit-for-bit.

Run:  python examples/failsafe_study.py
"""

from repro.faults.scenarios import run_scenario, standard_scenarios

SEED = 7


def main() -> None:
    print("== Fault-scenario matrix ==")
    header = (
        f"{'scenario':<20s} {'survived':<10s} {'failsafe':<15s} "
        f"{'mission':>8s} {'reaction':>9s} {'min SoC':>8s}"
    )
    print(header)
    results = []
    for scenario in standard_scenarios():
        result = run_scenario(scenario, seed=SEED)
        results.append((scenario, result))
        reaction = (
            f"{result.recovery_time_s:.1f} s"
            if result.recovery_time_s is not None
            else "-"
        )
        survived = "yes" if result.survived else "LOST"
        print(
            f"{scenario.name:<20s} {survived:<10s} {result.final_failsafe:<15s} "
            f"{result.mission_completion:>7.0%} {reaction:>9s} "
            f"{result.min_soc:>7.0%}"
        )

    lost = [(s, r) for s, r in results if not r.survived]
    print()
    print("== Failure post-mortems ==")
    if not lost:
        print("every scenario survived")
    for scenario, result in lost:
        print(f"{scenario.name}: {result.crash_reason}; last events:")
        for time_s, text in result.events[-4:]:
            print(f"  {time_s:6.1f} s  {text}")

    print()
    print("== Determinism check (gps-loss, two runs, same seed) ==")
    scenario = standard_scenarios()[2]
    first = run_scenario(scenario, seed=SEED).metrics()
    second = run_scenario(scenario, seed=SEED).metrics()
    print(f"identical metrics: {first == second}")


if __name__ == "__main__":
    main()
