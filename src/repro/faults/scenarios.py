"""Canned fault scenarios and the closed-loop scenario runner.

Each scenario flies the same waypoint mission through a different corner of
the reliability envelope (GPS outage, link blackout, battery faults, motor
degradation, offload-node stalls) and reports survival, recovery time, and
mission-completion degradation.  A scenario flies as a one-trial chaos
campaign with a hand-written fault schedule: the same harness and tick
loop (:mod:`repro.chaos.harness`) as every chaos trial.  Runs are
deterministic: the same scenario and seed reproduce the same metrics
bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from repro.chaos.campaign import CampaignConfig, TrialSpec
from repro.chaos.harness import fly_alone
from repro.faults.envelope import DEFAULT_CRASH_ENVELOPE, CrashEnvelope
from repro.faults.schedule import FaultKind, FaultSchedule

#: The shared mission: an 8 m square at 4 m altitude, ~25 s of flying —
#: long enough that mid-mission faults abort real work.
MISSION_HALF_EXTENT_M = 8.0
TAKEOFF_ALTITUDE_M = 4.0
TAKEOFF_SETTLE_S = 6.0
CONTROL_STEP_S = 0.1


@dataclass(frozen=True)
class Scenario:
    """One mission x fault-schedule combination."""

    name: str
    schedule_factory: Callable[[], FaultSchedule]
    #: Whole flight, takeoff settle included.
    duration_s: float = 40.0
    #: EKF-in-the-loop flight (required for GPS/IMU fault scenarios).
    use_ekf: bool = False
    #: Attach a pose-staleness watchdog fed by a synthetic offload stream.
    offload: bool = False
    #: GCS heartbeats flowing (arms the autopilot's link-loss watchdog).
    heartbeats: bool = False

    def __post_init__(self) -> None:
        if not self.duration_s > TAKEOFF_SETTLE_S:
            raise ValueError(
                f"duration {self.duration_s} s must exceed the "
                f"{TAKEOFF_SETTLE_S} s takeoff settle"
            )


@dataclass(frozen=True)
class ScenarioResult:
    """Outcome metrics of one scenario run."""

    scenario: str
    survived: bool
    crash_reason: Optional[str]
    final_failsafe: str
    final_mode: str
    mission_completion: float
    #: Time from first fault onset to the autopilot's first reaction
    #: (DEGRADED or FAILSAFE event); None if it never reacted.
    recovery_time_s: Optional[float]
    min_soc: float
    landed: bool
    events: Tuple[Tuple[float, str], ...]

    def metrics(self) -> Tuple:
        """The determinism fingerprint: identical seeds must reproduce this
        tuple exactly (used by benchmarks/test_fault_scenarios.py)."""
        return (
            self.scenario,
            self.survived,
            self.crash_reason,
            self.final_failsafe,
            self.final_mode,
            self.mission_completion,
            self.recovery_time_s,
            self.min_soc,
            self.landed,
            self.events,
        )


def run_scenario(
    scenario: Scenario,
    seed: int = 7,
    physics_rate_hz: float = 400.0,
    envelope: CrashEnvelope = DEFAULT_CRASH_ENVELOPE,
) -> ScenarioResult:
    """Fly one scenario to completion and measure the outcome.

    ``seed`` seeds the lossy link.  The flight stops on the first tick the
    safety monitor's ``crash.*`` invariants fire; they test exactly the
    conditions of ``envelope.crash_reason``, in the same order, so
    evaluating it on the final state names the crash.
    """
    config = CampaignConfig(
        trials=1,
        duration_s=scenario.duration_s,
        physics_rate_hz=physics_rate_hz,
        control_step_s=CONTROL_STEP_S,
        takeoff_altitude_m=TAKEOFF_ALTITUDE_M,
        settle_s=TAKEOFF_SETTLE_S,
        mission_half_extent_m=MISSION_HALF_EXTENT_M,
        envelope=envelope,
    )
    spec = TrialSpec(
        campaign_seed=seed,
        trial_index=0,
        link_seed=seed,
        schedule=scenario.schedule_factory(),
        use_ekf=scenario.use_ekf,
        heartbeats=scenario.heartbeats,
        offload=scenario.offload,
    )
    harness = fly_alone(spec, config)
    result = harness.judge()
    return ScenarioResult(
        scenario=scenario.name,
        survived=not harness.monitor.crashed,
        crash_reason=envelope.crash_reason(harness.autopilot.sim),
        final_failsafe=result.final_failsafe,
        final_mode=result.final_mode,
        mission_completion=result.mission_completion,
        recovery_time_s=result.recovery_time_s,
        min_soc=result.min_soc,
        landed=result.landed,
        events=tuple(harness.autopilot.events),
    )


# -- canned scenarios -------------------------------------------------------------


def low_battery_scenario(duration_s: float = 40.0) -> Scenario:
    """A cell goes bad mid-mission: SoC drops below the low threshold and the
    autopilot must abort to FAILSAFE_RTL."""
    return Scenario(
        name="low-battery",
        schedule_factory=lambda: FaultSchedule().add(
            FaultKind.BATTERY_DRAIN, start_s=14.5, end_s=15.0, fraction=0.76
        ),
        duration_s=duration_s,
    )


def critical_battery_scenario(duration_s: float = 40.0) -> Scenario:
    """Worse capacity loss: SoC lands below critical -> FAILSAFE_LAND."""
    return Scenario(
        name="critical-battery",
        schedule_factory=lambda: FaultSchedule().add(
            FaultKind.BATTERY_DRAIN, start_s=12.0, end_s=12.5, fraction=0.83
        ),
        duration_s=duration_s,
    )


def gps_loss_scenario(duration_s: float = 40.0) -> Scenario:
    """GPS denied for 14 s: dead-reckon (DEGRADED), then FAILSAFE_LAND once
    drift is unbounded."""
    return Scenario(
        name="gps-loss",
        schedule_factory=lambda: FaultSchedule().add(
            FaultKind.GPS_LOSS, start_s=12.0, end_s=26.0
        ),
        duration_s=duration_s,
        use_ekf=True,
    )


def link_blackout_scenario(duration_s: float = 40.0) -> Scenario:
    """Total uplink outage: heartbeats stop, the link-loss watchdog fires
    FAILSAFE_RTL after the timeout."""
    return Scenario(
        name="link-blackout",
        schedule_factory=lambda: FaultSchedule().add(
            FaultKind.LINK_BLACKOUT, start_s=10.0, end_s=26.0
        ),
        duration_s=duration_s,
        heartbeats=True,
    )


def motor_degradation_scenario(duration_s: float = 40.0) -> Scenario:
    """One rotor loses 20% of its thrust ceiling (prop damage): enough
    margin remains to finish the mission flying soft."""
    return Scenario(
        name="motor-degradation",
        schedule_factory=lambda: FaultSchedule().add(
            FaultKind.MOTOR_DEGRADATION,
            start_s=10.0,
            motor_index=0,
            health=0.8,
        ),
        duration_s=duration_s,
    )


def motor_out_scenario(duration_s: float = 40.0) -> Scenario:
    """Severe single-rotor failure (40% ceiling): the thrust-saturation
    failsafe must catch the authority loss and force a LAND — whether the
    airframe survives the descent is up to the physics."""
    return Scenario(
        name="motor-out",
        schedule_factory=lambda: FaultSchedule().add(
            FaultKind.MOTOR_DEGRADATION,
            start_s=10.0,
            motor_index=0,
            health=0.4,
        ),
        duration_s=duration_s,
    )


def esc_thermal_scenario(duration_s: float = 40.0) -> Scenario:
    """All four ESCs in thermal protection at 105 degC for 20 s: uniform
    derating leaves hover margin but clips maneuvering authority."""
    return Scenario(
        name="esc-thermal",
        schedule_factory=lambda: FaultSchedule().add(
            FaultKind.ESC_THERMAL, start_s=8.0, end_s=28.0, temperature_c=105.0
        ),
        duration_s=duration_s,
    )


def imu_glitch_scenario(duration_s: float = 40.0) -> Scenario:
    """A 4 s IMU bias glitch while flying on the EKF estimate."""
    return Scenario(
        name="imu-glitch",
        schedule_factory=lambda: FaultSchedule().add(
            FaultKind.IMU_BIAS,
            start_s=12.0,
            end_s=16.0,
            accel_bias_m_s2=0.8,
            gyro_bias_rad_s=0.03,
        ),
        duration_s=duration_s,
        use_ekf=True,
    )


def offload_stall_scenario(duration_s: float = 40.0) -> Scenario:
    """The off-board SLAM node stalls for 6 s: the staleness watchdog must
    fall back to onboard SLAM (DEGRADED) and recover when poses resume."""
    return Scenario(
        name="offload-stall",
        schedule_factory=lambda: FaultSchedule().add(
            FaultKind.OFFLOAD_STALL, start_s=10.0, end_s=16.0
        ),
        duration_s=duration_s,
        offload=True,
    )


def combined_stress_scenario(duration_s: float = 40.0) -> Scenario:
    """Several simultaneous degradations: bursty link, battery sag, frozen
    barometer — the compounding-failure regime."""
    return Scenario(
        name="combined-stress",
        schedule_factory=lambda: FaultSchedule()
        .add(
            FaultKind.LINK_BURST,
            start_s=8.0,
            end_s=30.0,
            p_good_to_bad=0.1,
            p_bad_to_good=0.2,
            loss_bad=0.95,
        )
        .add(FaultKind.BATTERY_SAG, start_s=10.0, end_s=30.0, resistance_ohm=0.06)
        .add(FaultKind.BARO_FREEZE, start_s=14.0, end_s=24.0),
        duration_s=duration_s,
        heartbeats=True,
    )


def standard_scenarios() -> Tuple[Scenario, ...]:
    """The scenario matrix the robustness benchmark flies."""
    return (
        low_battery_scenario(),
        critical_battery_scenario(),
        gps_loss_scenario(),
        link_blackout_scenario(),
        motor_degradation_scenario(),
        motor_out_scenario(),
        esc_thermal_scenario(),
        imu_glitch_scenario(),
        offload_stall_scenario(),
        combined_stress_scenario(),
    )
