"""The fault-mission harness: one tick loop for every robustness run.

A fault mission is the shared square mission flown closed loop under a
:class:`~repro.faults.schedule.FaultSchedule`.  Three callers fly it: the
chaos runner's scalar oracle (:func:`repro.chaos.runner.run_trial`), its
ensemble groups (:func:`repro.chaos.runner.run_trials_ensemble`) and the
canned scenarios (:func:`repro.faults.scenarios.run_scenario`).  All three
build :class:`MissionHarness` objects, through :func:`fly_alone` (one
trial on its own scalar simulator) or :func:`fly_lockstep` (a group, one
ensemble lane each), and both hand them to :func:`fly`.

A harness wraps one trial's scalar control flow around one simulator: the
link, the autopilot, an optional pose watchdog, the fault injector, the
:class:`~repro.chaos.invariants.SafetyMonitor`, the
:class:`~repro.chaos.recorder.FlightRecorder`, the minimum SoC and the
heartbeat deadline.  :func:`fly` arms, takes off, settles, uploads the
mission, switches to AUTO and then ticks until the flight ends.  Every
control tick runs the same three phases:

1. :meth:`MissionHarness.pre` for every live harness, in order: fault
   injection, GCS heartbeat, offload pose feed and
   ``Autopilot._update_pre``.
2. The physics burst: one ``EnsembleFlightSimulator.run_for`` steps every
   live lane still attached to the ensemble.  Scalar simulators and lanes
   that defected to one step on their own ``run_for``.
3. :meth:`MissionHarness.post` for every live harness:
   ``Autopilot._update_post``, SoC tracking, invariant evaluation and
   black-box recording.  A harness whose monitor records a crash stops
   flying, and its ensemble lane is frozen.

For one harness on a scalar simulator, the phases are exactly
``Autopilot.update``.  Trials are mutually independent, and the ensemble
reproduces every lane's RNG streams bit for bit, so lockstep interleaving
cannot change an outcome.  :meth:`MissionHarness.judge` turns the flown
harness into a :class:`TrialResult` whose fingerprint is the same on
either engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union, cast

import numpy as np

from repro.autopilot.arducopter import Autopilot, FlightMode, MissionItem
from repro.autopilot.mavlink import Link, MessageType
from repro.autopilot.offload import PoseStalenessWatchdog
from repro.chaos.campaign import CampaignConfig, TrialSpec
from repro.chaos.invariants import SafetyMonitor, Violation
from repro.chaos.recorder import BlackBoxTrace, FlightRecorder
from repro.faults.injectors import FaultInjector
from repro.sim.ensemble import EnsembleFlightSimulator, LaneSim
from repro.sim.simulator import DroneModel, FlightSimulator

#: The airframe every fault mission flies: the paper's 450 mm reference
#: quad on a 3S 3000 mAh pack.
DEFAULT_MODEL = dict(
    mass_kg=1.071,
    wheelbase_mm=450.0,
    battery_cells=3,
    battery_capacity_mah=3000.0,
)
HEARTBEAT_PERIOD_S = 1.0

#: Trial verdicts, ordered by severity.
VERDICT_SAFE = "safe"
VERDICT_VIOLATION = "violation"
VERDICT_CRASH = "crash"


@dataclass(frozen=True)
class TrialResult:
    """Outcome of one chaos trial (deterministic in its spec + config)."""

    spec: TrialSpec
    verdict: str
    violation: Optional[Violation]
    final_failsafe: str
    final_mode: str
    mission_completion: float
    recovery_time_s: Optional[float]
    min_soc: float
    landed: bool
    fault_kinds: Tuple[str, ...]
    violation_count: int
    trace: Optional[BlackBoxTrace]

    @property
    def failed(self) -> bool:
        return self.verdict != VERDICT_SAFE

    @property
    def violated_invariant(self) -> Optional[str]:
        return None if self.violation is None else self.violation.invariant

    def metrics(self) -> Tuple:
        """The determinism fingerprint replayed trials must reproduce
        exactly (verdict, attribution, and every outcome metric)."""
        return (
            self.spec.campaign_seed,
            self.spec.trial_index,
            self.verdict,
            self.violation,
            self.final_failsafe,
            self.final_mode,
            self.mission_completion,
            self.recovery_time_s,
            self.min_soc,
            self.landed,
            self.fault_kinds,
            self.violation_count,
        )


def _square_mission(half_extent_m: float, altitude_m: float) -> List[MissionItem]:
    """The shared mission: a square around home."""
    corners = (
        (half_extent_m, 0.0, altitude_m),
        (half_extent_m, half_extent_m, altitude_m),
        (0.0, half_extent_m, altitude_m),
        (0.0, 0.0, altitude_m),
    )
    return [MissionItem(np.asarray(corner, dtype=float)) for corner in corners]


def _recovery_time_s(autopilot: Autopilot, spec: TrialSpec) -> Optional[float]:
    """Time from first fault onset to the first ladder reaction."""
    onset_s = spec.schedule.first_fault_s
    if math.isinf(onset_s):
        return None
    for time_s, text in autopilot.events:
        if time_s + 1e-9 >= onset_s and (
            text.startswith("FAILSAFE") or text.startswith("DEGRADED")
        ):
            return time_s - onset_s
    return None


class MissionHarness:
    """One trial's control-flow state, wrapped around one simulator.

    ``sim`` is a scalar :class:`FlightSimulator` or an ensemble lane; the
    lane facade exposes the full simulator surface the autopilot, injector
    and monitor read and write.
    """

    def __init__(
        self,
        spec: TrialSpec,
        config: CampaignConfig,
        sim: Union[FlightSimulator, LaneSim],
    ):
        self.spec = spec
        self.sim = sim
        self.link = Link(seed=spec.link_seed)
        self.autopilot = Autopilot(cast(FlightSimulator, sim), link=self.link)
        if spec.offload:
            self.autopilot.pose_watchdog = PoseStalenessWatchdog()
        self.injector = FaultInjector(self.autopilot, spec.schedule)
        self.monitor = SafetyMonitor(
            self.autopilot,
            spec.schedule,
            limits=config.limits,
            envelope=config.envelope,
        )
        self.recorder = FlightRecorder(maxlen=config.recorder_maxlen)
        self.min_soc = sim.battery.state_of_charge
        self.next_heartbeat_s = 0.0
        self.alive = True

    @property
    def attached(self) -> bool:
        """True while the physics steps inside an ensemble."""
        return isinstance(self.sim, LaneSim) and self.sim.attached

    def pre(self) -> None:
        """The tick's work before the physics burst."""
        now = self.sim.time_s
        self.injector.apply(now)
        if self.spec.heartbeats and now + 1e-9 >= self.next_heartbeat_s:
            self.next_heartbeat_s = now + HEARTBEAT_PERIOD_S
            self.link.send(MessageType.HEARTBEAT)
        if self.spec.offload and not self.injector.offload_blocked(now):
            self.autopilot.pose_watchdog.note_pose(now)
        self.autopilot._update_pre()

    def post(self) -> None:
        """The tick's work after the physics burst."""
        self.autopilot._update_post()
        self.min_soc = min(self.min_soc, self.sim.battery.state_of_charge)
        self.monitor.check(self.sim.time_s)
        self.recorder.record(self.autopilot, self.monitor.active_fault_names())
        self.alive = not self.monitor.crashed

    def judge(self) -> TrialResult:
        """The trial verdict, its outcome metrics and, on failure, its
        black-box trace."""
        autopilot = self.autopilot
        monitor = self.monitor
        spec = self.spec
        if monitor.crashed:
            verdict = VERDICT_CRASH
        elif monitor.violations:
            verdict = VERDICT_VIOLATION
        else:
            verdict = VERDICT_SAFE
        trace: Optional[BlackBoxTrace] = None
        if verdict != VERDICT_SAFE:
            trace = BlackBoxTrace(
                campaign_seed=spec.campaign_seed,
                trial_index=spec.trial_index,
                link_seed=spec.link_seed,
                verdict=verdict,
                schedule=spec.schedule,
                violation=monitor.first_violation,
                events=tuple(autopilot.events),
                ticks=list(self.recorder.ticks),
                dropped_ticks=self.recorder.dropped_ticks,
            )
        return TrialResult(
            spec=spec,
            verdict=verdict,
            violation=monitor.first_violation,
            final_failsafe=autopilot.failsafe.name,
            final_mode=autopilot.mode.value,
            mission_completion=autopilot.mission_progress,
            recovery_time_s=_recovery_time_s(autopilot, spec),
            min_soc=self.min_soc,
            landed=float(self.sim.body.state.position_m[2]) < 0.3,
            fault_kinds=tuple(
                sorted({event.kind.value for event in spec.schedule.events})
            ),
            violation_count=len(monitor.violations),
            trace=trace,
        )


def _tick(
    harnesses: Sequence[MissionHarness],
    step_s: float,
    ensemble: Optional[EnsembleFlightSimulator],
) -> None:
    """One control tick across every live harness."""
    for harness in harnesses:
        if harness.alive:
            harness.pre()
    if ensemble is not None and any(h.alive and h.attached for h in harnesses):
        ensemble.run_for(step_s)
    for harness in harnesses:
        if harness.alive and not harness.attached:
            harness.sim.run_for(step_s)
    for index, harness in enumerate(harnesses):
        if harness.alive:
            harness.post()
            if ensemble is not None and not harness.alive and harness.attached:
                ensemble.freeze_lane(index)


def fly(
    harnesses: Sequence[MissionHarness],
    config: CampaignConfig,
    ensemble: Optional[EnsembleFlightSimulator] = None,
) -> None:
    """Fly the mission on every harness until ``config.duration_s``.

    With ``ensemble``, harness ``i`` flies lane ``i`` of it and the
    attached lanes share one physics burst per tick; without it, every
    harness steps its own simulator.
    """
    for harness in harnesses:
        harness.autopilot.arm()
        harness.autopilot.takeoff(config.takeoff_altitude_m)
    elapsed_s = 0.0
    while elapsed_s < config.settle_s and any(h.alive for h in harnesses):
        _tick(harnesses, config.control_step_s, ensemble)
        elapsed_s += config.control_step_s
    for harness in harnesses:
        if harness.alive:
            harness.autopilot.upload_mission(
                _square_mission(
                    config.mission_half_extent_m, config.takeoff_altitude_m
                )
            )
            harness.autopilot.set_mode(FlightMode.AUTO)
    while elapsed_s < config.duration_s and any(h.alive for h in harnesses):
        _tick(harnesses, config.control_step_s, ensemble)
        elapsed_s += config.control_step_s


def fly_alone(spec: TrialSpec, config: CampaignConfig) -> MissionHarness:
    """Fly one trial on its own scalar simulator (the oracle engine).

    The trial never shares a lockstep group, so comparing it against an
    ensemble run checks that interleaving trials changes nothing.
    """
    sim = FlightSimulator(
        DroneModel(**DEFAULT_MODEL),
        physics_rate_hz=config.physics_rate_hz,
        use_ekf=spec.use_ekf,
    )
    harness = MissionHarness(spec, config, sim)
    fly([harness], config)
    return harness


def fly_lockstep(
    specs: Sequence[TrialSpec], config: CampaignConfig
) -> List[MissionHarness]:
    """Fly a group of trials that share ``use_ekf`` in lockstep, one lane
    each of one ensemble."""
    use_ekf = specs[0].use_ekf
    if any(spec.use_ekf is not use_ekf for spec in specs):
        raise ValueError("ensemble group must share use_ekf")
    ensemble = EnsembleFlightSimulator(
        DroneModel(**DEFAULT_MODEL),
        len(specs),
        physics_rate_hz=config.physics_rate_hz,
        use_ekf=use_ekf,
    )
    harnesses = [
        MissionHarness(spec, config, ensemble.lane(index))
        for index, spec in enumerate(specs)
    ]
    fly(harnesses, config, ensemble)
    return harnesses
