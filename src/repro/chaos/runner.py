"""Chaos trial runner, parallel campaign execution, and replay harness.

One trial = one closed-loop flight of the shared square mission under a
sampled compound fault schedule, watched by the
:class:`~repro.chaos.invariants.SafetyMonitor` and recorded by the
:class:`~repro.chaos.recorder.FlightRecorder`.  The runner's contract is
strict determinism: a :class:`TrialResult` is a pure function of
``(TrialSpec, CampaignConfig)``, which is what lets
:func:`replay_trial` re-fly any failure from its recorded ``(seed,
schedule)`` tuple and assert bit-for-bit equality of verdicts and metrics.

:func:`run_campaign` fans trials out with :class:`repro.core.parallel
.ParallelSweepRunner` — the same supervised, deterministic-chunking pool
the design-space sweeps use — so a multi-hundred-trial campaign saturates
the machine without giving up input-order results.  Each work item is a
whole group of trials (:func:`ensemble_groups`), flown by
:mod:`repro.chaos.ensemble` by default; :func:`run_trial` stays the scalar
oracle that replay and the equivalence tests compare against.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.analysis.markers import pure
from repro.autopilot.arducopter import Autopilot, FlightMode, MissionItem
from repro.autopilot.mavlink import Link, MessageType
from repro.autopilot.offload import PoseStalenessWatchdog
from repro.chaos.campaign import CampaignConfig, TrialSpec, generate_campaign
from repro.chaos.invariants import SafetyMonitor, Violation
from repro.chaos.recorder import BlackBoxTrace, FlightRecorder
from repro.core.parallel import ParallelSweepRunner, SweepRunnerConfig
from repro.exec.report import ExecState, ExecutionReport, QuarantineRecord
from repro.faults.injectors import FaultInjector
from repro.faults.scenarios import DEFAULT_MODEL, HEARTBEAT_PERIOD_S
from repro.sim.simulator import DroneModel, FlightSimulator

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
    """The campaign's shared mission: a square around home."""
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


@pure
def run_trial(spec: TrialSpec, config: CampaignConfig) -> TrialResult:
    """Fly one chaos trial to completion (or loss) and judge it."""
    model = DroneModel(**DEFAULT_MODEL)
    sim = FlightSimulator(
        model, physics_rate_hz=config.physics_rate_hz, use_ekf=spec.use_ekf
    )
    link = Link(seed=spec.link_seed)
    autopilot = Autopilot(sim, link=link)
    if spec.offload:
        autopilot.pose_watchdog = PoseStalenessWatchdog()
    injector = FaultInjector(autopilot, spec.schedule)
    monitor = SafetyMonitor(
        autopilot,
        spec.schedule,
        limits=config.limits,
        envelope=config.envelope,
    )
    recorder = FlightRecorder(maxlen=config.recorder_maxlen)

    min_soc = sim.battery.state_of_charge
    next_heartbeat_s = 0.0

    def tick() -> bool:
        """One control cycle; False once a terminal invariant fires."""
        nonlocal min_soc, next_heartbeat_s
        now = sim.time_s
        injector.apply(now)
        if spec.heartbeats and now + 1e-9 >= next_heartbeat_s:
            next_heartbeat_s = now + HEARTBEAT_PERIOD_S
            link.send(MessageType.HEARTBEAT)
        if spec.offload and not injector.offload_blocked(now):
            autopilot.pose_watchdog.note_pose(now)
        autopilot.update(config.control_step_s)
        min_soc = min(min_soc, sim.battery.state_of_charge)
        monitor.check(sim.time_s)
        recorder.record(autopilot, monitor.active_fault_names())
        return not monitor.crashed

    autopilot.arm()
    autopilot.takeoff(config.takeoff_altitude_m)
    elapsed_s = 0.0
    alive = True
    while alive and elapsed_s < config.settle_s:
        alive = tick()
        elapsed_s += config.control_step_s
    if alive:
        autopilot.upload_mission(
            _square_mission(
                config.mission_half_extent_m, config.takeoff_altitude_m
            )
        )
        autopilot.set_mode(FlightMode.AUTO)
        while alive and elapsed_s < config.duration_s:
            alive = tick()
            elapsed_s += config.control_step_s

    if monitor.crashed:
        verdict = VERDICT_CRASH
    elif monitor.violations:
        verdict = VERDICT_VIOLATION
    else:
        verdict = VERDICT_SAFE
    altitude_m = float(sim.body.state.position_m[2])
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
            ticks=list(recorder.ticks),
            dropped_ticks=recorder.dropped_ticks,
        )
    return TrialResult(
        spec=spec,
        verdict=verdict,
        violation=monitor.first_violation,
        final_failsafe=autopilot.failsafe.name,
        final_mode=autopilot.mode.value,
        mission_completion=autopilot.mission_progress,
        recovery_time_s=_recovery_time_s(autopilot, spec),
        min_soc=min_soc,
        landed=altitude_m < 0.3,
        fault_kinds=tuple(
            sorted({event.kind.value for event in spec.schedule.events})
        ),
        violation_count=len(monitor.violations),
        trace=trace,
    )


def run_trial_by_index(config: CampaignConfig, trial_index: int) -> TrialResult:
    """Regenerate and fly one trial from its campaign identity alone."""
    from repro.chaos.campaign import generate_trial

    return run_trial(generate_trial(config, trial_index), config)


def replay_trial(
    source: Union["TrialResult", BlackBoxTrace, TrialSpec],
    config: CampaignConfig,
) -> TrialResult:
    """Re-fly a trial from its recorded ``(seed, schedule)`` tuple.

    Accepts a prior result, a black-box trace loaded from disk, or a bare
    spec; the replay is a fresh closed-loop flight, so comparing its
    :meth:`TrialResult.metrics` against the original is a true end-to-end
    determinism check, not a cache read.
    """
    if isinstance(source, TrialResult):
        spec = source.spec
    elif isinstance(source, BlackBoxTrace):
        spec = _spec_from_trace(source)
    else:
        spec = source
    return run_trial(spec, config)


def _spec_from_trace(trace: BlackBoxTrace) -> TrialSpec:
    """Rebuild the trial spec a trace was flown under.

    Harness flags are re-derived from the schedule's kinds — the same rule
    the campaign generator applied — so the trace file alone suffices.
    """
    from repro.chaos.campaign import EKF_KINDS, LINK_KINDS
    from repro.faults.schedule import FaultKind

    kinds = {event.kind for event in trace.schedule.events}
    return TrialSpec(
        campaign_seed=trace.campaign_seed,
        trial_index=trace.trial_index,
        link_seed=trace.link_seed,
        schedule=trace.schedule,
        use_ekf=any(kind in kinds for kind in EKF_KINDS),
        heartbeats=any(kind in kinds for kind in LINK_KINDS),
        offload=FaultKind.OFFLOAD_STALL in kinds,
    )


def verify_replay(result: TrialResult, config: CampaignConfig) -> bool:
    """True when replaying ``result`` reproduces it bit-for-bit."""
    replayed = replay_trial(result, config)
    if replayed.metrics() != result.metrics():
        return False
    if (result.trace is None) != (replayed.trace is None):
        return False
    if result.trace is not None and replayed.trace is not None:
        return replayed.trace.fingerprint() == result.trace.fingerprint()
    return True


#: One ensemble group: its trials with their original campaign indices.
EnsembleGroup = Tuple[Tuple[int, TrialSpec], ...]


def ensemble_groups(
    specs: Sequence[TrialSpec],
    workers: int = 1,
    width: Optional[int] = None,
) -> List[EnsembleGroup]:
    """Split trials into ensemble groups, each flown by one ensemble.

    Groups are uniform in ``use_ekf`` (the one per-ensemble constant) and
    carry their trials' original indices, so results can be restored to
    trial order after a parallel map.  Each ``use_ekf`` partition is split
    into the fewest groups of balanced size (sizes differ by at most one)
    such that there are at least ``workers`` groups when there are that
    many trials: a group's fixed per-step cost dominates its per-lane
    cost (``BENCH_ensemble.json``'s width curve), so fewer, wider groups
    win.  Extra groups go to the partition whose groups are widest.
    ``width``, when given, caps the lanes per group.
    """
    if workers <= 0:
        raise ValueError(f"workers must be positive: {workers}")
    if width is not None and width <= 0:
        raise ValueError(f"ensemble width must be positive: {width}")
    partitions = [
        [(index, spec) for index, spec in enumerate(specs) if spec.use_ekf is flag]
        for flag in (False, True)
    ]
    partitions = [part for part in partitions if part]
    counts = [
        1 if width is None else -(-len(part) // width) for part in partitions
    ]
    while sum(counts) < workers:
        splittable = [
            k for k, part in enumerate(partitions) if counts[k] < len(part)
        ]
        if not splittable:
            break
        widest = max(
            splittable, key=lambda k: -(-len(partitions[k]) // counts[k])
        )
        counts[widest] += 1
    groups: List[EnsembleGroup] = []
    for part, count in zip(partitions, counts):
        base, extra = divmod(len(part), count)
        start = 0
        for group in range(count):
            size = base + (1 if group < extra else 0)
            groups.append(tuple(part[start : start + size]))
            start += size
    return groups


def _fly_group(
    item: Tuple[EnsembleGroup, CampaignConfig, str],
) -> List[Tuple[int, TrialResult]]:
    """Module-level worker entry point: fly one group on one engine.

    ``"ensemble"`` steps the whole group through
    :func:`repro.chaos.ensemble.run_trials_ensemble`; ``"scalar"`` flies
    it trial by trial with :func:`run_trial`.
    """
    group, config, engine = item
    specs = [spec for _, spec in group]
    if engine == "ensemble":
        from repro.chaos.ensemble import run_trials_ensemble

        results = run_trials_ensemble(specs, config)
    else:
        results = [run_trial(spec, config) for spec in specs]
    return [(index, result) for (index, _), result in zip(group, results)]


def _check_engine(engine: str) -> None:
    if engine not in ("scalar", "ensemble"):
        raise ValueError(
            f"unknown campaign engine {engine!r} "
            "(expected 'scalar' or 'ensemble')"
        )


@dataclass
class CampaignRun:
    """A campaign's surviving trials plus its execution accounting."""

    #: Trial results in trial order; quarantined trials are absent here
    #: and listed in :attr:`quarantined` instead.
    results: List[TrialResult]
    #: One record per quarantined trial; ``item_index`` is its trial index.
    quarantined: Tuple[QuarantineRecord, ...]
    execution: ExecutionReport


def run_campaign(
    config: CampaignConfig,
    runner_config: Optional[SweepRunnerConfig] = None,
    *,
    journal_path: Optional["os.PathLike[str] | str"] = None,
    engine: str = "ensemble",
    ensemble_width: Optional[int] = None,
) -> CampaignRun:
    """Fly the whole campaign; results come back in trial order.

    The trials are split into :func:`ensemble_groups` (``ensemble_width``
    caps their size) and mapped one group per chunk through
    :class:`repro.core.parallel.ParallelSweepRunner`, i.e. the supervised
    pool of :mod:`repro.exec`, so inline (``max_workers=1``, the default)
    and parallel runs return identical results.  ``engine="ensemble"``
    flies each group in lockstep through
    :func:`repro.chaos.ensemble.run_trials_ensemble`; ``engine="scalar"``
    flies it trial by trial with :func:`run_trial`.  Results are
    fingerprint-identical across engines (the contract
    :func:`verify_replay` checks); the ensemble is just faster.

    ``runner_config.policy`` governs supervision: worker deaths and hangs
    are retried, and a group that fails every retry is re-flown trial by
    trial on the scalar engine so that only its poison trial is
    quarantined (listed in :attr:`CampaignRun.quarantined`, absent from
    :attr:`CampaignRun.results`).  With ``journal_path`` every completed
    group is checkpointed, so a killed campaign resumes from the journal
    with results bit-for-bit identical to an uninterrupted run; the
    grouping depends on the worker count, so resume with the same one.
    Re-flights are not journaled: a resumed campaign restores a
    quarantined group from the journal and re-flies it again.
    """
    _check_engine(engine)
    specs = generate_campaign(config)
    # A group is already a batch: packing several into one pool chunk
    # would leave workers idle.
    group_config = replace(
        runner_config or SweepRunnerConfig(max_workers=1), chunk_size=1
    )
    groups = ensemble_groups(specs, group_config.resolved_workers, ensemble_width)
    runner = ParallelSweepRunner(group_config)
    raw = runner.map(
        _fly_group,
        [(group, config, engine) for group in groups],
        journal=journal_path,
    )
    report = runner.last_report
    assert report is not None
    batches = [batch for batch in raw if isinstance(batch, list)]
    # Quarantined groups come back as failure codes, not result lists.
    poisoned = [
        (chunk_id, spec)
        for chunk_id, (group, batch) in enumerate(zip(groups, raw))
        if not isinstance(batch, list)
        for _, spec in group
    ]
    if poisoned:
        batches.append(_refly_poisoned(poisoned, config, group_config, report))
    by_index = dict(pair for batch in batches for pair in batch)
    return CampaignRun(
        results=[by_index[index] for index in sorted(by_index)],
        quarantined=tuple(report.quarantined),
        execution=report,
    )


def _refly_poisoned(
    poisoned: List[Tuple[int, TrialSpec]],
    config: CampaignConfig,
    group_config: SweepRunnerConfig,
    report: ExecutionReport,
) -> List[Tuple[int, TrialResult]]:
    """Re-fly quarantined groups' trials one by one on the scalar engine.

    Folds the re-flight's accounting into ``report``, whose group-level
    quarantine records give way to one record per poison trial.
    """
    report.record(
        ExecState.RETRYING,
        f"re-flying {len(poisoned)} trial(s) of quarantined ensemble "
        "group(s) on the scalar engine",
    )
    runner = ParallelSweepRunner(group_config)
    raw = runner.map(
        _fly_group,
        [(((spec.trial_index, spec),), config, "scalar") for _, spec in poisoned],
    )
    refly = runner.last_report
    assert refly is not None
    report.retries += refly.retries
    report.worker_deaths += refly.worker_deaths
    report.hang_kills += refly.hang_kills
    report.probe_crashes += refly.probe_crashes
    report.transitions.extend(refly.transitions)
    report.quarantined[:] = [
        replace(
            record,
            item_index=poisoned[record.item_index][1].trial_index,
            chunk_id=poisoned[record.item_index][0],
        )
        for record in refly.quarantined
    ]
    return [pair for batch in raw if isinstance(batch, list) for pair in batch]
