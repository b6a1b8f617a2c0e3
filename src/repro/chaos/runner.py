"""Chaos trial runner, parallel campaign execution, and replay harness.

One trial = one closed-loop flight of the shared square mission under a
sampled compound fault schedule, flown through the fault-mission harness
of :mod:`repro.chaos.harness`: watched by the
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
whole group of trials (:func:`ensemble_groups`).  By default a group flies
in lockstep through one vectorized ensemble; :func:`run_trial` flies one
trial alone on a scalar simulator and stays the oracle that replay and
the equivalence tests compare against.  Both engines run the one tick
loop of :func:`repro.chaos.harness.fly`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple, Union

from repro.analysis.markers import pure
from repro.chaos.campaign import (
    EKF_KINDS,
    LINK_KINDS,
    CampaignConfig,
    TrialSpec,
    generate_campaign,
    generate_trial,
)
from repro.chaos.harness import TrialResult, fly_alone, fly_lockstep
from repro.chaos.recorder import BlackBoxTrace
from repro.core.parallel import ParallelSweepRunner, SweepRunnerConfig
from repro.exec.report import ExecState, ExecutionReport, QuarantineRecord
from repro.faults.schedule import FaultKind


@pure
def run_trial(spec: TrialSpec, config: CampaignConfig) -> TrialResult:
    """Fly one chaos trial to completion (or loss) and judge it."""
    return fly_alone(spec, config).judge()


def run_trial_by_index(config: CampaignConfig, trial_index: int) -> TrialResult:
    """Regenerate and fly one trial from its campaign identity alone."""
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

    ``"ensemble"`` steps the whole group in lockstep through one
    :class:`~repro.sim.ensemble.EnsembleFlightSimulator`; ``"scalar"``
    flies it trial by trial with :func:`run_trial`.
    """
    group, config, engine = item
    specs = [spec for _, spec in group]
    if engine == "ensemble":
        results = [harness.judge() for harness in fly_lockstep(specs, config)]
    else:
        results = [run_trial(spec, config) for spec in specs]
    return [(index, result) for (index, _), result in zip(group, results)]


def run_trials_ensemble(
    specs: Sequence[TrialSpec],
    config: CampaignConfig,
    ensemble_width: Optional[int] = None,
) -> List[TrialResult]:
    """Fly ``specs`` through ensemble groups, in this process; results in
    input order.

    Specs are split by :func:`ensemble_groups` (``ensemble_width`` caps
    the lanes per group) and each group flies in lockstep through one
    ensemble.  Every result is fingerprint-identical to :func:`run_trial`
    on the same ``(spec, config)``.
    """
    by_index = dict(
        pair
        for group in ensemble_groups(specs, width=ensemble_width)
        for pair in _fly_group((group, config, "ensemble"))
    )
    return [by_index[index] for index in range(len(specs))]


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
    :func:`run_trials_ensemble`; ``engine="scalar"``
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
