"""Tests for the fault-tolerant execution layer (:mod:`repro.exec`).

The supervised pool's contract is the serial loop's contract plus
survival: for a deterministic callable, ``SupervisedPool.map`` returns
exactly ``[fn(item) for item in items]`` no matter which workers crash,
hang, or dawdle along the way — with poison items quarantined as
structured failure codes rather than aborting, and with checkpoint/resume
reproducing an uninterrupted run bit-for-bit.

Faults are injected with the package's own self-chaos harness
(:mod:`repro.exec.faultsim`), so every scenario here exercises real
worker processes (or the real inline fallback), not mocks.  The
``TestInline*`` classes are the hermetic tier-1 subset: ``workers=1``
plus simulated faults, no subprocesses.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.core.parallel import ParallelSweepRunner, SweepRunnerConfig
from repro.exec.errors import (
    ChunkExecutionError,
    JournalMismatchError,
    WorkerCrashError,
)
from repro.exec.faultsim import (
    DIE_EXIT_CODE,
    FAULT_CRASH,
    FAULT_DIE,
    FAULT_FLAKY,
    FAULT_HANG,
    FAULT_SLOW,
    FaultyCallable,
    WorkerFault,
    WorkerFaultSpec,
    stable_item_key,
)
from repro.exec.journal import CheckpointJournal, fingerprint_value
from repro.exec.policy import ExecutionPolicy
from repro.exec.report import ExecState
from repro.exec.supervised import (
    ExecutionOutcome,
    QuarantinedItem,
    SupervisedPool,
)

# -- module-level callables (workers must be able to unpickle them) --------


def _times_ten(value: int) -> int:
    return value * 10


def _slow_times_ten(value: int) -> int:
    time.sleep(0.25)
    return value * 10


def _die_hard(value: int) -> int:
    os._exit(3)


ITEMS = list(range(10))
SERIAL = [_times_ten(item) for item in ITEMS]

#: Fast-retry policy so fault scenarios stay inside the test budget.
FAST = dict(backoff_base_s=0.01, backoff_cap_s=0.05, poll_interval_s=0.02)


def _pool(tmp_path, **kwargs) -> SupervisedPool:
    kwargs.setdefault("policy", ExecutionPolicy(**FAST))
    return SupervisedPool(**kwargs)


# -- hermetic tier-1 subset: inline execution + simulated faults -----------


class TestInlineSupervision:
    def test_matches_serial_loop(self, tmp_path):
        outcome = SupervisedPool(workers=1, chunk_size=3).map(
            _times_ten, ITEMS
        )
        assert outcome.results == SERIAL
        assert outcome.report.chunks_total == 4
        assert outcome.report.chunks_completed == 4
        assert outcome.report.state == ExecState.INLINE.value

    def test_empty_items(self):
        outcome = SupervisedPool(workers=1).map(_times_ten, [])
        assert outcome.results == []
        assert outcome.report.chunks_total == 0

    def test_flaky_item_retried_to_serial_equality(self, tmp_path):
        faulty = FaultyCallable(
            _times_ten,
            {6: WorkerFaultSpec(FAULT_CRASH, until_attempt=1)},
            tmp_path,
        )
        outcome = _pool(tmp_path, workers=1).map(faulty, ITEMS)
        assert outcome.results == SERIAL
        assert outcome.report.retries >= 1
        assert not outcome.report.quarantined

    def test_poison_item_quarantined_not_aborted(self, tmp_path):
        faulty = FaultyCallable(
            _times_ten, {4: WorkerFaultSpec(FAULT_CRASH)}, tmp_path
        )
        policy = ExecutionPolicy(max_attempts=2, **FAST)
        outcome = SupervisedPool(workers=1, chunk_size=4, policy=policy).map(
            faulty, ITEMS
        )
        # Survivors are bit-for-bit the serial loop's values...
        for index, value in enumerate(outcome.results):
            if index == 4:
                continue
            assert value == SERIAL[index]
        # ...and the poison slot is a structured failure code.
        sentinel = outcome.results[4]
        assert isinstance(sentinel, QuarantinedItem)
        assert sentinel.item_index == 4
        assert sentinel.error_type == "WorkerFault"
        report = outcome.report.quarantine_report()
        assert report.item_indices == (4,)
        assert report.records[0].attempts == policy.max_attempts

    def test_quarantine_disabled_reraises(self, tmp_path):
        faulty = FaultyCallable(
            _times_ten, {4: WorkerFaultSpec(FAULT_CRASH)}, tmp_path
        )
        policy = ExecutionPolicy(max_attempts=1, quarantine=False, **FAST)
        with pytest.raises(WorkerFault) as excinfo:
            SupervisedPool(workers=1, policy=policy).map(faulty, ITEMS)
        assert excinfo.value.sweep_item_index == 4

    def test_seeded_flaky_fault_is_reproducible(self, tmp_path):
        spec = WorkerFaultSpec(FAULT_FLAKY, probability=0.5)
        first_dir = tmp_path / "a"
        second_dir = tmp_path / "b"
        first_dir.mkdir()
        second_dir.mkdir()
        outcomes = []
        for state_dir in (first_dir, second_dir):
            faulty = FaultyCallable(
                _times_ten, {3: spec}, state_dir, seed=2021
            )
            pattern = []
            for _ in range(6):
                try:
                    faulty(3)
                    pattern.append("ok")
                except WorkerFault:
                    pattern.append("fault")
            outcomes.append(pattern)
        assert outcomes[0] == outcomes[1]
        assert "ok" in outcomes[0] and "fault" in outcomes[0]


class TestInlineJournal:
    def test_resume_is_bit_for_bit(self, tmp_path):
        journal_path = tmp_path / "journal.jsonl"
        uninterrupted = SupervisedPool(workers=1, chunk_size=4).map(
            _times_ten, ITEMS
        )
        full = SupervisedPool(
            workers=1, chunk_size=4, journal=journal_path
        ).map(_times_ten, ITEMS)
        assert full.results == uninterrupted.results

        # Simulate a mid-run kill: keep the header and the first completed
        # chunk, drop the rest (exactly what a SIGKILL after the first
        # fsync'd append leaves behind).
        lines = journal_path.read_text().splitlines(keepends=True)
        journal_path.write_text("".join(lines[:2]))
        resumed = SupervisedPool(
            workers=1, chunk_size=4, journal=journal_path
        ).map(_times_ten, ITEMS)
        assert resumed.results == uninterrupted.results
        assert resumed.report.chunks_resumed == 1
        assert resumed.report.chunks_completed == 2

    def test_resumed_chunks_do_not_rerun(self, tmp_path):
        journal_path = tmp_path / "journal.jsonl"
        clean = FaultyCallable(_times_ten, {}, tmp_path)
        SupervisedPool(workers=1, chunk_size=5, journal=journal_path).map(
            clean, ITEMS
        )
        # Same wrapper type and items -> same run fingerprint, but now
        # every item is poison.  A resume that re-ran anything would
        # quarantine it; the journal makes the faults unreachable.
        poisoned = FaultyCallable(
            _times_ten,
            {item: WorkerFaultSpec(FAULT_CRASH) for item in ITEMS},
            tmp_path,
        )
        outcome = SupervisedPool(
            workers=1, chunk_size=5, journal=journal_path
        ).map(poisoned, ITEMS)
        assert outcome.results == SERIAL
        assert outcome.report.chunks_resumed == 2
        assert not outcome.report.quarantined

    def test_truncated_final_line_tolerated(self, tmp_path):
        journal_path = tmp_path / "journal.jsonl"
        SupervisedPool(workers=1, chunk_size=4, journal=journal_path).map(
            _times_ten, ITEMS
        )
        with open(journal_path, "a", encoding="utf-8") as handle:
            handle.write('{"chunk_id": 99, "fingerprint": "dead')  # no newline
        resumed = SupervisedPool(
            workers=1, chunk_size=4, journal=journal_path
        ).map(_times_ten, ITEMS)
        assert resumed.results == SERIAL
        assert resumed.report.chunks_resumed == 3

    def test_foreign_journal_rejected(self, tmp_path):
        journal_path = tmp_path / "journal.jsonl"
        SupervisedPool(workers=1, chunk_size=4, journal=journal_path).map(
            _times_ten, ITEMS
        )
        with pytest.raises(JournalMismatchError):
            # Different chunking -> different run fingerprint.
            SupervisedPool(
                workers=1, chunk_size=3, journal=journal_path
            ).map(_times_ten, ITEMS)

    def test_quarantine_survives_resume(self, tmp_path):
        journal_path = tmp_path / "journal.jsonl"
        faulty = FaultyCallable(
            _times_ten, {4: WorkerFaultSpec(FAULT_CRASH)}, tmp_path
        )
        policy = ExecutionPolicy(max_attempts=1, **FAST)
        first = SupervisedPool(
            workers=1, chunk_size=4, policy=policy, journal=journal_path
        ).map(faulty, ITEMS)
        assert first.report.quarantine_report().item_indices == (4,)
        resumed = SupervisedPool(
            workers=1, chunk_size=4, policy=policy, journal=journal_path
        ).map(faulty, ITEMS)
        assert resumed.results == first.results
        assert resumed.report.chunks_resumed == 3
        assert resumed.report.quarantine_report().item_indices == (4,)


# -- real worker processes -------------------------------------------------


class TestSupervisedProcesses:
    def test_matches_serial_loop(self, tmp_path):
        outcome = _pool(tmp_path, workers=2, chunk_size=3).map(
            _times_ten, ITEMS
        )
        assert outcome.results == SERIAL
        assert outcome.report.worker_deaths == 0

    def test_worker_death_retried(self, tmp_path):
        faulty = FaultyCallable(
            _times_ten,
            {7: WorkerFaultSpec(FAULT_DIE, until_attempt=1)},
            tmp_path,
        )
        outcome = _pool(tmp_path, workers=2, chunk_size=2).map(faulty, ITEMS)
        assert outcome.results == SERIAL
        assert outcome.report.worker_deaths >= 1
        assert outcome.report.retries >= 1
        assert not outcome.report.quarantined

    def test_poison_worker_killer_quarantined_by_bisection(self, tmp_path):
        faulty = FaultyCallable(
            _times_ten, {5: WorkerFaultSpec(FAULT_DIE)}, tmp_path
        )
        policy = ExecutionPolicy(max_attempts=2, inline_after=20, **FAST)
        outcome = SupervisedPool(workers=2, chunk_size=4, policy=policy).map(
            faulty, ITEMS
        )
        report = outcome.report.quarantine_report()
        assert report.item_indices == (5,)
        assert outcome.report.probe_crashes >= 1
        assert isinstance(outcome.results[5], QuarantinedItem)
        for index, value in enumerate(outcome.results):
            if index != 5:
                assert value == SERIAL[index]

    def test_hang_killed_and_retried(self, tmp_path):
        faulty = FaultyCallable(
            _times_ten,
            {3: WorkerFaultSpec(FAULT_HANG, until_attempt=1, delay_s=60.0)},
            tmp_path,
        )
        policy = ExecutionPolicy(chunk_timeout_s=1.0, **FAST)
        outcome = SupervisedPool(workers=2, chunk_size=2, policy=policy).map(
            faulty, ITEMS
        )
        assert outcome.results == SERIAL
        assert outcome.report.hang_kills >= 1

    def test_slow_items_just_finish(self, tmp_path):
        faulty = FaultyCallable(
            _times_ten,
            {2: WorkerFaultSpec(FAULT_SLOW, delay_s=0.3)},
            tmp_path,
        )
        policy = ExecutionPolicy(chunk_timeout_s=30.0, **FAST)
        outcome = SupervisedPool(workers=2, chunk_size=2, policy=policy).map(
            faulty, ITEMS
        )
        assert outcome.results == SERIAL
        assert outcome.report.hang_kills == 0

    def test_degrades_to_inline_after_repeated_deaths(self, tmp_path):
        faulty = FaultyCallable(
            _times_ten,
            {item: WorkerFaultSpec(FAULT_DIE) for item in ITEMS},
            tmp_path,
        )
        policy = ExecutionPolicy(
            max_attempts=6, degrade_after=1, inline_after=2, **FAST
        )
        outcome = SupervisedPool(workers=4, chunk_size=3, policy=policy).map(
            faulty, ITEMS
        )
        # FAULT_DIE only fires in worker processes, so the inline fallback
        # completes the sweep — degradation instead of failure.
        assert outcome.results == SERIAL
        assert outcome.report.inline_fallback
        assert outcome.report.degradations, "expected a pool-shrink step"
        assert outcome.report.state == ExecState.INLINE.value
        states = [t.state for t in outcome.report.transitions]
        assert states.index(ExecState.DEGRADED.value) < states.index(
            ExecState.INLINE.value
        )


def _live_group_members(pgid: int) -> list:
    """PIDs in process group ``pgid`` that are not zombies.

    Reads ``/proc`` where it exists; elsewhere any group member, zombie or
    not, counts as live.
    """
    if not os.path.isdir("/proc"):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return []
        return [pgid]
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue  # exited while we scanned
        # Fields after the parenthesised command: state, ppid, pgrp, ...
        state, _, pgrp = stat.rsplit(")", 1)[1].split()[:3]
        if int(pgrp) == pgid and state != "Z":
            members.append(int(entry))
    return members


class TestSigkillResume:
    def test_process_sigkill_then_resume(self, tmp_path):
        """SIGKILL the whole supervisor mid-run; resume must be bit-for-bit.

        The driver leads its own process group, so the kill takes its pool
        workers with it instead of leaving them orphaned and sleeping.
        """
        journal_path = tmp_path / "journal.jsonl"
        repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(repo_root, "src"), repo_root]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        driver = (
            "import sys\n"
            "from repro.exec.supervised import SupervisedPool\n"
            "from tests.test_exec_supervised import _slow_times_ten, ITEMS\n"
            "pool = SupervisedPool(workers=2, chunk_size=1,"
            " journal=sys.argv[1])\n"
            "pool.map(_slow_times_ten, ITEMS)\n"
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", driver, str(journal_path)],
            cwd=repo_root,
            env=env,
            start_new_session=True,
        )
        try:
            # Wait until at least one chunk is durably journaled, then kill.
            deadline = time.time() + 30.0
            while time.time() < deadline:
                _, entries = CheckpointJournal(journal_path).load()
                if entries or proc.poll() is not None:
                    break
                time.sleep(0.05)
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass  # the whole group already exited
            proc.wait(timeout=30)
        deadline = time.time() + 10.0
        while _live_group_members(proc.pid) and time.time() < deadline:
            time.sleep(0.05)
        assert _live_group_members(proc.pid) == [], "pool workers survived"
        _, entries = CheckpointJournal(journal_path).load()
        assert entries, "driver was killed before journaling any chunk"

        resumed = SupervisedPool(
            workers=2, chunk_size=1, journal=journal_path
        ).map(_slow_times_ten, ITEMS)
        assert resumed.results == SERIAL
        assert resumed.report.chunks_resumed >= 1


# -- chaos campaign checkpoint/resume --------------------------------------


class TestChaosCampaignResume:
    def test_killed_campaign_resumes_bit_for_bit(self, tmp_path):
        from repro.chaos.campaign import CampaignConfig
        from repro.chaos.runner import run_campaign

        config = CampaignConfig(campaign_seed=404, trials=3, duration_s=8.0)
        runner_config = SweepRunnerConfig(max_workers=1)
        expected = run_campaign(config, runner_config, engine="scalar").results

        journal_path = tmp_path / "campaign.jsonl"
        # ensemble_width=1: one trial per group, so one journal entry each.
        full = run_campaign(
            config, runner_config, journal_path=journal_path,
            engine="scalar", ensemble_width=1,
        )
        assert len(full.results) == len(expected)

        # Kill the run after its first journaled chunk and resume.
        lines = journal_path.read_text().splitlines(keepends=True)
        assert len(lines) == 1 + config.trials  # header + one entry per trial
        journal_path.write_text("".join(lines[:2]))
        resumed = run_campaign(
            config, runner_config, journal_path=journal_path,
            engine="scalar", ensemble_width=1,
        )
        assert resumed.execution is not None
        assert resumed.execution.chunks_resumed == 1
        assert not resumed.quarantined
        for got, want in zip(resumed.results, expected):
            assert got.spec == want.spec
            assert got.verdict == want.verdict
            assert got.metrics() == want.metrics()
            if want.trace is not None:
                assert got.trace is not None
                assert got.trace.fingerprint() == want.trace.fingerprint()

    def test_killed_ensemble_campaign_resumes_bit_for_bit(self, tmp_path):
        from repro.chaos.campaign import CampaignConfig
        from repro.chaos.runner import run_campaign

        config = CampaignConfig(campaign_seed=6, trials=4, duration_s=6.5)
        runner_config = SweepRunnerConfig(max_workers=1)
        expected = run_campaign(config, runner_config, engine="scalar").results

        journal_path = tmp_path / "campaign.jsonl"
        full = run_campaign(config, runner_config, journal_path=journal_path)
        assert full.execution is not None
        groups = full.execution.chunks_total
        assert groups == 2  # one ensemble group per use_ekf partition

        lines = journal_path.read_text().splitlines(keepends=True)
        assert len(lines) == 1 + groups
        journal_path.write_text("".join(lines[:2]))
        resumed = run_campaign(config, runner_config, journal_path=journal_path)
        assert resumed.execution is not None
        assert resumed.execution.chunks_resumed == 1
        assert not resumed.quarantined
        assert [r.metrics() for r in resumed.results] == [
            r.metrics() for r in expected
        ]
        for got, want in zip(resumed.results, expected):
            assert (got.trace is None) == (want.trace is None)
            if want.trace is not None:
                assert got.trace.fingerprint() == want.trace.fingerprint()

    @pytest.mark.parametrize("engine", ("ensemble", "scalar"))
    def test_poisoned_group_quarantines_only_its_poison_trial(
        self, tmp_path, monkeypatch, engine
    ):
        """A group failing every retry is re-flown trial by trial."""
        from repro.chaos import runner
        from repro.chaos.campaign import CampaignConfig

        config = CampaignConfig(campaign_seed=6, trials=4, duration_s=6.5)
        expected = runner.run_campaign(config, engine="scalar").results
        poison = _poison_trial(config)
        fault = FaultyCallable(
            _identity, {poison: WorkerFaultSpec(FAULT_CRASH)}, tmp_path
        )
        monkeypatch.setattr(
            runner, "_fly_group", _FaultOnTrial(runner._fly_group, fault)
        )
        run = runner.run_campaign(
            config,
            SweepRunnerConfig(
                max_workers=1, policy=ExecutionPolicy(backoff_base_s=0.0)
            ),
            engine=engine,
        )
        assert [record.item_index for record in run.quarantined] == [poison]
        assert run.quarantined[0].error_type == "WorkerFault"
        survivors = [r for r in expected if r.spec.trial_index != poison]
        assert [r.metrics() for r in run.results] == [
            r.metrics() for r in survivors
        ]
        assert run.execution is not None
        assert any(
            "scalar engine" in t.reason for t in run.execution.transitions
        )


class TestChaosCliSupervision:
    """Supervision flags apply to every CLI campaign, not just --checkpoint."""

    ARGV = ["--seed", "6", "--trials", "4", "--duration", "6.5"]

    def test_chunk_timeout_reaches_the_policy(self, monkeypatch):
        from repro.chaos import __main__ as cli

        real_run_campaign = cli.run_campaign
        seen = []

        def spy(config, runner_config, **kwargs):
            seen.append(runner_config.policy)
            return real_run_campaign(config, runner_config, **kwargs)

        monkeypatch.setattr(cli, "run_campaign", spy)
        argv = self.ARGV + ["--inline", "--chunk-timeout", "120"]
        assert cli.main(argv) == 0
        assert [policy.chunk_timeout_s for policy in seen] == [120.0]

    def test_poison_trial_quarantined_without_checkpoint(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.chaos import __main__ as cli
        from repro.chaos import runner
        from repro.chaos.campaign import CampaignConfig

        poison = _poison_trial(
            CampaignConfig(campaign_seed=6, trials=4, duration_s=6.5)
        )
        fault = FaultyCallable(
            _identity, {poison: WorkerFaultSpec(FAULT_CRASH)}, tmp_path
        )
        monkeypatch.setattr(
            runner, "_fly_group", _FaultOnTrial(runner._fly_group, fault)
        )
        output = tmp_path / "out"
        argv = self.ARGV + ["--inline", "--output", str(output)]
        assert cli.main(argv) == 0
        err = capsys.readouterr().err
        assert f"QUARANTINED trial {poison}: WorkerFault" in err
        report = json.loads((output / "campaign.json").read_text())
        assert report["trials"] == 3
        assert not (output / "execution.json").exists()

    def test_resume_under_other_worker_count_is_a_usage_error(
        self, tmp_path, capsys
    ):
        from repro.chaos.__main__ import main

        journal = tmp_path / "journal.jsonl"
        assert main(self.ARGV + ["--inline", "--checkpoint", str(journal)]) == 0
        written = journal.read_text()
        argv = self.ARGV + [
            "--workers", "4", "--checkpoint", str(journal), "--resume",
        ]
        assert main(argv) == 2
        assert "same --workers/--inline" in capsys.readouterr().err
        assert journal.read_text() == written


def _poison_trial(config):
    """The second trial of the campaign's widest inline group."""
    from repro.chaos.campaign import generate_campaign
    from repro.chaos.runner import ensemble_groups

    group = max(ensemble_groups(generate_campaign(config)), key=len)
    assert len(group) >= 2
    return group[1][0]


def _identity(value):
    return value


class _FaultOnTrial:
    """A campaign work-item callable whose items fault on one trial.

    ``fault`` is a :class:`FaultyCallable` keyed by trial index; it fires
    for every group that flies the poison trial — a whole group or the
    one-trial group of a re-flight.
    """

    def __init__(self, inner, fault):
        self.inner = inner
        self.fault = fault

    def __call__(self, item):
        group = item[0]
        for index, _ in group:
            self.fault(index)
        return self.inner(item)


# -- bare runner semantics (satellites) ------------------------------------


def _raise_on_three(value: int) -> int:
    if value == 3:
        raise ValueError("three is right out")
    return value


#: The serial loop's semantics: no retries, the first failure propagates.
FAIL_FAST = ExecutionPolicy(max_attempts=1, quarantine=False)


class TestBareRunnerAttribution:
    def test_serial_failure_carries_item_index(self):
        runner = ParallelSweepRunner(
            SweepRunnerConfig(max_workers=1, policy=FAIL_FAST)
        )
        with pytest.raises(ValueError, match="three") as excinfo:
            runner.map(_raise_on_three, [1, 2, 3, 4])
        assert excinfo.value.sweep_item_index == 2

    def test_parallel_failure_carries_item_index(self):
        runner = ParallelSweepRunner(
            SweepRunnerConfig(max_workers=2, chunk_size=2, policy=FAIL_FAST)
        )
        with pytest.raises(ValueError, match="three") as excinfo:
            runner.map(_raise_on_three, [1, 2, 3, 4])
        assert excinfo.value.sweep_item_index == 2

    def test_worker_death_wrapped_in_worker_crash_error(self):
        runner = ParallelSweepRunner(
            SweepRunnerConfig(max_workers=2, chunk_size=2, policy=FAIL_FAST)
        )
        with pytest.raises(WorkerCrashError) as excinfo:
            runner.map(_die_hard, [1, 2, 3, 4])
        assert excinfo.value.workers == 2
        assert excinfo.value.attempt == 1
        assert excinfo.value.chunk_id >= 0

    def test_supervised_config_routes_through_pool(self):
        runner = ParallelSweepRunner(
            SweepRunnerConfig(max_workers=1, chunk_size=4)
        )
        assert runner.map(_times_ten, ITEMS) == SERIAL
        assert runner.last_report is not None
        assert runner.last_report.chunks_total == 3

    def test_chunk_execution_error_pickles(self):
        import pickle

        exc = ChunkExecutionError(7, ValueError("boom"))
        clone = pickle.loads(pickle.dumps(exc))
        assert clone.item_index == 7
        assert isinstance(clone.original, ValueError)


# -- faultsim unit behavior ------------------------------------------------


class TestFaultSim:
    def test_attempt_ledger_counts_across_instances(self, tmp_path):
        faulty = FaultyCallable(
            _times_ten, {1: WorkerFaultSpec(FAULT_CRASH, until_attempt=2)}, tmp_path
        )
        assert faulty.attempts(1) == 0
        with pytest.raises(WorkerFault):
            faulty(1)
        # A fresh instance (as after a worker respawn) sees the ledger.
        clone = FaultyCallable(
            _times_ten, {1: WorkerFaultSpec(FAULT_CRASH, until_attempt=2)}, tmp_path
        )
        assert clone.attempts(1) == 1
        with pytest.raises(WorkerFault):
            clone(1)
        assert clone(1) == 10  # attempt 3 > until_attempt

    def test_unlisted_items_pass_through(self, tmp_path):
        faulty = FaultyCallable(
            _times_ten, {1: WorkerFaultSpec(FAULT_CRASH)}, tmp_path
        )
        assert faulty(2) == 20
        assert faulty.attempts(2) == 0

    def test_die_is_inert_inline(self, tmp_path):
        faulty = FaultyCallable(
            _times_ten, {1: WorkerFaultSpec(FAULT_DIE)}, tmp_path
        )
        # We *are* the supervisor process: the fault must not kill us.
        assert faulty(1) == 10

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="kind"):
            WorkerFaultSpec("meteor")
        with pytest.raises(ValueError, match="probability"):
            WorkerFaultSpec(FAULT_FLAKY, probability=1.5)
        with pytest.raises(ValueError, match="until_attempt"):
            WorkerFaultSpec(FAULT_CRASH, until_attempt=0)

    def test_stable_item_key_is_process_stable(self):
        assert stable_item_key("abc") == stable_item_key("abc")
        assert stable_item_key((1, 2)) != stable_item_key((2, 1))

    def test_die_exit_code_documented(self):
        assert DIE_EXIT_CODE == 77


# -- policy / report plumbing ----------------------------------------------


class TestPolicyAndReport:
    def test_backoff_is_capped_exponential(self):
        policy = ExecutionPolicy(
            backoff_base_s=0.1, backoff_factor=2.0, backoff_cap_s=0.5
        )
        assert policy.backoff_s(1) == pytest.approx(0.1)
        assert policy.backoff_s(2) == pytest.approx(0.2)
        assert policy.backoff_s(5) == pytest.approx(0.5)

    def test_policy_validation(self):
        with pytest.raises(ValueError, match="max_attempts"):
            ExecutionPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="inline_after"):
            ExecutionPolicy(degrade_after=3, inline_after=2)

    def test_report_round_trips_to_json(self, tmp_path):
        faulty = FaultyCallable(
            _times_ten, {4: WorkerFaultSpec(FAULT_CRASH)}, tmp_path
        )
        policy = ExecutionPolicy(max_attempts=1, **FAST)
        outcome = SupervisedPool(workers=1, policy=policy).map(
            faulty, ITEMS
        )
        data = json.loads(outcome.report.to_json())
        assert data["chunks_total"] == outcome.report.chunks_total
        assert data["quarantined"][0]["item_index"] == 4
        assert data["state"] == ExecState.INLINE.value

    def test_fingerprint_value_is_stable(self):
        assert fingerprint_value([1, 2, 3]) == fingerprint_value([1, 2, 3])
        assert fingerprint_value([1, 2, 3]) != fingerprint_value([1, 2, 4])

    def test_outcome_type(self):
        outcome = SupervisedPool(workers=1).map(_times_ten, [1])
        assert isinstance(outcome, ExecutionOutcome)
