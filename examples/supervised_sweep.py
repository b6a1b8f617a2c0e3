#!/usr/bin/env python
"""Fault-tolerant sweeps: survive crashing workers, resume a killed run.

Design-space sweeps and chaos campaigns are hours of embarrassingly
parallel work — exactly the workloads that die at hour three to one bad
worker or one OOM kill.  This example drives the supervised execution
layer (:mod:`repro.exec`) through its paces with the self-chaos harness:

1. a sweep where one item *always* crashes its worker: the supervisor
   bisects the failing chunk, quarantines the poison item, and returns
   every survivor bit-for-bit identical to a serial run;
2. a flaky sweep where an item fails once then succeeds: retried with
   capped exponential backoff, no quarantine;
3. a checkpointed sweep "killed" halfway (the journal is truncated to
   simulate SIGKILL), then resumed — completed chunks are replayed from
   the journal, only the remainder is recomputed.

Run:  python examples/supervised_sweep.py
"""

import tempfile

from repro.exec.faultsim import (
    FAULT_CRASH,
    FaultyCallable,
    WorkerFaultSpec,
)
from repro.exec.policy import ExecutionPolicy
from repro.exec.supervised import QuarantinedItem, SupervisedPool

ITEMS = list(range(12))


def evaluate_design(index: int) -> int:
    """Stand-in for one design-point evaluation."""
    return index * index


def poison_sweep(state_dir: str) -> None:
    print("== 1. Poison item: quarantine instead of abort ==")
    faulty = FaultyCallable(
        evaluate_design, {5: WorkerFaultSpec(FAULT_CRASH)}, state_dir
    )
    policy = ExecutionPolicy(max_attempts=2, backoff_base_s=0.01)
    outcome = SupervisedPool(workers=1, chunk_size=4, policy=policy).map(
        faulty, ITEMS
    )
    for index, value in enumerate(outcome.results):
        marker = "QUARANTINED" if isinstance(value, QuarantinedItem) else value
        print(f"  item {index:2d} -> {marker}")
    report = outcome.report.quarantine_report()
    print(f"  quarantined items: {report.item_indices}")
    print(f"  final state: {outcome.report.state}\n")


def flaky_sweep(state_dir: str) -> None:
    print("== 2. Flaky item: retried, not quarantined ==")
    faulty = FaultyCallable(
        evaluate_design,
        {7: WorkerFaultSpec(FAULT_CRASH, until_attempt=1)},
        state_dir,
    )
    policy = ExecutionPolicy(backoff_base_s=0.01)
    outcome = SupervisedPool(workers=1, chunk_size=4, policy=policy).map(
        faulty, ITEMS
    )
    assert outcome.results == [evaluate_design(item) for item in ITEMS]
    print("  results match serial loop: True")
    print(f"  retries charged: {outcome.report.retries}")
    print(f"  quarantined: {len(outcome.report.quarantined)}\n")


def checkpointed_sweep(state_dir: str) -> None:
    print("== 3. Checkpoint journal: kill at 50%, resume ==")
    journal = f"{state_dir}/sweep.jsonl"
    SupervisedPool(workers=1, chunk_size=3, journal=journal).map(
        evaluate_design, ITEMS
    )
    # Simulate SIGKILL after two of four chunks were durably journaled.
    with open(journal, "r", encoding="utf-8") as handle:
        lines = handle.readlines()
    with open(journal, "w", encoding="utf-8") as handle:
        handle.writelines(lines[:3])  # header + 2 chunks
    outcome = SupervisedPool(workers=1, chunk_size=3, journal=journal).map(
        evaluate_design, ITEMS
    )
    assert outcome.results == [evaluate_design(item) for item in ITEMS]
    print(f"  chunks resumed from journal: {outcome.report.chunks_resumed}")
    print(f"  chunks recomputed: {outcome.report.chunks_completed}")
    print("  resumed results identical to uninterrupted run: True")
    print()
    print("For the real thing, checkpoint a chaos campaign with:")
    print("  python -m repro.chaos --checkpoint run/journal.jsonl ...")
    print("and after a kill, resume it with:")
    print("  python -m repro.chaos --checkpoint run/journal.jsonl --resume ...")


def main() -> None:
    with tempfile.TemporaryDirectory() as state_dir:
        poison_sweep(state_dir)
    with tempfile.TemporaryDirectory() as state_dir:
        flaky_sweep(state_dir)
    with tempfile.TemporaryDirectory() as state_dir:
        checkpointed_sweep(state_dir)


if __name__ == "__main__":
    main()
