"""Perf guard: supervision and journaling overhead on fault-free sweeps.

The fault-tolerant layer buys crash/hang survival with bookkeeping —
per-chunk futures, heartbeat files, fingerprints, journal appends.  That
tax is only acceptable if it stays small when nothing goes wrong, which
is the common case.  This benchmark prices the inline supervised path and
the checkpoint journal against the bare serial loop on a pure-Python
workload sized like one sweep chunk, and a campaign-shaped pool (two
workers, two chunks, as ``python -m repro.chaos --workers 2`` submits two
ensemble groups) against the serial loop.  The printed costs are
reported, not gated: wall time on shared hosts is too noisy for a bound.
"""

import math
import os
import time

from repro.exec.journal import (
    CheckpointJournal,
    JournalEntry,
    fingerprint_value,
)
from repro.exec.supervised import SupervisedPool

from conftest import print_table

ITEMS = list(range(256))


def _work(value: int) -> float:
    total = 0.0
    for i in range(200):
        total += math.sqrt(value + i + 1.0)
    return total


def _serial() -> list:
    return [_work(item) for item in ITEMS]


def test_supervised_inline_overhead(benchmark):
    expected = _serial()
    outcome = benchmark.pedantic(
        lambda: SupervisedPool(workers=1, chunk_size=16).map(_work, ITEMS),
        rounds=3,
        iterations=1,
    )
    assert outcome.results == expected
    assert outcome.report.chunks_completed == len(ITEMS) // 16

    print_table(
        "Supervised inline execution (256 items, chunk_size=16)",
        ("chunks", "retries", "state"),
        [
            (
                str(outcome.report.chunks_total),
                str(outcome.report.retries),
                outcome.report.state,
            )
        ],
    )


def _group(value: int) -> float:
    """Stand-in for one ensemble group: a few tenths of a second of work."""
    total = 0.0
    for i in range(3_000_000):
        total += math.sqrt(value + i + 1.0)
    return total


def test_campaign_sized_pool_overhead(benchmark):
    groups = [0, 1]
    began = time.perf_counter()
    expected = [_group(item) for item in groups]
    serial_s = time.perf_counter() - began

    pool_s = []

    def run():
        began = time.perf_counter()
        outcome = SupervisedPool(workers=2, chunk_size=1).map(_group, groups)
        pool_s.append(time.perf_counter() - began)
        return outcome

    outcome = benchmark.pedantic(run, rounds=3, iterations=1)
    assert outcome.results == expected
    assert outcome.report.chunks_completed == len(groups)
    assert outcome.report.worker_deaths == 0
    assert outcome.report.final_workers == 2

    # Two chunks on two workers ideally take half the serial time (the
    # whole of it on a single-CPU host); the rest is pool start-up,
    # heartbeats, polling and shutdown.
    ideal_s = serial_s / min(len(groups), os.cpu_count() or 1)
    median_s = sorted(pool_s)[len(pool_s) // 2]
    print_table(
        "Campaign-sized supervised pool (2 workers, 2 chunks, fault-free)",
        ("serial s", "pool s", "ideal s", "supervision s/chunk"),
        [
            (
                f"{serial_s:.3f}",
                f"{median_s:.3f}",
                f"{ideal_s:.3f}",
                f"{(median_s - ideal_s) / len(groups):.3f}",
            )
        ],
    )


def test_journaled_run_overhead(benchmark, tmp_path):
    expected = _serial()

    counter = [0]

    def run():
        counter[0] += 1
        path = tmp_path / f"journal_{counter[0]}.jsonl"
        return SupervisedPool(
            workers=1, chunk_size=16, journal=path
        ).map(_work, ITEMS)

    outcome = benchmark.pedantic(run, rounds=3, iterations=1)
    assert outcome.results == expected


def test_journal_append_throughput(benchmark, tmp_path):
    """Raw journal appends: fsync-per-entry is the dominant cost."""
    payload = [float(i) for i in range(16)]
    counter = [0]

    def append_chunks():
        counter[0] += 1
        journal = CheckpointJournal(tmp_path / f"tp_{counter[0]}.jsonl")
        journal.start(
            {
                "target": "bench",
                "items": len(ITEMS),
                "chunks": 16,
                "chunk_size": 16,
                "run_fingerprint": "bench",
            }
        )
        for chunk_id in range(16):
            journal.append(
                JournalEntry(
                    chunk_id=chunk_id,
                    fingerprint=fingerprint_value(chunk_id),
                    results=payload,
                )
            )
        return journal

    journal = benchmark.pedantic(append_chunks, rounds=3, iterations=1)
    _, entries = journal.load()
    assert len(entries) == 16
