"""Tests for the parallel sweep runner and the keyed caches.

The runner's contract is determinism: chunking depends only on input order
and config, results come back in input order, and a single worker is a
plain serial loop in the calling process.  The parallel path is forced with
``max_workers=2`` so the tests exercise real worker processes even on
single-CPU runners.  Failure attribution is tested under the fail-fast
policy; the default policy quarantines instead.
"""

import os
from dataclasses import fields

import pytest

from repro.components.catalog import (
    cached_catalog,
    clear_catalog_cache,
)
from repro.core.parallel import (
    ParallelSweepRunner,
    SweepRunnerConfig,
    chunk_items,
)
from repro.core.tradeoffs import catalog_fits, clear_fit_cache
from repro.exec.policy import ExecutionPolicy
from repro.exec.report import ExecutionReport
from repro.exec.supervised import QuarantinedItem

FAIL_FAST = ExecutionPolicy(max_attempts=1, quarantine=False)


def _square(value: int) -> int:
    """Module-level so worker processes can unpickle it."""
    return value * value


def _pid(_: int) -> int:
    return os.getpid()


def _raise_on_three(value: int) -> int:
    if value == 3:
        raise ValueError("three is right out")
    return value


class TestChunking:
    def test_contiguous_fixed_size_chunks(self):
        assert chunk_items([1, 2, 3, 4, 5], 2) == [[1, 2], [3, 4], [5]]

    def test_single_chunk_when_oversized(self):
        assert chunk_items([1, 2], 10) == [[1, 2]]

    def test_rejects_nonpositive_chunk_size(self):
        with pytest.raises(ValueError, match="chunk_size"):
            chunk_items([1], 0)


class TestConfig:
    def test_rejects_nonpositive_workers(self):
        with pytest.raises(ValueError, match="max_workers"):
            SweepRunnerConfig(max_workers=0)

    def test_resolved_workers_defaults_to_cpu_count(self):
        assert SweepRunnerConfig().resolved_workers >= 1

    def test_explicit_worker_count_respected(self):
        assert SweepRunnerConfig(max_workers=3).resolved_workers == 3

    def test_only_workers_chunking_and_policy(self):
        config = SweepRunnerConfig()
        assert [field.name for field in fields(config)] == [
            "max_workers", "chunk_size", "policy",
        ]
        assert config.policy is None


class TestRunnerInline:
    def test_single_worker_runs_in_this_process(self):
        runner = ParallelSweepRunner(SweepRunnerConfig(max_workers=1))
        assert runner.map(_pid, [1, 2, 3]) == [os.getpid()] * 3

    def test_serial_when_single_worker(self):
        runner = ParallelSweepRunner(SweepRunnerConfig(max_workers=1))
        assert runner.map(_square, range(4)) == [0, 1, 4, 9]

    def test_empty_items(self):
        assert ParallelSweepRunner().map(_square, []) == []

    def test_exception_propagates(self):
        runner = ParallelSweepRunner(
            SweepRunnerConfig(max_workers=1, policy=FAIL_FAST)
        )
        with pytest.raises(ValueError, match="three"):
            runner.map(_raise_on_three, [1, 2, 3])

    def test_exception_names_failing_item(self):
        runner = ParallelSweepRunner(
            SweepRunnerConfig(max_workers=1, policy=FAIL_FAST)
        )
        with pytest.raises(ValueError) as excinfo:
            runner.map(_raise_on_three, [9, 3, 1])
        assert excinfo.value.sweep_item_index == 1


class TestRunnerParallel:
    """Force two real worker processes regardless of host CPU count."""

    def test_results_in_input_order(self):
        runner = ParallelSweepRunner(
            SweepRunnerConfig(max_workers=2, chunk_size=3)
        )
        values = list(range(10))
        assert runner.map(_square, values) == [v * v for v in values]

    def test_chunk_size_one(self):
        runner = ParallelSweepRunner(
            SweepRunnerConfig(max_workers=2, chunk_size=1)
        )
        assert runner.map(_square, [5, 6, 7]) == [25, 36, 49]

    def test_worker_exception_propagates(self):
        runner = ParallelSweepRunner(
            SweepRunnerConfig(max_workers=2, chunk_size=2, policy=FAIL_FAST)
        )
        with pytest.raises(ValueError, match="three"):
            runner.map(_raise_on_three, [1, 2, 3, 4])

    def test_worker_exception_names_failing_item(self):
        runner = ParallelSweepRunner(
            SweepRunnerConfig(max_workers=2, chunk_size=2, policy=FAIL_FAST)
        )
        with pytest.raises(ValueError, match="three") as excinfo:
            runner.map(_raise_on_three, [1, 2, 3, 4])
        assert excinfo.value.sweep_item_index == 2


class TestRunnerSupervised:
    """Every map runs through the fault-tolerant layer."""

    def test_results_match_serial(self):
        runner = ParallelSweepRunner(
            SweepRunnerConfig(max_workers=1, chunk_size=2)
        )
        values = list(range(7))
        assert runner.map(_square, values) == [v * v for v in values]
        assert runner.last_report is not None
        assert runner.last_report.chunks_completed == 4

    def test_last_report_reset_between_maps(self):
        runner = ParallelSweepRunner(SweepRunnerConfig(max_workers=1))
        stale = object()
        runner.last_report = stale
        runner.map(_square, [1])
        assert runner.last_report is not stale
        assert isinstance(runner.last_report, ExecutionReport)
        assert runner.last_report.chunks_total == 1

    def test_default_policy_quarantines_failing_item(self):
        runner = ParallelSweepRunner(SweepRunnerConfig(max_workers=1))
        results = runner.map(_raise_on_three, [1, 2, 3, 4])
        assert results[:2] == [1, 2] and results[3] == 4
        assert isinstance(results[2], QuarantinedItem)
        assert results[2].item_index == 2
        assert runner.last_report.quarantine_report().item_indices == (2,)


class TestKeyedCaches:
    def test_cached_catalog_returns_same_object(self):
        clear_catalog_cache()
        first = cached_catalog()
        second = cached_catalog()
        assert first is second
        clear_catalog_cache()
        assert cached_catalog() is not first

    def test_cached_catalog_keyed_by_seed(self):
        clear_catalog_cache()
        assert cached_catalog(seed=1) is not cached_catalog(seed=2)
        assert cached_catalog(seed=1) is cached_catalog(seed=1)

    def test_catalog_fits_memoized_and_keyed(self):
        clear_fit_cache()
        first = catalog_fits()
        assert catalog_fits() is first
        assert catalog_fits(seed=123) is not first
        clear_fit_cache()
        assert catalog_fits() is not first

    def test_catalog_fits_carries_all_fit_families(self):
        fits = catalog_fits()
        assert fits.battery, "expected per-cell-count battery fits"
        assert fits.esc, "expected per-class ESC fits"
        assert fits.frame.slope != 0.0
