"""Parallel runner for simulator-backed sweep workloads.

The vectorized engine (:mod:`repro.core.batch`) makes the closed-form
Equation 1-7 sweeps cheap enough that process parallelism would only add
overhead.  Simulator-backed studies are different: each design point costs
a full :class:`repro.sim.simulator.FlightSimulator` run (tens of thousands
of physics ticks of pure-Python work), so fanning points out across worker
processes wins near-linearly.

:class:`ParallelSweepRunner` is a thin front end over
:class:`repro.exec.supervised.SupervisedPool`, the one worker pool behind
every sweep and chaos campaign, with the guarantees a reproduction repo
needs:

* **Deterministic chunking** — items are split into fixed-size contiguous
  chunks ``[items[0:n], items[n:2n], ...]`` (:func:`chunk_items`); the
  split depends only on the input order and :class:`SweepRunnerConfig`,
  never on worker scheduling.
* **Deterministic ordering** — results always come back in input order, so
  a parallel run is a drop-in substitute for the serial loop it replaces.
* **Worker count from config** — ``SweepRunnerConfig.max_workers`` (default:
  ``os.cpu_count()``); ``max_workers=1`` runs everything inline in the
  calling process, which is the mode tests use to stay hermetic.
* **Supervision** — retries with backoff, heartbeat hang detection,
  poison-item quarantine, graceful degradation to inline execution, and
  checkpoint/resume (``journal=``), tuned by ``SweepRunnerConfig.policy``.
  The :class:`repro.exec.report.ExecutionReport` of the last map is on
  ``runner.last_report``.
* **Fail-fast** — ``policy=ExecutionPolicy(max_attempts=1,
  quarantine=False)`` re-raises the first failing item's original
  exception with its global index attached as ``sweep_item_index``; a
  worker death surfaces as a structured
  :class:`repro.exec.errors.WorkerCrashError` instead of an opaque
  ``BrokenProcessPool``.

The mapped callable runs in worker processes, so it (and its arguments)
must be picklable — define it at module level, not as a lambda or closure.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Callable, Iterable, List, Optional, TypeVar, Union

from repro.exec import chunk_items
from repro.exec.policy import ExecutionPolicy

__all__ = ["ParallelSweepRunner", "SweepRunnerConfig", "chunk_items"]

_ItemT = TypeVar("_ItemT")
_ResultT = TypeVar("_ResultT")


@dataclass(frozen=True)
class SweepRunnerConfig:
    """Worker-pool controls for :class:`ParallelSweepRunner`."""

    max_workers: Optional[int] = None
    chunk_size: int = 4
    #: Supervision knobs; ``None`` uses :class:`ExecutionPolicy` defaults.
    policy: Optional[ExecutionPolicy] = None

    def __post_init__(self) -> None:
        if self.max_workers is not None and self.max_workers <= 0:
            raise ValueError(
                f"max_workers must be positive, got {self.max_workers}"
            )
        if self.chunk_size <= 0:
            raise ValueError(f"chunk_size must be positive, got {self.chunk_size}")

    @property
    def resolved_workers(self) -> int:
        """Worker count after applying the ``os.cpu_count()`` default."""
        if self.max_workers is not None:
            return self.max_workers
        return max(1, os.cpu_count() or 1)


class ParallelSweepRunner:
    """Map a picklable callable over design points across worker processes."""

    def __init__(self, config: Optional[SweepRunnerConfig] = None):
        self.config = config if config is not None else SweepRunnerConfig()
        #: :class:`repro.exec.report.ExecutionReport` of the most recent
        #: :meth:`map` call, else ``None``.
        self.last_report: Optional[Any] = None

    def map(
        self,
        fn: Callable[[_ItemT], _ResultT],
        items: Iterable[_ItemT],
        *,
        journal: Optional[Union[str, "os.PathLike[str]", Any]] = None,
    ) -> List[_ResultT]:
        """``[fn(item) for item in items]`` — possibly across processes.

        Results are returned in input order.  Under the default policy an
        item whose ``fn`` fails every retry is quarantined: its slot holds
        a :class:`repro.exec.supervised.QuarantinedItem` failure code and
        the sweep completes.  A fail-fast policy re-raises the original
        exception with ``sweep_item_index`` attached instead.  ``journal``
        checkpoints every completed chunk for resume.
        """
        # Imported lazily: the pool's module is only paid for when mapping.
        from repro.exec.supervised import SupervisedPool

        materialized = list(items)
        pool = SupervisedPool(
            workers=max(1, min(self.config.resolved_workers, len(materialized))),
            chunk_size=self.config.chunk_size,
            policy=self.config.policy,
            journal=journal,
        )
        outcome = pool.map(fn, materialized)
        self.last_report = outcome.report
        return outcome.results
