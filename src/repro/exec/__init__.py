"""Fault-tolerant execution layer for sweeps and chaos campaigns.

The one place that builds worker pools: every
:class:`repro.core.parallel.ParallelSweepRunner` sweep and every chaos
campaign runs through it.

* :func:`chunk_items` — the deterministic contiguous chunking every map
  uses;
* :mod:`repro.exec.supervised` — the :class:`SupervisedPool`: per-chunk
  futures with retries, heartbeat hang detection, poison-item quarantine
  by bisection, and graceful degradation to inline execution;
* :mod:`repro.exec.journal` — the JSON-lines checkpoint journal that lets
  a killed sweep resume bit-for-bit from its last completed chunk;
* :mod:`repro.exec.policy` / :mod:`repro.exec.report` — the supervision
  knobs and the ``RUNNING -> RETRYING -> DEGRADED -> INLINE`` accounting;
* :mod:`repro.exec.faultsim` — the self-chaos harness that injects
  crash/die/hang/slow/flaky behavior into worker callables, so the
  layer's own guarantees are tested with the repo's fault-injection
  methodology;
* :mod:`repro.exec.errors` — structured replacements for the opaque
  ``BrokenProcessPool``.

Exports resolve lazily (PEP 562): ``repro.core.parallel`` imports
this package at module level, and a lazy ``__init__`` keeps that edge
acyclic and cheap.
"""

from importlib import import_module
from typing import Any, List, Sequence, TypeVar

_ItemT = TypeVar("_ItemT")


def chunk_items(items: Sequence[_ItemT], chunk_size: int) -> List[Sequence[_ItemT]]:
    """Split ``items`` into contiguous chunks of at most ``chunk_size``."""
    if chunk_size <= 0:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
    return [items[start : start + chunk_size] for start in range(0, len(items), chunk_size)]


_EXPORTS = {
    "SupervisedPool": "repro.exec.supervised",
    "ExecutionOutcome": "repro.exec.supervised",
    "QuarantinedItem": "repro.exec.supervised",
    "ExecutionPolicy": "repro.exec.policy",
    "ExecState": "repro.exec.report",
    "ExecutionReport": "repro.exec.report",
    "QuarantineRecord": "repro.exec.report",
    "QuarantineReport": "repro.exec.report",
    "CheckpointJournal": "repro.exec.journal",
    "JournalEntry": "repro.exec.journal",
    "WorkerCrashError": "repro.exec.errors",
    "ChunkTimeoutError": "repro.exec.errors",
    "ChunkExecutionError": "repro.exec.errors",
    "JournalMismatchError": "repro.exec.errors",
    "FaultyCallable": "repro.exec.faultsim",
    "WorkerFault": "repro.exec.faultsim",
    "WorkerFaultSpec": "repro.exec.faultsim",
}

__all__: List[str] = ["chunk_items", *_EXPORTS]


def __getattr__(name: str) -> Any:
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(module_name), name)
    globals()[name] = value
    return value


def __dir__() -> List[str]:
    return sorted(set(globals()) | set(_EXPORTS))
