"""Trace-driven in-order core model.

Executes :class:`repro.platforms.workload.Trace` streams against a cache
hierarchy, TLB, and branch predictor, charging standard in-order penalties.
Per-context performance counters come out the other end — the simulator-side
equivalent of ``perf stat`` in the paper's Section 5.1 experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.platforms import trace_engine
from repro.platforms.branch import GsharePredictor
from repro.platforms.cache import SetAssociativeCache, rpi_cache_hierarchy
from repro.platforms.tlb import Tlb
from repro.platforms.workload import OpKind, Trace


@dataclass
class CorePenalties:
    """Cycle penalties of an in-order Cortex-A-class core."""

    base_cpi: float = 1.0
    l1_miss_llc_hit: int = 12
    llc_miss_dram: int = 60
    tlb_miss: int = 28
    branch_mispredict: int = 13

    def __post_init__(self) -> None:
        if self.base_cpi <= 0:
            raise ValueError("base CPI must be positive")
        if min(
            self.l1_miss_llc_hit,
            self.llc_miss_dram,
            self.tlb_miss,
            self.branch_mispredict,
        ) < 0:
            raise ValueError("penalties cannot be negative")


@dataclass
class PerfCounters:
    """perf-stat style counters for one execution context."""

    instructions: int = 0
    cycles: float = 0.0
    llc_accesses: int = 0
    llc_misses: int = 0
    branches: int = 0
    branch_misses: int = 0
    tlb_accesses: int = 0
    tlb_misses: int = 0

    @property
    def ipc(self) -> float:
        if self.cycles <= 0:
            raise ValueError("no cycles recorded; IPC undefined")
        return self.instructions / self.cycles

    @property
    def llc_miss_rate(self) -> float:
        if self.llc_accesses == 0:
            raise ValueError("no LLC accesses recorded")
        return self.llc_misses / self.llc_accesses

    @property
    def branch_miss_rate(self) -> float:
        if self.branches == 0:
            raise ValueError("no branches recorded")
        return self.branch_misses / self.branches

    @property
    def tlb_miss_rate(self) -> float:
        if self.tlb_accesses == 0:
            raise ValueError("no TLB accesses recorded")
        return self.tlb_misses / self.tlb_accesses


class InOrderCore:
    """Single-issue in-order core with shared or private memory structures."""

    def __init__(
        self,
        penalties: Optional[CorePenalties] = None,
        l1: Optional[SetAssociativeCache] = None,
        llc: Optional[SetAssociativeCache] = None,
        tlb: Optional[Tlb] = None,
        predictor: Optional[GsharePredictor] = None,
        flush_on_context_switch: bool = True,
    ):
        if (l1 is None) != (llc is None):
            raise ValueError("provide both l1 and llc, or neither")
        if l1 is None:
            l1, llc = rpi_cache_hierarchy()
        self.penalties = penalties or CorePenalties()
        self.l1 = l1
        self.llc = llc
        self.tlb = tlb or Tlb(entries=64)
        self.predictor = predictor or GsharePredictor()
        self.flush_on_context_switch = flush_on_context_switch
        self.counters: Dict[str, PerfCounters] = {}
        self._current_context: Optional[str] = None

    def _switch_to(self, context: str) -> None:
        if context == self._current_context:
            return
        if self._current_context is not None and self.flush_on_context_switch:
            # Cortex-A53 flushes TLB on ASID pressure; branch history is
            # effectively clobbered by the other workload's branches.
            self.tlb.flush()
            self.predictor.flush_history()
        self._current_context = context
        self.counters.setdefault(context, PerfCounters())

    def reset_counters(self) -> None:
        """Zero all performance counters while keeping microarchitectural
        state (cache/TLB/predictor contents) — the warmup-exclusion pattern
        perf measurements use."""
        self.counters = {}
        self.l1.stats.reset()
        self.llc.stats.reset()
        self.tlb.stats.reset()
        self.predictor.stats.reset()

    def run_trace(self, context: str, trace: Trace) -> PerfCounters:
        """Execute a whole trace under one context; returns its counters."""
        return self.run_segments([(context, trace)])[context]

    def run_segments(
        self, segments: List[Tuple[str, Trace]]
    ) -> Dict[str, PerfCounters]:
        """Execute scheduled segments (from :func:`workload.interleave`).

        Runs on :mod:`repro.platforms.trace_engine` (vectorized decode +
        ordered-structure LRU kernels, counter-exact against the per-access
        executor).  Structure geometries the trace engine does not support
        and traces with negative addresses run on the per-access executor,
        :meth:`_execute_segment_scalar`, instead.
        """
        if not segments:
            raise ValueError("no segments to execute")
        if trace_engine.supports_batch(self):
            counters = trace_engine.run_segments_batch(self, segments)
            if counters is not None:
                return counters
        for context, trace in segments:
            self._switch_to(context)
            self._execute_segment_scalar(context, trace)
        return self.counters

    def _execute_segment_scalar(self, context: str, trace: Trace) -> None:
        """The per-access executor: one segment through the scalar structures.

        Serves what the trace engine cannot; the structures raise on a
        negative address.
        """
        penalties = self.penalties
        counter = self.counters[context]
        llc_before = self.llc.stats.accesses
        llc_miss_before = self.llc.stats.misses
        instructions = trace.length
        cycles = instructions * penalties.base_cpi
        branch_count = 0
        branch_miss = 0
        tlb_access = 0
        tlb_miss = 0
        # ALU instructions cost only the base CPI; only memory and branch
        # instructions need sequential modeling.
        mem_mask = (trace.kinds == OpKind.LOAD) | (trace.kinds == OpKind.STORE)
        branch_mask = trace.kinds == OpKind.BRANCH
        l1 = self.l1
        tlb = self.tlb
        for address in trace.addresses[mem_mask]:
            address = int(address)
            tlb_access += 1
            if not tlb.access(address):
                tlb_miss += 1
                cycles += penalties.tlb_miss
            if not l1.access(address):
                cycles += penalties.l1_miss_llc_hit
                if l1.last_demand_missed_below:
                    cycles += penalties.llc_miss_dram
        predictor = self.predictor
        branch_pcs = trace.pcs[branch_mask]
        branch_taken = trace.taken[branch_mask]
        for pc, taken in zip(branch_pcs, branch_taken):
            branch_count += 1
            if not predictor.predict_and_update(int(pc), bool(taken)):
                branch_miss += 1
                cycles += penalties.branch_mispredict
        counter.instructions += instructions
        counter.cycles += cycles
        counter.llc_accesses += self.llc.stats.accesses - llc_before
        counter.llc_misses += self.llc.stats.misses - llc_miss_before
        counter.branches += branch_count
        counter.branch_misses += branch_miss
        counter.tlb_accesses += tlb_access
        counter.tlb_misses += tlb_miss
