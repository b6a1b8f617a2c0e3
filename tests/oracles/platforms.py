"""Per-access oracle for :meth:`repro.platforms.cpu.InOrderCore.run_segments`.

The core keeps its per-access executor in ``src/`` because it runs the
inputs the batch trace engine cannot (unsupported geometries, negative
addresses).  This oracle drives only that executor, so it shares the
structures' code with the core instead of copying it.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.platforms.cpu import InOrderCore, PerfCounters
from repro.platforms.workload import Trace


def run_segments(
    core: InOrderCore, segments: List[Tuple[str, Trace]]
) -> Dict[str, PerfCounters]:
    """Execute scheduled segments one access at a time."""
    if not segments:
        raise ValueError("no segments to execute")
    for context, trace in segments:
        core._switch_to(context)
        core._execute_segment_scalar(context, trace)
    return core.counters


def run_trace(core: InOrderCore, context: str, trace: Trace) -> PerfCounters:
    """Execute a whole trace under one context, one access at a time."""
    return run_segments(core, [(context, trace)])[context]
