"""Deterministic fault injection and graceful-degradation scenarios.

The reliability envelope of the paper's closed-loop stack: time-windowed
fault schedules (:mod:`repro.faults.schedule`), the crash envelope
(:mod:`repro.faults.envelope`) and injectors that land each fault in the
right subsystem (:mod:`repro.faults.injectors`).

The canned scenarios measuring survival, recovery time, and
mission-completion degradation live in :mod:`repro.faults.scenarios`.
They fly through the chaos engine's harness (:mod:`repro.chaos.harness`),
which is built on this package, so this package does not import them:
use ``from repro.faults.scenarios import run_scenario``.
"""

from repro.faults.schedule import (
    FaultEvent,
    FaultKind,
    FaultSchedule,
    OFFLOAD_KINDS,
    PERCEPTION_KINDS,
)
from repro.faults.envelope import CrashEnvelope, DEFAULT_CRASH_ENVELOPE
from repro.faults.injectors import FaultInjector
from repro.faults.perception import (
    PerceptionFaultInjector,
    PerceptionScenario,
    perception_scenarios,
)

__all__ = [
    "FaultEvent",
    "FaultKind",
    "FaultSchedule",
    "OFFLOAD_KINDS",
    "PERCEPTION_KINDS",
    "CrashEnvelope",
    "DEFAULT_CRASH_ENVELOPE",
    "FaultInjector",
    "PerceptionFaultInjector",
    "PerceptionScenario",
    "perception_scenarios",
]
