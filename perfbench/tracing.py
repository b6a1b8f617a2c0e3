"""In-memory span tracer, attribute shims, and Chrome trace-event export.

A :class:`Tracer` records one span per call into a shimmed function: its
name, start, end and the span that was open when it began (its parent).
Aggregates (calls, inclusive time, time covered by child spans) are kept
for every call; full events are kept for the first ``events_per_name``
calls of each name so the exported trace stays loadable when a step loop
makes hundreds of thousands of calls.

Shims replace module or class attributes for the duration of a ``with
Tracer.installed(targets)`` block and are removed on exit, so a traced
call runs exactly the code an untraced call runs.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

_clock_ns = time.perf_counter_ns


@dataclass(frozen=True)
class Target:
    """One function to time: ``module:attr`` or ``module:Class.method``.

    ``on_call(counts, args)`` runs before the call and ``on_result(counts,
    value, args)`` after it, with the tracer's counter dict as ``counts``.
    """

    span: str
    module: str
    attr: str
    on_call: Optional[Callable[[Dict[str, float], tuple], None]] = None
    on_result: Optional[Callable[[Dict[str, float], Any, tuple], None]] = None


@dataclass
class SpanStats:
    calls: int = 0
    total_ns: int = 0
    child_ns: int = 0
    durations_ns: List[int] = field(default_factory=list)

    @property
    def self_ns(self) -> int:
        return self.total_ns - self.child_ns


class Tracer:
    """Collects spans and counts; see the module docstring."""

    def __init__(
        self,
        events_per_name: int = 2000,
        keep_durations: Sequence[str] = (),
    ) -> None:
        self.events_per_name = events_per_name
        self.keep_durations = frozenset(keep_durations)
        self.stats: Dict[str, SpanStats] = {}
        self.counts: Dict[str, float] = {}
        #: (id, name, start_ns, end_ns, parent_id) of every recorded span.
        self.events: List[Tuple[int, str, int, int, Optional[int]]] = []
        self.dropped_events = 0
        self.origin_ns = _clock_ns()
        # Open spans: [name, start_ns, child_ns, event_id or None].
        self._stack: List[list] = []
        self._recorded: Dict[str, int] = {}
        self._next_id = 0

    # -- recording ---------------------------------------------------------------

    def begin(self, name: str) -> None:
        event_id = None
        if self._recorded.get(name, 0) < self.events_per_name:
            self._recorded[name] = self._recorded.get(name, 0) + 1
            event_id = self._next_id
            self._next_id += 1
        self._stack.append([name, _clock_ns(), 0, event_id])

    def end(self) -> None:
        end_ns = _clock_ns()
        name, start_ns, child_ns, event_id = self._stack.pop()
        duration = end_ns - start_ns
        stats = self.stats.get(name)
        if stats is None:
            stats = self.stats[name] = SpanStats()
        stats.calls += 1
        stats.total_ns += duration
        stats.child_ns += child_ns
        if name in self.keep_durations:
            stats.durations_ns.append(duration)
        if self._stack:
            self._stack[-1][2] += duration
        if event_id is None:
            self.dropped_events += 1
            return
        parent = next(
            (frame[3] for frame in reversed(self._stack) if frame[3] is not None),
            None,
        )
        self.events.append((event_id, name, start_ns, end_ns, parent))

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Context manager form of :meth:`begin`/:meth:`end`."""
        self.begin(name)
        try:
            yield
        finally:
            self.end()

    # -- shims -------------------------------------------------------------------

    def _shim(self, target: Target, original: Callable) -> Callable:
        begin, end, counts = self.begin, self.end, self.counts
        name, on_call, on_result = target.span, target.on_call, target.on_result

        def shim(*args: Any, **kwargs: Any) -> Any:
            if on_call is not None:
                on_call(counts, args)
            begin(name)
            try:
                value = original(*args, **kwargs)
            finally:
                end()
            if on_result is not None:
                on_result(counts, value, args)
            return value

        shim.__wrapped__ = original  # type: ignore[attr-defined]
        return shim

    @contextlib.contextmanager
    def installed(self, targets: Sequence[Target]) -> Iterator["Tracer"]:
        """Shim every target for the duration of the block.

        A function is replaced on its defining module *and* on every loaded
        module of the same package that bound it with ``from m import f``,
        so calls through either name are timed.  Everything is restored on
        exit, also when the block raises.
        """
        undo: List[Tuple[Any, str, Any]] = []
        try:
            for target in targets:
                module = importlib.import_module(target.module)
                owner_path, _, attr = target.attr.rpartition(".")
                owner: Any = module
                for part in filter(None, owner_path.split(".")):
                    owner = getattr(owner, part)
                original = owner.__dict__[attr]
                if isinstance(original, (staticmethod, classmethod)):
                    raise TypeError(f"cannot shim {target.attr}: not a plain function")
                shim = self._shim(target, original)
                holders = [owner]
                if owner is module:
                    package = target.module.split(".")[0] + "."
                    holders += [
                        other
                        for key, other in list(sys.modules.items())
                        if key.startswith(package)
                        and other is not module
                        and getattr(other, "__dict__", {}).get(attr) is original
                    ]
                for holder in holders:
                    undo.append((holder, attr, original))
                    setattr(holder, attr, shim)
            yield self
        finally:
            for holder, attr, original in reversed(undo):
                setattr(holder, attr, original)

    # -- reporting ---------------------------------------------------------------

    def total_s(self, name: str) -> float:
        stats = self.stats.get(name)
        return 0.0 if stats is None else stats.total_ns / 1e9

    def self_s(self, name: str) -> float:
        stats = self.stats.get(name)
        return 0.0 if stats is None else stats.self_ns / 1e9

    def calls(self, name: str) -> int:
        stats = self.stats.get(name)
        return 0 if stats is None else stats.calls

    def durations_s(self, name: str) -> List[float]:
        stats = self.stats.get(name)
        return [] if stats is None else [d / 1e9 for d in stats.durations_ns]

    def self_time_table(self, wall_s: float) -> List[Tuple[str, int, float, float, float]]:
        """``(span, calls, total_s, self_s, self share of wall)`` by self time.

        With one root span around the traced work, the shares add up to one.
        """
        rows = [
            (name, s.calls, s.total_ns / 1e9, s.self_ns / 1e9, s.self_ns / 1e9 / wall_s)
            for name, s in self.stats.items()
        ]
        return sorted(rows, key=lambda row: -row[3])

    def chrome_trace(self, metadata: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        """Trace-event JSON (``ph: X`` complete events) for Perfetto.

        ``args.id`` and ``args.parent`` carry the parent links; a span whose
        parent was not recorded points at its nearest recorded ancestor.
        """
        events = [
            {
                "name": name,
                "cat": name.split(".")[0],
                "ph": "X",
                "ts": (start - self.origin_ns) / 1e3,
                "dur": (end - start) / 1e3,
                "pid": 1,
                "tid": 1,
                "args": {"id": event_id, "parent": parent},
            }
            for event_id, name, start, end, parent in self.events
        ]
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": dict(metadata or {}, dropped_events=self.dropped_events),
        }

    def write_chrome_trace(self, path: str, metadata: Optional[Dict[str, Any]] = None) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.chrome_trace(metadata), handle)

