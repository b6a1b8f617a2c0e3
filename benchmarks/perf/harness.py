"""Steady-state timing harness for the perf-regression benchmarks.

Wall-clock timing lives here, *outside* ``src/`` — the determinism checker
(`repro.analysis`) bans wall-clock reads in library code, and rightly so;
benchmarks are the one place measuring real time is the point.

The measurement discipline:

* every workload is warmed up before any sample is taken (imports, caches,
  allocator pools, branch predictors all settle);
* each sample is one full workload invocation under ``time.perf_counter``;
* the reported statistic is the **median** of N runs — robust against the
  one-sided noise (scheduler preemption, thermal dips) that plagues shared
  runners.  The minimum is recorded too, as the low-noise floor estimate.

Baselines are plain JSON (``BENCH_*.json``) so CI can diff them without any
tooling beyond this file.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional

#: Bump when the JSON layout changes incompatibly.
SCHEMA_VERSION = 1

#: Median regression beyond this fraction of the baseline fails a compare.
DEFAULT_TOLERANCE = 0.25


@dataclass(frozen=True)
class TimingResult:
    """Steady-state timing of one workload."""

    name: str
    median_s: float
    min_s: float
    mean_s: float
    runs: int
    warmup: int

    def as_dict(self) -> dict:
        return {
            "median_s": self.median_s,
            "min_s": self.min_s,
            "mean_s": self.mean_s,
            "runs": self.runs,
            "warmup": self.warmup,
        }


def time_callable(
    name: str,
    fn: Callable[[], object],
    *,
    warmup: int = 3,
    runs: int = 9,
) -> TimingResult:
    """Median-of-``runs`` wall-clock timing of ``fn`` after ``warmup`` calls."""
    if runs < 1:
        raise ValueError(f"need at least one timed run, got {runs}")
    if warmup < 0:
        raise ValueError(f"warmup cannot be negative, got {warmup}")
    for _ in range(warmup):
        fn()
    samples: List[float] = []
    for _ in range(runs):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return timing_from_samples(name, samples, warmup=warmup)


def timing_from_samples(
    name: str, samples: List[float], *, warmup: int
) -> TimingResult:
    """Summarize wall-clock ``samples`` taken outside :func:`time_callable`."""
    if not samples:
        raise ValueError(f"need at least one timed run for {name}")
    return TimingResult(
        name=name,
        median_s=float(statistics.median(samples)),
        min_s=float(min(samples)),
        mean_s=float(statistics.fmean(samples)),
        runs=len(samples),
        warmup=warmup,
    )


def run_manifest(repo_root: Path) -> dict:
    """Where a baseline was measured: host, Python/NumPy versions, git SHA.

    ``git_sha``/``git_dirty`` are ``None`` outside a git checkout.
    """
    import numpy as np

    def git(*args: str) -> Optional[str]:
        try:
            completed = subprocess.run(
                ["git", "-C", str(repo_root), *args],
                capture_output=True, text=True, check=True,
            )
        except (OSError, subprocess.CalledProcessError):
            return None
        return completed.stdout.strip()

    status = git("status", "--porcelain", "--untracked-files=no")
    return {
        "host": platform.node(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
    }


#: ``np`` module attributes counted by :func:`count_array_constructions`.
#: These are the Python-level constructors library code reaches for; C-level
#: temporaries from ufuncs/operators are invisible here, which is the point —
#: the preallocation discipline is about *named* per-tick constructions.
_CONSTRUCTOR_NAMES = ("array", "zeros", "empty", "ones", "full")


def count_array_constructions(fn: Callable[[], object]) -> int:
    """Number of Python-level NumPy array constructions during ``fn()``.

    Temporarily wraps ``np.array``/``np.zeros``/``np.empty``/``np.ones``/
    ``np.full`` with counting shims, calls ``fn`` once, and restores the
    originals.  Used by the allocation-budget checks: a steady-state hot
    loop that preallocates its scratch should construct a small, *fixed*
    number of arrays per tick regardless of how long it runs or how many
    ensemble lanes it carries.
    """
    import numpy as np

    count = 0
    originals = {name: getattr(np, name) for name in _CONSTRUCTOR_NAMES}

    def _counting(original: Callable) -> Callable:
        def shim(*args: object, **kwargs: object) -> object:
            nonlocal count
            count += 1
            return original(*args, **kwargs)

        return shim

    for name, original in originals.items():
        setattr(np, name, _counting(original))
    try:
        fn()
    finally:
        for name, original in originals.items():
            setattr(np, name, original)
    return count


def write_baseline(
    path: Path,
    results: List[TimingResult],
    extra: Optional[dict] = None,
) -> None:
    """Serialize timing results (plus metadata) as a baseline JSON file."""
    payload: dict = {
        "schema": SCHEMA_VERSION,
        "workloads": {r.name: r.as_dict() for r in results},
    }
    if extra:
        payload.update(extra)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def load_baseline(path: Path) -> dict:
    """Load a baseline JSON, validating its schema version."""
    payload = json.loads(path.read_text())
    schema = payload.get("schema")
    if schema != SCHEMA_VERSION:
        raise ValueError(
            f"{path.name}: baseline schema {schema} != expected {SCHEMA_VERSION}"
        )
    return payload


def compare_to_baseline(
    results: List[TimingResult],
    baseline: dict,
    tolerance: float = DEFAULT_TOLERANCE,
) -> List[str]:
    """Regression report: one line per workload slower than baseline allows.

    A workload regresses when its fresh median exceeds the baseline median
    by more than ``tolerance`` (fractional).  Workloads missing from the
    baseline are skipped — new benchmarks should not fail the first compare.
    Returns the list of regression messages (empty = pass).
    """
    if tolerance < 0:
        raise ValueError(f"tolerance cannot be negative, got {tolerance}")
    regressions: List[str] = []
    workloads: Dict[str, dict] = baseline.get("workloads", {})
    for result in results:
        base = workloads.get(result.name)
        if base is None:
            continue
        base_median = float(base["median_s"])
        limit = base_median * (1.0 + tolerance)
        if result.median_s > limit:
            regressions.append(
                f"{result.name}: median {result.median_s * 1e3:.3f} ms exceeds "
                f"baseline {base_median * 1e3:.3f} ms by more than "
                f"{tolerance:.0%} (limit {limit * 1e3:.3f} ms)"
            )
    return regressions
