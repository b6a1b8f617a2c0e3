"""The repository's benchmark.

    python3 perfbench/run.py --workload {report,campaign,flight,gust_mc,all}
        --seed N --seconds S --trace {0,1} [--tiny] [--out DIR]

Run it from anywhere inside a checkout; the library is imported from the
checkout's ``src/``.  Load comes from this one process in a closed loop:
the next op starts only when the previous one has returned, until
``--seconds`` have passed and at least two ops have run.  Only the
``campaign`` workload starts worker processes (``--workers 2``, at most the
CPU count), and BLAS/OpenMP pools are pinned to one thread per process.
Every seed the library sees is derived from ``--seed``.

``--trace 0`` reports the end-to-end metrics:

* ``op_ref_s`` -- median seconds per op, at reference host speed: each op's
  wall time divided by the host slowdown sampled while it ran
  (``hostspeed.py``).  The wall-clock figures (``op_s``, ``report_s``,
  ``campaign_trials_per_s``, ``flight_sim_s_per_s``, ``mc_lane_s_per_s``)
  are printed above the result line;
* ``setup_s`` -- median time from a fresh interpreter until the workload's
  entry point can be called, over several interpreters, at reference speed;
* ``peak_rss_mb`` -- peak RSS of this process plus its largest child.

``--trace 1`` runs the same loop, then one untraced and one traced op, and
reports the per-layer metrics of ``layers.py``; the traced op's result
fingerprint must equal the untraced one.  It prints a self-time table and
writes a Chrome trace-event file (open it in Perfetto) under ``--out``.

Human-readable lines come first; the last line of standard output is the
result as one JSON object.  The exit status is 0 when the run completed,
also when an output check failed (``correct`` is then false), and 2 when
the checkout holds no library to benchmark.
"""

from __future__ import annotations

import os

# Pin native thread pools before anything imports NumPy; worker and
# set-up processes inherit the environment.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import importlib.util
import json
import multiprocessing
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional

from hostspeed import SpeedProbe

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: The end-to-end metrics of the result line (see ``BENCHMARK.json``).
END_TO_END = ("op_ref_s", "setup_s", "peak_rss_mb")

#: Every run times at least this many ops, so that a workload whose op
#: takes about ``--seconds`` always reports a median of the same count.
MIN_OPS = 2

#: Fresh interpreters timed per run for ``setup_s`` (after one untimed
#: start that fills the bytecode cache).
SETUP_SAMPLES = 7


def _parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("report", "campaign", "flight", "gust_mc", "all"),
                        help="'all' runs every workload in turn, each ending "
                             "with its own result line")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes: every workload in seconds")
    parser.add_argument("--out", default=str(ROOT / ".perfbench"),
                        help="directory for result files, traces and scratch")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _git(*args: str) -> Optional[str]:
    # The ceiling keeps git from searching directories above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), *args],
            capture_output=True, text=True, timeout=30, check=True, env=env,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def manifest(args: argparse.Namespace, workload) -> Dict[str, Any]:
    """Where and on what this result was measured."""
    import numpy

    toplevel = _git("rev-parse", "--show-toplevel")
    in_git = toplevel is not None and Path(toplevel).resolve() == ROOT
    status = _git("status", "--porcelain", "--untracked-files=no") if in_git else None
    return {
        "git_sha": _git("rev-parse", "HEAD") if in_git else None,
        "git_dirty": None if status is None else bool(status),
        "host": platform.node(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {
            var: os.environ.get(var)
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "workload": workload.name,
        "seed": args.seed,
        "sizes": workload.sizes(),
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
    }


def measure_setup_s(code: str, samples: int) -> List[float]:
    """Seconds from spawning a fresh interpreter until ``code`` has run."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    script = f"{code}\nprint('ready', flush=True)"
    times = []
    for _ in range(samples + 1):
        start = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, "-c", script],
            stdout=subprocess.PIPE, env=env, cwd=str(ROOT), text=True,
        )
        try:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - start
        finally:
            child.stdout.close()
            status = child.wait(timeout=60)
        if line.strip() != "ready" or status != 0:
            raise RuntimeError(f"set-up probe failed (exit {status}): {code}")
        times.append(elapsed)
    return times[1:]


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest of its finished children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _load_harness():
    """``benchmarks/perf/harness.py``, for its array-construction counter."""
    path = ROOT / "benchmarks" / "perf" / "harness.py"
    spec = importlib.util.spec_from_file_location("perf_harness", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@dataclass
class Loop:
    """What the closed loop measured, one entry per op."""

    wall_s: List[float]
    slowdowns: List[float]
    fingerprints: List[str]
    outputs: List[Any]

    @property
    def ref_s(self) -> List[float]:
        return [wall / slow for wall, slow in zip(self.wall_s, self.slowdowns)]


def _join_workers() -> None:
    """Wait for the worker processes an op left shutting down."""
    for child in multiprocessing.active_children():
        child.join(timeout=60)


def closed_loop(workload, seconds: float) -> Loop:
    """Run ops back to back until ``seconds`` have passed and at least
    :data:`MIN_OPS` have run.

    Garbage from the previous op is collected before each op starts, so
    every op begins from the same heap.
    """
    loop = Loop([], [], [], [])
    start = time.perf_counter()
    while True:
        gc.collect()
        began = time.perf_counter()
        with SpeedProbe() as probe:
            fingerprint, output = workload.op()
        ended = time.perf_counter()
        _join_workers()
        loop.wall_s.append(ended - began - probe.handler_s)
        loop.slowdowns.append(probe.slowdown)
        loop.fingerprints.append(fingerprint)
        loop.outputs.append(output)
        if ended - start >= seconds and len(loop.wall_s) >= MIN_OPS:
            return loop


def tally(workload, outputs: List[Any], fingerprints: List[str]):
    """``(attempted, failed, problems)`` over every op's output checks.

    An op whose fingerprint differs from the first op's fails as a whole;
    the once-per-invocation ``verify`` checks run on the first op.
    """
    attempted = failed = 0
    problems: List[str] = []
    for index, output in enumerate(outputs):
        checked = workload.check(output)
        attempted += checked.attempted
        if fingerprints[index] != fingerprints[0]:
            failed += checked.attempted
            problems.append(f"op {index}: fingerprint {fingerprints[index]} differs from op 0")
        else:
            failed += min(len(checked.failures), checked.attempted)
        problems += [f"op {index}: {text}" for text in checked.failures]
    verified = workload.verify(outputs[0])
    attempted += verified.attempted
    failed += len(verified.failures)
    problems += [f"verify: {text}" for text in verified.failures]
    return attempted, failed, problems


def traced_run(workload, untraced_op_s: float) -> Dict[str, Any]:
    """One traced op plus what the per-layer metrics need around it."""
    import layers
    from tracing import Tracer

    harness = _load_harness()
    # The traced campaign runs inline so every span is in this process.
    inline = workload.name == "campaign"
    # Tracing overhead is judged against an untraced op run just before
    # the traced one, in the same mode and equally warm.
    began = time.perf_counter()
    _, baseline_output = workload.op(inline=inline)
    baseline_s = time.perf_counter() - began
    workload.discard(baseline_output)
    parallel_eff = 0.0
    exec_counts: Dict[str, float] = {}
    if inline:
        parallel_eff = baseline_s / (workload.workers * untraced_op_s)
        exec_counts = workload.exec_counts()

    tracer = Tracer(keep_durations=layers.PERCENTILE_SPANS)
    result: Dict[str, Any] = {}

    def op() -> None:
        began = time.perf_counter()
        with tracer.span(f"{workload.name}.op"):
            result["fingerprint"], result["output"] = workload.op(inline=inline)
        result["wall_s"] = time.perf_counter() - began

    with tracer.installed(layers.TARGETS):
        constructions = harness.count_array_constructions(op)
    traced_s = result["wall_s"]
    metrics = layers.layer_metrics(
        tracer, traced_s, baseline_s, constructions, workload.alloc_engine,
        exec_counts, parallel_eff,
    )
    return {
        "tracer": tracer,
        "fingerprint": result["fingerprint"],
        "output": result["output"],
        "traced_s": traced_s,
        "baseline_s": baseline_s,
        "metrics": metrics,
        "json": layers.json_metrics(metrics, traced_s),
    }


def _fmt(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no library at {SRC / 'repro'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="scratch-", dir=str(out_dir))
    tempfile.tempdir = scratch
    os.environ["TMPDIR"] = scratch
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        for name in names:
            _run(args, WORKLOADS[name](args.seed, args.tiny, scratch), out_dir)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


def _run(args: argparse.Namespace, workload, out_dir: Path) -> None:
    info = manifest(args, workload)
    with SpeedProbe() as setup_probe:
        setup_times = measure_setup_s(workload.setup_code, 1 if args.tiny else SETUP_SAMPLES)
    exec(workload.setup_code, {})
    workload.warm_up()

    loop = closed_loop(workload, args.seconds)
    rss_mb = peak_rss_mb()
    op_s = statistics.median(loop.wall_s)
    attempted, failed, problems = tally(workload, loop.outputs, loop.fingerprints)

    traced = None
    if args.trace:
        traced = traced_run(workload, op_s)
        if traced["fingerprint"] != loop.fingerprints[0]:
            problems.append(f"traced fingerprint {traced['fingerprint']} differs from untraced")
            failed += 1
        workload.discard(traced["output"])

    end_to_end = {
        "op_ref_s": (statistics.median(loop.ref_s), "s"),
        "setup_s": (statistics.median(setup_times) / setup_probe.slowdown, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "op_s": (op_s, "s"),
        "setup_wall_s": (statistics.median(setup_times), "s"),
        "failed_frac": (failed / attempted, "ratio"),
        **workload.named_metrics(op_s, loop.outputs[-1]),
    }
    for output in loop.outputs:
        workload.discard(output)

    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace}")
    print("manifest " + json.dumps(info, sort_keys=True))
    print(f"ops {len(loop.wall_s)}, wall s: " + " ".join(f"{t:.4f}" for t in loop.wall_s))
    print("  host slowdown: " + " ".join(f"{s:.3f}" for s in loop.slowdowns)
          + f"; during set-up {setup_probe.slowdown:.3f}")
    print("  set-up wall s: " + " ".join(f"{t:.4f}" for t in setup_times))
    print(f"fingerprint {loop.fingerprints[0]}")
    for name, (value, unit) in end_to_end.items():
        print(f"  {name:<24} {_fmt(value):>14} {unit}")
    for text in problems:
        print(f"CHECK FAILED {text}")

    if traced is None:
        result_metrics = {
            name: {"value": end_to_end[name][0], "unit": end_to_end[name][1]}
            for name in END_TO_END
        }
    else:
        _report_trace(workload, args, traced, info, out_dir)
        result_metrics = traced["json"]

    record = {
        "manifest": info,
        "op_wall_s": loop.wall_s,
        "host_slowdown": loop.slowdowns,
        "setup_wall_s": setup_times,
        "fingerprint": loop.fingerprints[0],
        "traced_fingerprint": None if traced is None else traced["fingerprint"],
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()},
        "per_layer": None if traced is None else {
            k: {"value": v, "unit": u} for k, (v, u) in traced["metrics"].items()
        },
        "problems": problems,
    }
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"result-{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": result_metrics,
    }))


def _report_trace(workload, args, traced: Dict[str, Any], info, out_dir: Path) -> None:
    tracer = traced["tracer"]
    wall = traced["traced_s"]
    print(f"traced op {wall:.4f} s, untraced {traced['baseline_s']:.4f} s, "
          f"fingerprint {traced['fingerprint']}")
    print(f"{'span':<22} {'calls':>9} {'total_s':>10} {'self_s':>10} {'share':>7}")
    for name, calls, total, own, share in tracer.self_time_table(wall):
        print(f"{name:<22} {calls:>9} {total:>10.4f} {own:>10.4f} {share:>7.1%}")
    print("per-layer metrics:")
    idle = []
    for name, (value, unit) in traced["metrics"].items():
        if value:
            print(f"  {name:<26} {_fmt(value):>14} {unit}")
        else:
            idle.append(name)
    print("  zero (layer not called by this workload): " + " ".join(idle))
    path = out_dir / f"trace-{workload.name}-seed{args.seed}.json"
    tracer.write_chrome_trace(str(path), metadata=info)
    print(f"chrome trace {path} ({len(tracer.events)} events, "
          f"{tracer.dropped_events} beyond the per-span cap)")


if __name__ == "__main__":
    sys.exit(main())
