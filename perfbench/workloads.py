"""The four benchmark workloads: what each runs, checks and reports.

Each workload drives one public entry point of the library and nothing
else.  ``op()`` is one closed-loop unit of work; its first return value is
a result fingerprint (a hex digest) that must be identical for every op of
one invocation, traced or not.  ``check()`` judges one op's outputs and
``verify()`` runs the once-per-invocation checks that cost a re-flight;
both run outside the timed region.

Sizes are fixed per workload so that a run-to-run difference is a speed
difference; ``tiny=True`` shrinks every size so the smoke tests run each
workload, check and trace export in seconds.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import random
import re
import shutil
import tempfile
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple


@dataclass
class CheckResult:
    """Operations judged and the reasons any of them failed."""

    attempted: int
    failures: List[str] = field(default_factory=list)


def _digest(chunks) -> str:
    sha = hashlib.sha256()
    for chunk in chunks:
        sha.update(chunk if isinstance(chunk, bytes) else str(chunk).encode())
    return sha.hexdigest()


def _dir_digest(path: str) -> str:
    """Digest of every file's relative name and bytes under ``path``."""
    files = sorted(
        os.path.relpath(os.path.join(base, name), path)
        for base, _, names in os.walk(path)
        for name in names
    )
    chunks: List[bytes] = []
    for rel in files:
        with open(os.path.join(path, rel), "rb") as handle:
            chunks += [rel.encode(), handle.read()]
    return _digest(chunks)


class Workload:
    """Base class; see the module docstring."""

    name = ""
    #: Python statement a fresh interpreter runs before the entry point
    #: can be called; its duration is ``setup_s``.
    setup_code = ""
    #: Which step loop the traced op's array constructions are divided by.
    alloc_engine: Optional[str] = None

    def __init__(self, seed: int, tiny: bool, scratch: str) -> None:
        self.seed = seed
        self.tiny = tiny
        self.scratch = scratch

    def sizes(self) -> Dict[str, Any]:
        raise NotImplementedError

    def op(self, inline: bool = False) -> Tuple[str, Any]:
        raise NotImplementedError

    def check(self, output: Any) -> CheckResult:
        raise NotImplementedError

    def verify(self, output: Any) -> CheckResult:
        return CheckResult(attempted=0)

    def named_metrics(self, op_s: float, output: Any) -> Dict[str, Tuple[float, str]]:
        raise NotImplementedError

    def warm_up(self) -> None:
        """One untimed op at tiny sizes, so first-call costs (lazy imports,
        NumPy dispatch caches) stay out of the first timed op."""
        twin = type(self)(self.seed, True, self.scratch)
        twin.discard(twin.op()[1])

    def _fresh_dir(self) -> str:
        return tempfile.mkdtemp(prefix=f"{self.name}-", dir=self.scratch)

    def discard(self, output: Any) -> None:
        """Release what one op left on disk."""


# -- report --------------------------------------------------------------------

#: Every artifact ``generate_report`` writes.
REPORT_ARTIFACTS = (
    "fig07_battery_fits.csv",
    "fig08a_esc_fits.csv",
    "fig08b_frame_fit.csv",
    "fig09_motor_current.csv",
    "fig10_validation_diamonds.csv",
    "fig10abc_power_sweep.csv",
    "fig10def_compute_footprint.csv",
    "fig11_small_drones.csv",
    "fig14_weight_breakdown.csv",
    "fig15_perf_counters.csv",
    "fig16a_rpi_power.csv",
    "fig16b_drone_power.csv",
    "fig17_slam_speedups.csv",
    "summary.txt",
    "table5_platform_costs.csv",
)

#: The paper's published headline numbers that the report reproduces.
PAPER_VALUES = {
    "fig08b_frame_slope": 1.277,
    "fig15_ipc_degradation": 1.7,
    "fig15_tlb_multiplier": 4.5,
    "fig15_separate_rpi": 2.3,
    "fig17_tx2_geomean": 2.16,
    "fig17_fpga_geomean": 30.70,
    "fig17_asic_geomean": 23.53,
}


def _read_csv(path: str) -> List[Dict[str, str]]:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def check_report_dir(path: str) -> CheckResult:
    """Every artifact is written, non-empty, and every number in it finite."""
    present = set(os.listdir(path)) if os.path.isdir(path) else set()
    names = sorted(present | set(REPORT_ARTIFACTS))
    result = CheckResult(attempted=len(names))
    for name in names:
        full = os.path.join(path, name)
        if name not in present:
            result.failures.append(f"{name}: missing")
            continue
        with open(full, newline="") as handle:
            text = handle.read()
        if not text.strip():
            result.failures.append(f"{name}: empty")
            continue
        if name.endswith(".csv"):
            rows = list(csv.reader(io.StringIO(text)))
            cells = [cell for row in rows[1:] for cell in row]
            if len(rows) < 2:
                result.failures.append(f"{name}: no data rows")
                continue
        else:
            cells = re.findall(r"[\w.+-]+", text)
        bad = [cell for cell in cells if _is_nonfinite_number(cell)]
        if bad:
            result.failures.append(f"{name}: non-finite value {bad[0]!r}")
    return result


def _is_nonfinite_number(cell: str) -> bool:
    try:
        return not math.isfinite(float(cell))
    except ValueError:
        return False


def paper_headlines(path: str) -> Dict[str, float]:
    """The reproduced headline numbers, read back from the exported files."""
    frame = _read_csv(os.path.join(path, "fig08b_frame_fit.csv"))[0]
    ipc = {
        row["workload"]: float(row["ipc"])
        for row in _read_csv(os.path.join(path, "fig15_perf_counters.csv"))
    }
    with open(os.path.join(path, "summary.txt")) as handle:
        summary = handle.read()
    tlb = re.search(r"TLB x([0-9.]+)", summary)
    separate = re.search(r"separate-RPi ([0-9.]+)x", summary)
    if tlb is None or separate is None:
        raise ValueError("summary.txt lacks the Fig 15 TLB / separate-RPi figures")
    logs: Dict[str, List[float]] = {}
    for row in _read_csv(os.path.join(path, "fig17_slam_speedups.csv")):
        logs.setdefault(row["platform"], []).append(math.log(float(row["speedup_over_rpi"])))
    geomean = {name: math.exp(sum(v) / len(v)) for name, v in logs.items()}
    return {
        "fig08b_frame_slope": float(frame["slope"]),
        "fig15_ipc_degradation": ipc["autopilot"] / ipc["autopilot_w_slam"],
        "fig15_tlb_multiplier": float(tlb.group(1)),
        "fig15_separate_rpi": float(separate.group(1)),
        "fig17_tx2_geomean": geomean["TX2"],
        "fig17_fpga_geomean": geomean["FPGA"],
        "fig17_asic_geomean": geomean["ASIC"],
    }


def paper_rel_err(path: str) -> float:
    """Mean relative error of the headline numbers against the paper."""
    got = paper_headlines(path)
    errors = [abs(got[key] - paper) / paper for key, paper in PAPER_VALUES.items()]
    return sum(errors) / len(errors)


class ReportWorkload(Workload):
    """``generate_report`` into a fresh directory with cold library caches.

    The report has no seeded input: its sequences and traces are fixed by
    the paper, so ``--seed`` only labels the run.
    """

    name = "report"
    setup_code = "import repro; from repro.report import generate_report"

    def warm_up(self) -> None:
        """None: a tiny report still costs seconds, and every run pays the
        same first-call costs in its one timed op."""

    def sizes(self) -> Dict[str, Any]:
        if self.tiny:
            return {"slam_frames": 12, "trace_length": 2_000}
        return {"slam_frames": 80, "trace_length": 60_000}

    def op(self, inline: bool = False) -> Tuple[str, Any]:
        import repro
        from repro.report import generate_report

        out = self._fresh_dir()
        repro.clear_all_caches()
        generate_report(output_dir=out, **self.sizes())
        return _dir_digest(out), out

    def check(self, output: str) -> CheckResult:
        return check_report_dir(output)

    def named_metrics(self, op_s: float, output: str) -> Dict[str, Tuple[float, str]]:
        return {
            "report_s": (op_s, "s"),
            "paper_rel_err": (paper_rel_err(output), "ratio"),
        }

    def discard(self, output: str) -> None:
        shutil.rmtree(output, ignore_errors=True)


# -- campaign ------------------------------------------------------------------


class CampaignWorkload(Workload):
    """The ``python -m repro.chaos`` CLI, called through ``main(argv)``.

    Everything but the seed, trial count, duration, worker count and
    output directory stays at the CLI defaults.
    """

    name = "campaign"
    setup_code = "from repro.chaos.__main__ import main"

    def __init__(self, seed: int, tiny: bool, scratch: str) -> None:
        super().__init__(seed, tiny, scratch)
        self.workers = min(2, os.cpu_count() or 1)

    def sizes(self) -> Dict[str, Any]:
        if self.tiny:
            return {"trials": 2, "duration_s": 6.0, "workers": self.workers}
        return {"trials": 40, "duration_s": 10.0, "workers": self.workers}

    def config(self):
        from repro.chaos.campaign import CampaignConfig

        sizes = self.sizes()
        return CampaignConfig(
            campaign_seed=self.seed,
            trials=sizes["trials"],
            duration_s=sizes["duration_s"],
        )

    def argv(self, out: str, inline: bool) -> List[str]:
        sizes = self.sizes()
        argv = [
            "--seed", str(self.seed),
            "--trials", str(sizes["trials"]),
            "--duration", str(sizes["duration_s"]),
            "--workers", str(self.workers),
            "--output", out,
        ]
        return argv + (["--inline"] if inline else [])

    def op(self, inline: bool = False) -> Tuple[str, Any]:
        from repro.chaos.__main__ import main

        out = self._fresh_dir()
        with contextlib.redirect_stdout(io.StringIO()):
            status = main(self.argv(out, inline))
        return _dir_digest(out), (status, out)

    def _report(self, out: str) -> Dict[str, Any]:
        with open(os.path.join(out, "campaign.json")) as handle:
            return json.load(handle)

    def check(self, output) -> CheckResult:
        status, out = output
        trials = self.sizes()["trials"]
        result = CheckResult(attempted=trials)
        if status != 0:
            result.failures.append(f"CLI exited {status}")
            return result
        try:
            report = self._report(out)
        except (OSError, ValueError) as exc:
            result.failures.append(f"campaign.json unreadable: {exc}")
            return result
        judged = report["safe"] + report["violations"] + report["crashes"]
        if report["trials"] != trials or judged != trials:
            result.failures.append(
                f"campaign.json counts {report['trials']} trials, {judged} judged, "
                f"expected {trials}"
            )
        return result

    def verify(self, output) -> CheckResult:
        """Re-fly every failed trial from its on-disk black-box trace."""
        from repro.chaos.recorder import BlackBoxTrace
        from repro.chaos.runner import replay_trial

        _, out = output
        traces_dir = os.path.join(out, "traces")
        names = sorted(os.listdir(traces_dir)) if os.path.isdir(traces_dir) else []
        result = CheckResult(attempted=len(names))
        report = self._report(out)
        if len(names) != report["violations"] + report["crashes"]:
            result.failures.append(
                f"{len(names)} black-box traces for "
                f"{report['violations'] + report['crashes']} failed trials"
            )
        config = self.config()
        for name in names:
            with open(os.path.join(traces_dir, name)) as handle:
                trace = BlackBoxTrace.from_json(handle.read())
            replayed = replay_trial(trace, config)
            if replayed.trace is None or replayed.trace.fingerprint() != trace.fingerprint():
                result.failures.append(f"{name}: replay fingerprint differs")
        return result

    def exec_counts(self) -> Dict[str, int]:
        """Pool size and chunk count ``ParallelSweepRunner`` uses here."""
        from repro.core.parallel import SweepRunnerConfig, chunk_items

        config = SweepRunnerConfig(max_workers=self.workers)
        trials = self.sizes()["trials"]
        chunks = len(chunk_items(range(trials), config.chunk_size))
        return {
            "exec.workers": min(config.resolved_workers, trials, chunks),
            "exec.chunks": chunks,
        }

    def named_metrics(self, op_s: float, output) -> Dict[str, Tuple[float, str]]:
        report = self._report(output[1])
        return {
            "campaign_trials_per_s": (self.sizes()["trials"] / op_s, "trials/s"),
            "campaign_crashes": (report["crashes"], "count"),
            "campaign_violations": (report["violations"], "count"),
        }

    def discard(self, output) -> None:
        shutil.rmtree(output[1], ignore_errors=True)


# -- flight --------------------------------------------------------------------


@dataclass
class FlightOutput:
    final_position_m: Tuple[float, float, float]
    envelope_breach: Optional[str]
    ekf_resets: int


class FlightWorkload(Workload):
    """One closed-loop EKF flight of the reference drone in seeded gusts:
    hover at 5 m, then a 10 m step to a waypoint."""

    name = "flight"
    setup_code = (
        "from repro.sim.simulator import FlightSimulator; "
        "from repro.reference.build import simulator_model; "
        "from repro.physics.environment import Wind; "
        "from repro.faults.envelope import DEFAULT_CRASH_ENVELOPE"
    )
    alloc_engine = "sim"
    hover_m = (0.0, 0.0, 5.0)
    waypoint_m = (10.0, 0.0, 5.0)
    #: Envelope and finiteness are checked once per this much flight.
    check_period_s = 0.1

    def sizes(self) -> Dict[str, Any]:
        if self.tiny:
            return {"physics_rate_hz": 500.0, "hover_s": 1.0, "step_s": 1.0, "gust_m_s": 2.0}
        return {"physics_rate_hz": 500.0, "hover_s": 10.0, "step_s": 20.0, "gust_m_s": 2.0}

    def op(self, inline: bool = False) -> Tuple[str, Any]:
        import numpy as np

        from repro.faults.envelope import DEFAULT_CRASH_ENVELOPE
        from repro.physics.environment import Wind
        from repro.reference.build import simulator_model
        from repro.sim.simulator import FlightSimulator

        sizes = self.sizes()
        sim = FlightSimulator(
            simulator_model(),
            physics_rate_hz=sizes["physics_rate_hz"],
            use_ekf=True,
            wind=Wind(gust_speed_m_s=sizes["gust_m_s"], seed=self.seed),
        )
        breach: Optional[str] = None
        for target, duration_s in (
            (self.hover_m, sizes["hover_s"]),
            (self.waypoint_m, sizes["step_s"]),
        ):
            sim.goto(target)
            for _ in range(int(round(duration_s / self.check_period_s))):
                sim.run_for(self.check_period_s)
                state = sim.body.state
                if breach is None:
                    if not all(
                        np.isfinite(v).all()
                        for v in (state.position_m, state.velocity_m_s, state.quaternion)
                    ):
                        breach = f"non-finite state at t={sim.time_s:.2f}s"
                    else:
                        reason = DEFAULT_CRASH_ENVELOPE.crash_reason(sim)
                        if reason is not None:
                            breach = f"{reason} at t={sim.time_s:.2f}s"
        state = sim.body.state
        digest = _digest(
            [s.position_m.tobytes() for s in sim.samples]
            + [state.position_m.tobytes(), state.velocity_m_s.tobytes(),
               state.quaternion.tobytes(), sim.ekf.state.tobytes(),
               repr(sim.battery.state_of_charge)]
        )
        output = FlightOutput(
            final_position_m=tuple(float(v) for v in state.position_m),
            envelope_breach=breach,
            ekf_resets=sim.ekf_resets,
        )
        return digest, output

    def check(self, output: FlightOutput) -> CheckResult:
        result = CheckResult(attempted=1)
        if output.envelope_breach is not None:
            result.failures.append(output.envelope_breach)
        return result

    def named_metrics(self, op_s: float, output: FlightOutput) -> Dict[str, Tuple[float, str]]:
        sizes = self.sizes()
        error = math.dist(output.final_position_m, self.waypoint_m)
        return {
            "flight_sim_s_per_s": ((sizes["hover_s"] + sizes["step_s"]) / op_s, "sim_s/s"),
            "flight_err_m": (error, "m"),
        }


# -- gust Monte Carlo ----------------------------------------------------------


class GustMonteCarloWorkload(Workload):
    """``hover_gust_monte_carlo``: one ensemble lane per wind seed."""

    name = "gust_mc"
    setup_code = (
        "from repro.sim.ensemble import hover_gust_monte_carlo; "
        "from repro.reference.build import simulator_model"
    )
    alloc_engine = "ensemble"
    target_m = (0.0, 0.0, 5.0)

    def __init__(self, seed: int, tiny: bool, scratch: str) -> None:
        super().__init__(seed, tiny, scratch)
        rng = random.Random(seed)
        lanes = self.sizes()["lanes"]
        self.wind_seeds = rng.sample(range(2**31), lanes)
        #: The lane re-flown on the scalar simulator by :meth:`verify`.
        self.sampled_lane = rng.randrange(lanes)

    def sizes(self) -> Dict[str, Any]:
        if self.tiny:
            return {"lanes": 4, "duration_s": 1.0, "physics_rate_hz": 500.0, "gust_m_s": 3.0}
        return {"lanes": 64, "duration_s": 10.0, "physics_rate_hz": 500.0, "gust_m_s": 3.0}

    def op(self, inline: bool = False) -> Tuple[str, Any]:
        from repro.reference.build import simulator_model
        from repro.sim.ensemble import hover_gust_monte_carlo

        sizes = self.sizes()
        errors = hover_gust_monte_carlo(
            simulator_model(),
            self.wind_seeds,
            gust_speed_m_s=sizes["gust_m_s"],
            duration_s=sizes["duration_s"],
            physics_rate_hz=sizes["physics_rate_hz"],
            target_m=self.target_m,
        )
        return _digest(repr(e) for e in errors), errors

    def check(self, output: List[float]) -> CheckResult:
        result = CheckResult(attempted=len(self.wind_seeds))
        if len(output) != len(self.wind_seeds):
            result.failures.append(f"{len(output)} lane results for {len(self.wind_seeds)} seeds")
        result.failures += [
            f"lane {index}: non-finite hover error {error!r}"
            for index, error in enumerate(output)
            if not math.isfinite(error)
        ]
        return result

    def verify(self, output: List[float]) -> CheckResult:
        """Re-fly the sampled lane on the scalar simulator: bit for bit."""
        import numpy as np

        from repro.physics.environment import Wind
        from repro.reference.build import simulator_model
        from repro.sim.simulator import FlightSimulator

        sizes = self.sizes()
        lane = self.sampled_lane
        sim = FlightSimulator(
            simulator_model(),
            physics_rate_hz=sizes["physics_rate_hz"],
            wind=Wind(gust_speed_m_s=sizes["gust_m_s"], seed=self.wind_seeds[lane]),
        )
        sim.goto(self.target_m)
        sim.run_for(sizes["duration_s"])
        scalar = sim.hover_position_error_m(
            np.asarray(self.target_m), since_s=sizes["duration_s"] / 2.0
        )
        result = CheckResult(attempted=1)
        if scalar != output[lane]:
            result.failures.append(
                f"lane {lane} (wind seed {self.wind_seeds[lane]}): ensemble "
                f"{output[lane]!r} != scalar {scalar!r}"
            )
        return result

    def named_metrics(self, op_s: float, output: List[float]) -> Dict[str, Tuple[float, str]]:
        sizes = self.sizes()
        return {
            "mc_lane_s_per_s": (sizes["lanes"] * sizes["duration_s"] / op_s, "lane_s/s"),
            "mc_mean_hover_err_m": (sum(output) / len(output), "m"),
        }


WORKLOADS = {
    cls.name: cls
    for cls in (ReportWorkload, CampaignWorkload, FlightWorkload, GustMonteCarloWorkload)
}
