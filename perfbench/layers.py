"""Which library functions the traced run times, and the per-layer metrics.

Every span sits on a public function of one layer; the benchmark never
times code inside the library.  Counts are taken at the same boundaries,
from arguments or return values, so they repeat exactly run to run.

``layer_metrics`` gives every metric by the name the layer uses, with its
unit: seconds of inclusive time in a layer (``_s``), step-time percentiles
(``_us``), counts and ratios.  ``json_metrics`` is the form the result line
carries, the same for every workload: a time becomes its share of the
traced op (``_share``), because a layer that a workload never calls has to
read 0 there, and step-time percentiles stay in the printed table only.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, List, Optional, Tuple

from tracing import Target, Tracer

#: SLAM ``Stage`` member name -> count suffix.
SLAM_STAGES = ("feature_extraction", "tracking", "local_ba", "global_ba")


def _add(counts: Dict[str, float], key: str, amount: float) -> None:
    counts[key] = counts.get(key, 0) + amount


def _slam_result(counts: Dict[str, float], result: Any, args: tuple) -> None:
    _add(counts, "slam.frames", result.frames_processed)
    _add(counts, "slam.keyframes", result.keyframes)
    _add(counts, "slam.map_points", result.map_points)
    for stage, ops in result.breakdown.operations.items():
        _add(counts, f"slam.ops.{stage.name.lower()}", ops)


def _ba_result(counts: Dict[str, float], result: Any, args: tuple) -> None:
    _add(counts, "slam.ba_iterations", result.iterations)


def _uarch_call(counts: Dict[str, float], args: tuple) -> None:
    segments = args[1]
    _add(counts, "uarch.instructions", sum(trace.length for _, trace in segments))


def _ensemble_call(counts: Dict[str, float], args: tuple) -> None:
    _add(counts, "ensemble.lane_steps", int(args[0].live.sum()))


def _trial_result(counts: Dict[str, float], result: Any, args: tuple) -> None:
    _add(counts, "chaos.trials", 1)
    _add(counts, "chaos.crashes", result.verdict == "crash")
    _add(counts, "chaos.violations", result.verdict == "violation")


TARGETS: Tuple[Target, ...] = (
    # repro.report: one span per exported figure group.
    Target("report.fits", "repro.report", "export_component_fits"),
    Target("report.design", "repro.report", "export_design_space"),
    Target("report.reference", "repro.report", "export_reference_build"),
    Target("report.uarch", "repro.report", "export_microarchitecture"),
    Target("report.power", "repro.report", "export_power_traces"),
    Target("report.slam", "repro.report", "export_slam_studies"),
    # repro.slam
    Target("slam.run", "repro.slam.pipeline", "run_slam", on_result=_slam_result),
    Target("slam.frames", "repro.slam.dataset", "CachedSequence.generate_frame"),
    Target("slam.extract", "repro.slam.features", "OrbExtractor.extract"),
    Target("slam.match", "repro.slam.matching", "match_by_projection"),
    Target("slam.track", "repro.slam.tracking", "track_pose"),
    Target("slam.local_ba", "repro.slam.bundle_adjustment", "local_bundle_adjust",
           on_result=_ba_result),
    Target("slam.global_ba", "repro.slam.bundle_adjustment", "global_bundle_adjust",
           on_result=_ba_result),
    # repro.platforms, repro.core, repro.components
    Target("uarch.run", "repro.platforms.cpu", "InOrderCore.run_segments",
           on_call=_uarch_call),
    Target("core.sweep", "repro.core.explorer", "sweep_wheelbase"),
    Target("components.catalog", "repro.components.catalog", "generate_catalog"),
    # repro.sim scalar step and the layers it calls
    Target("sim.step", "repro.sim.simulator", "FlightSimulator.step"),
    Target("sim.power_model", "repro.sim.simulator", "FlightSimulator.electrical_power_w"),
    Target("physics.body_step", "repro.physics.rigid_body", "QuadcopterBody.step"),
    Target("physics.battery_draw", "repro.physics.battery_model", "LipoBattery.draw"),
    Target("sensors.poll", "repro.sensors.suite", "SensorSuite.poll"),
    Target("control.tick", "repro.control.cascade", "HierarchicalController.tick"),
    Target("control.mix", "repro.control.mixer", "MotorMixer.mix"),
    Target("ekf.predict", "repro.control.estimation", "InsEkf.predict"),
    Target("ekf.update", "repro.control.estimation", "InsEkf.update_gps"),
    Target("ekf.update", "repro.control.estimation", "InsEkf.update_barometer"),
    Target("ekf.update", "repro.control.estimation", "InsEkf.update_magnetometer"),
    Target("ekf.reset", "repro.control.estimation", "InsEkf.reset"),
    # repro.sim.ensemble
    Target("ensemble.init", "repro.sim.ensemble", "EnsembleFlightSimulator.__init__"),
    Target("ensemble.step", "repro.sim.ensemble", "EnsembleFlightSimulator.step",
           on_call=_ensemble_call),
    # repro.autopilot, repro.faults, repro.chaos
    Target("autopilot.update", "repro.autopilot.arducopter", "Autopilot.update"),
    Target("faults.apply", "repro.faults.injectors", "FaultInjector.apply"),
    Target("chaos.monitor", "repro.chaos.invariants", "SafetyMonitor.check"),
    Target("chaos.recorder", "repro.chaos.recorder", "FlightRecorder.record"),
    Target("chaos.generate", "repro.chaos.campaign", "generate_campaign"),
    Target("chaos.trial", "repro.chaos.runner", "run_trial", on_result=_trial_result),
    Target("chaos.triage", "repro.chaos.triage", "triage"),
    Target("chaos.artifacts", "repro.chaos.triage", "CampaignReport.to_json"),
    Target("chaos.artifacts", "repro.chaos.recorder", "BlackBoxTrace.to_json"),
)

#: Spans whose every duration is kept, for percentiles.
PERCENTILE_SPANS = ("sim.step", "ensemble.step", "chaos.trial")

#: Metric -> span whose inclusive time it is.
TIME_METRICS = {
    "report.fits_s": "report.fits",
    "report.design_s": "report.design",
    "report.reference_s": "report.reference",
    "report.uarch_s": "report.uarch",
    "report.power_s": "report.power",
    "report.slam_s": "report.slam",
    "slam.frames_s": "slam.frames",
    "slam.extract_s": "slam.extract",
    "slam.match_s": "slam.match",
    "slam.track_s": "slam.track",
    "slam.local_ba_s": "slam.local_ba",
    "slam.global_ba_s": "slam.global_ba",
    "uarch.run_s": "uarch.run",
    "core.sweep_s": "core.sweep",
    "components.catalog_s": "components.catalog",
    "sim.step_s": "sim.step",
    "physics.body_step_s": "physics.body_step",
    "physics.battery_draw_s": "physics.battery_draw",
    "sim.power_model_s": "sim.power_model",
    "sensors.poll_s": "sensors.poll",
    "control.tick_s": "control.tick",
    "control.mix_s": "control.mix",
    "ekf.predict_s": "ekf.predict",
    "ekf.update_s": "ekf.update",
    "ensemble.init_s": "ensemble.init",
    "ensemble.step_s": "ensemble.step",
    "autopilot.update_s": "autopilot.update",
    "faults.apply_s": "faults.apply",
    "chaos.monitor_s": "chaos.monitor",
    "chaos.recorder_s": "chaos.recorder",
    "chaos.generate_s": "chaos.generate",
    "chaos.triage_s": "chaos.triage",
    "chaos.artifacts_s": "chaos.artifacts",
}

#: Counts, in print order; a layer a workload never calls counts 0.
COUNT_METRICS = (
    "slam.frames",
    "slam.keyframes",
    "slam.map_points",
    "slam.ba_iterations",
    *(f"slam.ops.{stage}" for stage in SLAM_STAGES),
    "uarch.instructions",
    "sim.steps",
    "ekf.predicts",
    "ekf.updates",
    "ekf.resets",
    "ensemble.steps",
    "chaos.trials",
    "chaos.crashes",
    "chaos.violations",
    "exec.workers",
    "exec.chunks",
)

#: Ratio metrics: (name, unit, better).
RATIO_METRICS = (
    ("sim.self_share", "ratio", "lower"),
    ("sim.allocs_per_step", "1/step", "lower"),
    ("ensemble.allocs_per_step", "1/step", "lower"),
    ("uarch.instr_per_s", "1/s", "higher"),
    ("exec.parallel_eff", "ratio", "higher"),
    ("trace.overhead_frac", "ratio", "lower"),
)


def _percentile(values: List[float], q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[int(q) - 1]


def layer_metrics(
    tracer: Tracer,
    traced_s: float,
    untraced_s: float,
    constructions: int,
    alloc_engine: Optional[str],
    exec_counts: Dict[str, float],
    parallel_eff: float,
) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric by its layer name: ``name -> (value, unit)``.

    ``constructions`` is the NumPy array constructions counted over the
    traced op; it is divided by the steps of ``alloc_engine``'s loop, the
    only loop that op runs.
    """
    metrics: Dict[str, Tuple[float, str]] = {}
    for name, span in TIME_METRICS.items():
        metrics[name] = (tracer.total_s(span), "s")
    counts = dict(tracer.counts)
    counts["sim.steps"] = tracer.calls("sim.step")
    counts["ensemble.steps"] = tracer.calls("ensemble.step")
    counts["ekf.predicts"] = tracer.calls("ekf.predict")
    counts["ekf.updates"] = tracer.calls("ekf.update")
    counts["ekf.resets"] = tracer.calls("ekf.reset")
    counts.update(exec_counts)
    for name in COUNT_METRICS:
        metrics[name] = (counts.get(name, 0), "count")

    steps = tracer.durations_s("sim.step")
    metrics["sim.step_us_p50"] = (_percentile(steps, 50) * 1e6, "us")
    metrics["sim.step_us_p99"] = (_percentile(steps, 99) * 1e6, "us")
    metrics["sim.self_s"] = (tracer.self_s("sim.step"), "s")
    ens = tracer.durations_s("ensemble.step")
    metrics["ensemble.step_us_p50"] = (_percentile(ens, 50) * 1e6, "us")
    metrics["ensemble.step_us_p99"] = (_percentile(ens, 99) * 1e6, "us")
    lane_steps = counts.get("ensemble.lane_steps", 0)
    metrics["ensemble.lane_step_us"] = (
        tracer.total_s("ensemble.step") / lane_steps * 1e6 if lane_steps else 0.0,
        "us",
    )
    metrics["chaos.trial_s_p50"] = (_percentile(tracer.durations_s("chaos.trial"), 50), "s")

    for engine, steps_name in (("sim", "sim.steps"), ("ensemble", "ensemble.steps")):
        engine_steps = counts[steps_name]
        per_step = constructions / engine_steps if engine == alloc_engine and engine_steps else 0.0
        metrics[f"{engine}.allocs_per_step"] = (per_step, "1/step")
    run_s = tracer.total_s("uarch.run")
    metrics["uarch.instr_per_s"] = (
        counts.get("uarch.instructions", 0) / run_s if run_s else 0.0,
        "1/s",
    )
    metrics["sim.self_share"] = (tracer.self_s("sim.step") / traced_s, "ratio")
    metrics["exec.parallel_eff"] = (parallel_eff, "ratio")
    metrics["trace.overhead_frac"] = (traced_s / untraced_s - 1.0, "ratio")
    return metrics


def json_metric_specs() -> List[Dict[str, str]]:
    """The ``per_layer`` entries of ``BENCHMARK.json``, in order."""
    specs = [
        {"name": name[: -len("_s")] + "_share", "unit": "ratio", "better": "lower"}
        for name in TIME_METRICS
    ]
    specs += [{"name": name, "unit": "count", "better": "lower"} for name in COUNT_METRICS]
    specs += [{"name": name, "unit": unit, "better": better} for name, unit, better in RATIO_METRICS]
    return specs


def json_metrics(
    metrics: Dict[str, Tuple[float, str]], traced_s: float
) -> Dict[str, Dict[str, Any]]:
    """The per-layer metrics of the result line (see the module docstring)."""
    out: Dict[str, Dict[str, Any]] = {}
    for spec in json_metric_specs():
        name = spec["name"]
        if name.endswith("_share") and name not in metrics:
            value = metrics[name[: -len("_share")] + "_s"][0] / traced_s
        else:
            value = metrics[name][0]
        out[name] = {"value": value, "unit": spec["unit"]}
    return out
