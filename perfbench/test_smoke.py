"""Smoke tests for the benchmark itself, at ``--tiny`` sizes.

    python3 -m pytest perfbench -q

They run every workload traced, with its checks and trace export, and
check the pieces the result line depends on.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import layers  # noqa: E402
import run  # noqa: E402
from tracing import Target, Tracer  # noqa: E402
from workloads import REPORT_ARTIFACTS, ReportWorkload  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(tmp_path: Path, *args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args, "--out", str(tmp_path)],
        cwd=str(cwd), capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_traced_run_checks_and_exports(tmp_path, workload):
    done = _bench(tmp_path, "--workload", workload, "--seed", "7", "--seconds", "0.1",
                  "--trace", "1", "--tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]

    record = json.loads((tmp_path / f"result-{workload}-seed7-trace1.json").read_text())
    assert record["traced_fingerprint"] == record["fingerprint"]
    assert record["manifest"]["blas_threads"]["OPENBLAS_NUM_THREADS"] == "1"

    trace = json.loads((tmp_path / f"trace-{workload}-seed7.json").read_text())
    events = trace["traceEvents"]
    ids = {event["args"]["id"] for event in events}
    assert events and all(e["args"]["parent"] in ids | {None} for e in events)
    assert any(e["args"]["parent"] is not None for e in events)


def test_untraced_run_reports_every_end_to_end_metric(tmp_path):
    done = _bench(tmp_path, "--workload", "flight", "--seed", "3", "--seconds", "0.1",
                  "--trace", "0", "--tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"]
    metrics = result["metrics"]
    assert list(metrics) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(metrics[m["name"]]["unit"] == m["unit"] for m in SPEC["end_to_end"])
    assert all(entry["value"] > 0 for entry in metrics.values())


def test_benchmark_json_lists_the_per_layer_metrics():
    assert SPEC["per_layer"] == layers.json_metric_specs()


@pytest.fixture(scope="module")
def tiny_report(tmp_path_factory):
    workload = ReportWorkload(seed=0, tiny=True, scratch=str(tmp_path_factory.mktemp("report")))
    fingerprint, out = workload.op()
    return workload, fingerprint, out


def test_corrupted_artifact_raises_failed_frac(tiny_report, tmp_path):
    workload, fingerprint, out = tiny_report
    attempted, failed, problems = run.tally(workload, [out], [fingerprint])
    assert (attempted, failed, problems) == (len(REPORT_ARTIFACTS), 0, [])

    corrupt = shutil.copytree(out, tmp_path / "corrupt")
    csv_path = corrupt / "fig08b_frame_fit.csv"
    header, row = csv_path.read_text().splitlines()[:2]
    csv_path.write_text(header + "\n" + ",".join(["nan"] + row.split(",")[1:]) + "\n")
    (corrupt / "fig14_weight_breakdown.csv").unlink()
    attempted, failed, problems = run.tally(workload, [str(corrupt)], [fingerprint])
    assert failed == 2 and attempted == len(REPORT_ARTIFACTS)
    assert any("fig08b" in text and "non-finite" in text for text in problems)
    assert any("fig14" in text and "missing" in text for text in problems)


def test_differing_fingerprint_fails_the_op(tiny_report):
    workload, fingerprint, out = tiny_report
    attempted, failed, problems = run.tally(workload, [out, out], [fingerprint, "other"])
    assert failed == attempted / 2 and "fingerprint" in problems[0]


def test_refuses_a_directory_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench(tmp_path / "out", "--workload", "report", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()


def test_shims_time_calls_and_restore_originals(tmp_path):
    import repro.report as report

    original = report.export_reference_build
    tracer = Tracer(events_per_name=1)
    with tracer.installed([Target("outer", "repro.report", "export_reference_build")]):
        assert report.export_reference_build is not original
        report.export_reference_build(str(tmp_path), [])
        report.export_reference_build(str(tmp_path), [])
    assert report.export_reference_build is original
    assert tracer.calls("outer") == 2 and tracer.dropped_events == 1
    assert tracer.self_s("outer") == tracer.total_s("outer") > 0
