"""Tests for the CSV report exporter."""

import csv
import os

import pytest

from repro.report import (
    export_component_fits,
    export_power_traces,
    export_reference_build,
)


def read_csv(path):
    with open(path) as handle:
        return list(csv.reader(handle))


class TestReportExports:
    def test_component_fits_export(self, tmp_path):
        summary = []
        export_component_fits(str(tmp_path), summary)
        battery = read_csv(tmp_path / "fig07_battery_fits.csv")
        assert battery[0][0] == "config"
        assert len(battery) == 7  # header + 6 configs
        esc = read_csv(tmp_path / "fig08a_esc_fits.csv")
        assert len(esc) == 3  # header + 2 classes
        assert summary  # a summary line was appended

    def test_reference_build_export(self, tmp_path):
        summary = []
        export_reference_build(str(tmp_path), summary)
        rows = read_csv(tmp_path / "fig14_weight_breakdown.csv")
        assert len(rows) == 14  # header + 13 parts
        weights = [float(row[1]) for row in rows[1:]]
        assert sum(weights) == pytest.approx(1071.0)

    def test_microarchitecture_export(self, tmp_path):
        from repro.report import export_microarchitecture

        summary = []
        export_microarchitecture(str(tmp_path), summary, trace_length=15_000)
        rows = read_csv(tmp_path / "fig15_perf_counters.csv")
        assert len(rows) == 4  # header + 3 workloads
        assert any("fig15" in line for line in summary)

    def test_slam_studies_export(self, tmp_path):
        from repro.report import export_slam_studies

        summary = []
        export_slam_studies(str(tmp_path), summary, max_frames=25)
        speedups = read_csv(tmp_path / "fig17_slam_speedups.csv")
        assert len(speedups) == 1 + 11 * 3  # header + 11 seqs x 3 platforms
        table5 = read_csv(tmp_path / "table5_platform_costs.csv")
        assert [row[0] for row in table5[1:]] == ["RPi", "TX2", "FPGA", "ASIC"]

    def test_power_trace_export(self, tmp_path):
        summary = []
        export_power_traces(str(tmp_path), summary)
        trace = read_csv(tmp_path / "fig16a_rpi_power.csv")
        assert trace[0] == ["time_s", "power_w"]
        assert len(trace) > 100
        assert os.path.exists(tmp_path / "fig16b_drone_power.csv")
        assert any("fig16" in line for line in summary)


#: Every artifact the full report writes.
REPORT_ARTIFACTS = {
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
}


class TestReportCli:
    def test_help_exits_zero_without_running(self, tmp_path, monkeypatch, capsys):
        from repro.report import main

        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            main(["--help"])
        assert exit_info.value.code == 0
        assert "output_dir" in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []

    def test_unknown_option_is_a_usage_error(self, tmp_path, monkeypatch):
        from repro.report import main

        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            main(["--frames", "3"])
        assert exit_info.value.code == 2
        assert list(tmp_path.iterdir()) == []

    def test_positional_output_dir_gets_every_artifact(self, tmp_path, capsys):
        from repro.report import main

        out = tmp_path / "report"
        assert main([str(out)]) == 0
        assert {path.name for path in out.iterdir()} == REPORT_ARTIFACTS
        assert f"written to {out}/" in capsys.readouterr().out
