"""End-to-end tests for the ``repro bench`` flow (repro.perf.bench).

Gate/exit-code behavior is tested with a stubbed ``time_cell`` so the
cycles/s trajectory is deterministic; a short real run and a real
``profile_cell`` pass keep the simulator wiring honest.
"""

import argparse
import json

import pytest

from repro.perf import bench as bench_mod
from repro.perf.bench import (
    BenchOptions,
    QUICK_DURATION,
    add_cli_arguments,
    matrix,
    options_from_args,
    profile_cell,
    run_bench_cli,
)
from repro.telemetry import STEP_PHASES


def fake_time_cell(cps):
    def _cell(topology, injection_rate, scenario, duration, seed):
        return {
            "technique": "IntelliNoC",
            "topology": topology,
            "grid": "8x8",
            "scenario": scenario,
            "injection_rate": injection_rate,
            "simulated_cycles": duration,
            "wall_seconds": round(duration / cps, 4),
            "cycles_per_second": cps,
            "flits_delivered": duration * 10,
            "flits_per_second": cps * 10,
            "packets_completed": duration,
        }

    return _cell


def fake_profile_cell(topology, injection_rate, scenario, duration, seed):
    return {
        "stride": 1,
        "steps_profiled": duration,
        "profiled_cycles": duration,
        "top_phase": "router.switch",
        "hot_spots": [["router.switch", 1.5, 0.6], ["link.deliver", 0.5, 0.2]],
        "overhead_share": 0.1,
        "hottest_router": {"router": 27, "busy_share": 0.9, "mean_flits": 3.2},
    }


def run_stubbed(monkeypatch, cps, **options):
    monkeypatch.setattr(bench_mod, "time_cell", fake_time_cell(cps))
    monkeypatch.setattr(bench_mod, "profile_cell", fake_profile_cell)
    return run_bench_cli(BenchOptions(quick=True, **options))


class TestMatrix:
    def test_full_matrix_covers_topology_rate_scenario(self):
        cells = matrix(quick=False)
        assert len(cells) == 9  # 2 fabrics x 2 rates x 2 scenarios + light point
        assert ("torus", 0.4, "aging-cliff") in cells
        assert ("mesh", 0.02, "") in cells

    def test_quick_matrix_is_mesh_scenario_off_only(self):
        assert matrix(quick=True) == [("mesh", 0.1, ""), ("mesh", 0.4, "")]


class TestGateExitCodes:
    def test_first_record_passes_check_without_baseline(
        self, tmp_path, monkeypatch, capsys
    ):
        out = tmp_path / "bench.json"
        assert run_stubbed(monkeypatch, 100.0, out=out, check=True) == 0
        assert "no comparable baseline" in capsys.readouterr().out

    def test_steady_throughput_passes(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "bench.json"
        run_stubbed(monkeypatch, 100.0, out=out)
        assert run_stubbed(monkeypatch, 99.0, out=out, check=True) == 0
        assert "perf gate: PASS" in capsys.readouterr().out

    def test_regression_fails_the_gate(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "bench.json"
        run_stubbed(monkeypatch, 100.0, out=out)
        assert run_stubbed(monkeypatch, 50.0, out=out, check=True) == 1
        assert "perf gate: FAIL" in capsys.readouterr().out

    def test_warn_only_reports_but_exits_zero(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "bench.json"
        run_stubbed(monkeypatch, 100.0, out=out)
        code = run_stubbed(
            monkeypatch, 50.0, out=out, check=True, warn_only=True
        )
        assert code == 0
        assert "perf gate: FAIL" in capsys.readouterr().out

    def test_every_run_appends_to_history(self, tmp_path, monkeypatch):
        out = tmp_path / "bench.json"
        for cps in (100.0, 80.0, 120.0):
            run_stubbed(monkeypatch, cps, out=out)
        history = json.loads(out.read_text())
        assert [r["id"] for r in history["history"]] == [1, 2, 3]
        assert history["history"][2]["deltas"]["baseline_id"] == 2


class TestReportFlow:
    def test_report_without_history_is_a_usage_error(self, tmp_path):
        code = run_bench_cli(
            BenchOptions(report_only=True, out=tmp_path / "missing.json")
        )
        assert code == 2

    def test_report_renders_latest_record_with_hot_spots(
        self, tmp_path, monkeypatch, capsys
    ):
        out = tmp_path / "bench.json"
        run_stubbed(monkeypatch, 100.0, out=out, label="stub run")
        capsys.readouterr()
        report_out = tmp_path / "report.md"
        code = run_bench_cli(
            BenchOptions(report_only=True, out=out, report_out=report_out)
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "# Cycle-throughput bench — record #1" in text
        assert "top phase: `router.switch`" in text
        assert report_out.read_text() == text  # print() and the file agree

    def test_report_out_is_written_alongside_a_run(self, tmp_path, monkeypatch):
        out = tmp_path / "bench.json"
        report_out = tmp_path / "nested" / "report.md"
        run_stubbed(monkeypatch, 100.0, out=out, report_out=report_out)
        assert "Throughput matrix" in report_out.read_text()


class TestArgumentPlumbing:
    def parse(self, argv):
        parser = argparse.ArgumentParser()
        add_cli_arguments(parser)
        return options_from_args(parser.parse_args(argv))

    def test_defaults(self):
        options = self.parse([])
        assert options == BenchOptions()
        assert options.effective_duration == bench_mod.FULL_DURATION

    def test_flags_round_trip(self, tmp_path):
        out = tmp_path / "bench.json"
        options = self.parse(
            [
                "--quick", "--check", "--threshold", "0.9", "--warn-only",
                "--no-profile", "--label", "ci", "--out", str(out), "--top", "3",
            ]
        )
        assert options.quick and options.check and options.warn_only
        assert options.threshold == pytest.approx(0.9)
        assert options.profile is False
        assert options.label == "ci"
        assert options.out == out
        assert options.top == 3
        assert options.effective_duration == QUICK_DURATION

    def test_explicit_duration_wins(self):
        assert self.parse(["--quick", "--duration", "123"]).effective_duration == 123


class TestRealSimulator:
    def test_short_real_bench_records_throughput(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        code = run_bench_cli(
            BenchOptions(quick=True, duration=60, out=out, profile=False)
        )
        assert code == 0
        (record,) = json.loads(out.read_text())["history"]
        assert len(record["points"]) == 2
        assert all(p["cycles_per_second"] > 0 for p in record["points"])
        assert record["profiles"] == {}
        assert "cyc/s" in capsys.readouterr().out

    def test_profile_cell_attributes_step_phases(self):
        profile = profile_cell("mesh", 0.4, "", 150, 7)
        assert profile["steps_profiled"] == 150
        assert profile["top_phase"] in STEP_PHASES
        assert profile["hot_spots"]
        assert 0.0 <= profile["overhead_share"] < 1.0
        assert profile["hottest_router"]["busy_share"] > 0
