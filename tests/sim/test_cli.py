"""Tests for the ``python -m repro`` command line interface."""

import json

import pytest

from repro import bench
from repro.cli import main
from repro.sim import RunResult


def run_cli(capsys, *argv):
    status = main(list(argv))
    out = capsys.readouterr().out
    return status, out


class TestExperimentCommand:
    def test_list(self, capsys):
        status, out = run_cli(capsys, "experiment", "--list")
        assert status == 0
        for name in ("table1", "figure8", "ondemand", "l2sweep", "frontier"):
            assert name in out

    def test_list_surfaces_descriptions(self, capsys):
        status, out = run_cli(capsys, "experiment", "--list")
        assert status == 0
        # Titles alone are not enough: the registry docstrings show too.
        assert "Gated precharging: precharged subarrays" in out
        assert "Pareto frontier" in out

    def test_list_json_carries_descriptions(self, capsys):
        status, out = run_cli(capsys, "experiment", "--list", "--json")
        assert status == 0
        payload = json.loads(out)
        assert payload["figure8"]["title"].startswith("Figure 8")
        assert payload["figure8"]["description"]
        assert payload["table1"]["uses_engine"] is False
        assert "l2_policy" in payload["l2sweep"]["consumes"]

    def test_table1_smoke(self, capsys):
        status, out = run_cli(capsys, "experiment", "table1")
        assert status == 0
        assert "Table 1" in out

    def test_unknown_experiment_fails_cleanly(self, capsys):
        assert main(["experiment", "figure99"]) == 2

    def test_non_engine_experiment_declares_itself(self, capsys):
        status = main(["experiment", "table1", "--json", "--workers", "4"])
        captured = capsys.readouterr()
        assert status == 0
        payload = json.loads(captured.out)
        assert payload["uses_engine"] is False
        assert payload["runs"] == []
        assert "no effect" in captured.err

    def test_ignored_option_flags_are_noted(self, capsys):
        status = main(["experiment", "table1", "--benchmarks", "gcc"])
        captured = capsys.readouterr()
        assert status == 0
        assert "ignores --benchmarks" in captured.err

    def test_figure8_json_round_trips_through_runresult(self, capsys):
        status, out = run_cli(
            capsys,
            "experiment", "figure8", "--json",
            "--benchmarks", "gcc", "--instructions", "3000",
        )
        assert status == 0
        payload = json.loads(out)
        assert payload["experiment"] == "figure8"
        assert payload["options"]["benchmarks"] == ["gcc"]
        assert "gcc" in payload["result"]["optimum"]
        assert payload["runs"], "engine runs must be included in JSON output"
        for entry in payload["runs"]:
            rebuilt = RunResult.from_dict(entry)
            assert rebuilt.to_dict() == entry
            assert rebuilt.benchmark == "gcc"


class TestRunCommand:
    def test_human_readable(self, capsys):
        status, out = run_cli(
            capsys,
            "run", "--benchmark", "gcc", "--dcache", "gated:threshold=50",
            "--instructions", "2000",
        )
        assert status == 0
        assert "gcc" in out and "gated" in out

    def test_json_round_trip(self, capsys):
        status, out = run_cli(
            capsys,
            "run", "--benchmark", "mesa", "--instructions", "2000", "--json",
        )
        assert status == 0
        result = RunResult.from_dict(json.loads(out))
        assert result.benchmark == "mesa"
        assert result.cycles > 0

    def test_bad_policy_spec_fails_cleanly(self, capsys):
        assert main(["run", "--dcache", "not-a-policy", "--instructions", "500"]) == 2

    def test_unknown_benchmark_and_node_fail_cleanly(self, capsys):
        assert main(["run", "--benchmark", "bogus", "--instructions", "500"]) == 2
        assert main(["run", "--feature-size", "80", "--instructions", "500"]) == 2
        assert main(["sweep", "--benchmarks", "gcc,typo", "--instructions", "500"]) == 2
        err = capsys.readouterr().err
        assert "unknown benchmark" in err and "unknown technology node" in err

    def test_zero_workers_rejected_on_every_subcommand(self, capsys):
        assert main(["run", "--workers", "0", "--instructions", "500"]) == 2
        assert main(["experiment", "table1", "--workers", "0"]) == 2
        assert main(["sweep", "--workers", "0", "--instructions", "500"]) == 2

    def test_trace_io_errors_fail_cleanly(self, capsys, tmp_path):
        missing = str(tmp_path / "missing.trace.gz")
        assert main(["trace", "info", missing]) == 2
        assert main(["run", "--benchmark", f"trace:{missing}"]) == 2
        not_gzip = tmp_path / "plain.trace.gz"
        not_gzip.write_text("not a gzip stream")
        assert main(["trace", "info", str(not_gzip)]) == 2
        assert main(["run", "--benchmark", f"trace:{tmp_path}"]) == 2
        unwritable = str(tmp_path / "no" / "such" / "dir" / "x.trace.gz")
        assert main([
            "trace", "record", "--benchmark", "gcc",
            "--out", unwritable, "--instructions", "100",
        ]) == 2
        err = capsys.readouterr().err
        assert "repro: error:" in err
        assert "Traceback" not in err

    def test_bad_scenario_specs_fail_cleanly(self, capsys):
        assert main(["run", "--benchmark", "mix:gcc", "--instructions", "500"]) == 2
        assert main(["run", "--benchmark", "mix:gcc+nope", "--instructions", "500"]) == 2
        err = capsys.readouterr().err
        assert "at least two" in err and "unknown benchmark" in err

    def test_malformed_nested_scenarios_exit_2_with_position(self, capsys):
        # The satellite contract: nested scenario syntax errors surface
        # as position-annotated exit-2 messages on run, sweep and
        # experiment alike — never as a traceback.
        bad = "mix:(phases:gcc+mcf@soon)+vortex"
        assert main(["run", "--benchmark", bad, "--instructions", "500"]) == 2
        assert main(["sweep", "--benchmarks", f"gcc,{bad}",
                     "--instructions", "500"]) == 2
        assert main(["experiment", "figure8", "--benchmarks", bad,
                     "--instructions", "500"]) == 2
        err = capsys.readouterr().err
        assert err.count("at position 20") == 3
        assert "Traceback" not in err

    def test_bad_fuzz_names_exit_2(self, capsys):
        assert main(["run", "--benchmark", "fuzz:zzz",
                     "--instructions", "500"]) == 2
        assert main(["run", "--benchmark", "fuzz:1/99",
                     "--instructions", "500"]) == 2
        err = capsys.readouterr().err
        assert "fuzz seed must be an integer" in err
        assert "fuzz depth must be between" in err

    def test_nested_scenario_and_fuzz_names_run(self, capsys):
        status, out = run_cli(
            capsys,
            "run", "--benchmark", "mix:(phases:gcc+mcf@300)*2+vortex@250",
            "--instructions", "1200", "--json",
        )
        assert status == 0
        result = RunResult.from_dict(json.loads(out))
        assert result.benchmark.startswith("mix:(")
        status, out = run_cli(
            capsys,
            "run", "--benchmark", "fuzz:4", "--instructions", "1200",
            "--json", "--fast",
        )
        assert status == 0
        assert RunResult.from_dict(json.loads(out)).benchmark == "fuzz:4"

    def test_l2_policy_flag_reaches_the_simulation(self, capsys):
        status, out = run_cli(
            capsys,
            "run", "--benchmark", "gcc", "--l2-policy", "gated:threshold=500",
            "--instructions", "1500", "--json",
        )
        assert status == 0
        result = RunResult.from_dict(json.loads(out))
        assert result.l2_policy == "gated"
        assert result.energy.l2 is not None
        assert result.energy.l2_relative_discharge < 1.0

    def test_bad_l2_policy_fails_cleanly(self, capsys):
        assert main(["run", "--l2-policy", "bogus", "--instructions", "500"]) == 2
        assert main([
            "experiment", "figure3", "--l2-policy", "bogus",
            "--benchmarks", "gcc", "--instructions", "500",
        ]) == 2
        err = capsys.readouterr().err
        assert "unknown policy" in err and "Traceback" not in err

    def test_l2_policy_ignored_note_for_non_l2_experiments(self, capsys):
        status = main([
            "experiment", "figure5", "--l2-policy", "gated",
            "--benchmarks", "gcc", "--instructions", "1000",
        ])
        captured = capsys.readouterr()
        assert status == 0
        assert "ignores --l2-policy" in captured.err

    def test_fast_and_reference_cli_json_are_identical(self, capsys):
        status, reference = run_cli(
            capsys, "run", "--benchmark", "gcc", "--dcache", "gated",
            "--instructions", "1500", "--json",
        )
        assert status == 0
        status, fast = run_cli(
            capsys, "run", "--benchmark", "gcc", "--dcache", "gated",
            "--instructions", "1500", "--json", "--fast",
        )
        assert status == 0
        assert fast == reference


class TestSweepCommand:
    def test_json_sweep(self, capsys):
        status, out = run_cli(
            capsys,
            "sweep", "--benchmarks", "gcc,mesa", "--instructions", "1500", "--json",
        )
        assert status == 0
        payload = json.loads(out)
        assert set(payload) == {"gcc", "mesa"}
        for name, entry in payload.items():
            assert RunResult.from_dict(entry).benchmark == name

    def test_store_resumes_across_invocations(self, capsys, tmp_path):
        argv = [
            "sweep", "--benchmarks", "gcc,mesa", "--instructions", "1500",
            "--store", str(tmp_path / "results"), "--json",
        ]
        status, first = run_cli(capsys, *argv)
        assert status == 0
        status, second = run_cli(capsys, *argv)
        assert status == 0
        assert json.loads(first) == json.loads(second)
        assert len(list((tmp_path / "results").glob("*.json"))) == 2


class TestPoliciesCommand:
    def test_lists_registered_policies(self, capsys):
        status, out = run_cli(capsys, "policies")
        assert status == 0
        assert "gated-predecode" in out and "threshold" in out

    def test_json(self, capsys):
        status, out = run_cli(capsys, "policies", "--json")
        assert status == 0
        payload = json.loads(out)
        assert payload["gated"]["defaults"]["threshold"] == 100
        assert payload["on-demand"]["scheduler_extra_latency"] == 1


class TestBenchCommand:
    @pytest.fixture(autouse=True)
    def _small_gate(self, monkeypatch):
        # The gate's run size is fixed; shrink it so the test stays quick.
        monkeypatch.setattr(bench, "INSTRUCTIONS", 400)
        monkeypatch.setattr(bench, "GRID_BENCHMARKS", ("gcc",))

    def test_smoke_bench_writes_artifact(self, capsys, tmp_path):
        output = tmp_path / "BENCH_test.json"
        status, out = run_cli(capsys, "bench", "--output", str(output))
        assert status == 0
        payload = json.loads(output.read_text())
        assert payload["schema"] == "repro-bench/pr6"
        assert payload["summary"]["all_identical"] is True
        assert payload["sweep_benchmarks"]["speedup"] > 0
        assert len(payload["l2_grid"]) == 5  # one benchmark x five L2 policies
        assert "wrote" in out

    def test_baseline_regression_trips_exit_3(self, capsys, tmp_path):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps({
            "summary": {"grid_geomean_speedup": 10_000.0, "sweep_speedup": 10_000.0}
        }))
        output = tmp_path / "BENCH_test.json"
        status, out = run_cli(
            capsys, "bench", "--output", str(output), "--baseline", str(baseline),
        )
        assert status == 3
        assert "REGRESSION" in out

    def test_baseline_missing_a_ratio_fails(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps({"summary": {"sweep_speedup": 1.0}}))
        summary = {"grid_geomean_speedup": 5.0, "sweep_speedup": 5.0}
        failures = bench._check_baseline(summary, baseline, echo=lambda line: None)
        assert failures == [f"baseline {baseline} has no summary.grid_geomean_speedup"]


class TestFuzzCommand:
    def test_clean_campaign_exits_zero(self, capsys, tmp_path):
        report_path = tmp_path / "fuzz.json"
        status, out = run_cli(
            capsys,
            "fuzz", "--budget", "2", "--seed-base", "0",
            "--instructions", "600", "--report", str(report_path),
        )
        assert status == 0
        assert "0 mismatch(es)" in out
        report = json.loads(report_path.read_text())
        assert report["budget"] == 2
        assert report["mismatches"] == 0
        assert [r["status"] for r in report["results"]] == ["match", "match"]
        for entry in report["results"]:
            assert entry["name"].startswith("fuzz:")
            assert entry["canonical"]

    def test_json_report_on_stdout(self, capsys):
        status, out = run_cli(
            capsys,
            "fuzz", "--budget", "1", "--instructions", "600", "--json",
        )
        assert status == 0
        report = json.loads(out)
        assert report["seed_base"] == 0 and report["depth"] == 3

    def test_bad_arguments_exit_2(self, capsys):
        assert main(["fuzz", "--budget", "0"]) == 2
        assert main(["fuzz", "--seed-base", "-1"]) == 2
        assert main(["fuzz", "--budget", "1", "--depth", "99"]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
