"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.telemetry import validate_chrome_trace


class TestCli:
    def test_info_prints_catalog_and_rack(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "CXL" in out
        assert "host0" in out

    def test_table2_calibration_passes(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "remote read" in out
        assert "<-- off" not in out

    def test_demo_promotes_hot_object(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "promotion" in out
        assert "local" in out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_no_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])


class TestPerfCli:
    def test_perf_prints_kernel_counters(self, capsys):
        assert main(["perf", "--procs", "20", "--steps", "50"]) == 0
        out = capsys.readouterr().out
        assert "events_processed" in out
        assert "events_per_sec" in out

    def test_perf_bad_argument_rejected(self):
        with pytest.raises(SystemExit):
            main(["perf", "--procs", "not-a-number"])


class TestTraceCli:
    def test_trace_writes_valid_chrome_trace(self, tmp_path, capsys):
        out_file = tmp_path / "trace-t2.json"
        assert main(["trace", "t2", "--out", str(out_file)]) == 0
        stdout = capsys.readouterr().out
        assert "trace[t2]" in stdout
        payload = json.loads(out_file.read_text())
        assert validate_chrome_trace(payload) > 0

    def test_trace_creates_parent_directories(self, tmp_path):
        out_file = tmp_path / "nested" / "deep" / "trace.json"
        assert main(["trace", "starvation", "--out", str(out_file),
                     "--interval", "500"]) == 0
        assert out_file.exists()

    def test_trace_unknown_scenario_exits_two(self, capsys):
        assert main(["trace", "nope", "--out", "unused.json"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_trace_missing_scenario_rejected(self):
        with pytest.raises(SystemExit):
            main(["trace"])


class TestMetricsCli:
    def test_metrics_json_schema(self, capsys):
        assert main(["metrics", "starvation", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == 1
        assert payload["tool"] == "repro-telemetry"
        assert payload["scenario"] == "starvation"
        assert payload["count"] == len(payload["metrics"])
        assert "credits.egress0.stalls" in payload["metrics"]
        assert payload["summary"]["burst_vs_ideal"] > 1.0

    def test_metrics_human_output(self, capsys):
        assert main(["metrics", "interleave"]) == 0
        out = capsys.readouterr().out
        assert "metrics[interleave]" in out
        assert "pcie.sw0.flits_forwarded" in out
        assert "summary:" in out

    def test_metrics_unknown_scenario_exits_two(self, capsys):
        assert main(["metrics", "nope"]) == 2
        assert "unknown scenario" in capsys.readouterr().err


class TestHealthCli:
    def test_health_json_is_schema_valid(self, capsys):
        from repro.telemetry import validate_health_report
        assert main(["health", "--scenario", "starvation",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["tool"] == "repro-health"
        assert validate_health_report(payload) >= 2
        episodes = payload["slos"][0]["alerts"][0]["episodes"]
        assert episodes[0]["fired_at"] == 14_000.0

    def test_health_human_output_names_the_alert(self, capsys):
        assert main(["health", "--scenario", "starvation"]) == 0
        out = capsys.readouterr().out
        assert "health[starvation]" in out
        assert "FIRED at 14,000.0 ns" in out
        assert "anomaly stall_spike" in out

    def test_health_fair_policy_quiet(self, capsys):
        assert main(["health", "--scenario", "starvation",
                     "--policy", "fair"]) == 0
        out = capsys.readouterr().out
        assert "quiet" in out and "FIRED" not in out

    def test_health_writes_selfcontained_dashboard(self, tmp_path,
                                                   capsys):
        out_file = tmp_path / "health.html"
        assert main(["health", "--scenario", "starvation",
                     "--html", str(out_file)]) == 0
        page = out_file.read_text()
        assert page.startswith("<!DOCTYPE html>")
        assert "http" not in page

    def test_health_custom_slo_spec(self, tmp_path, capsys):
        spec = tmp_path / "slo.json"
        spec.write_text(json.dumps({"slos": [], "anomaly": []}))
        assert main(["health", "--scenario", "t2",
                     "--slo", str(spec), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["slos"] == []

    def test_health_bad_inputs_exit_two(self, capsys):
        assert main(["health", "--scenario", "nope"]) == 2
        assert "unknown" in capsys.readouterr().err
        assert main(["health", "--scenario", "starvation",
                     "--window", "1500"]) == 2
        assert "multiple" in capsys.readouterr().err
        assert main(["health", "--scenario", "t2",
                     "--policy", "fair"]) == 2
        assert "starvation" in capsys.readouterr().err

    def test_health_feedback_surfaces_the_action_log(self, capsys):
        assert main(["health", "--scenario", "starvation",
                     "--feedback", "default"]) == 0
        out = capsys.readouterr().out
        assert "control: 1 action(s)" in out
        assert "rule rescue-quiet" in out
        assert "14,000.0 ns" in out

    def test_health_feedback_json_carries_control_section(self, capsys):
        from repro.telemetry import validate_health_report
        assert main(["health", "--scenario", "starvation",
                     "--feedback", "default", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert validate_health_report(payload) >= 2
        control = payload["control"]
        assert control["policy"]["source"] == "default"
        assert [a["t"] for a in control["actions"]] == [14_000.0]

    def test_health_feedback_bad_inputs_exit_two(self, capsys, tmp_path):
        assert main(["health", "--scenario", "starvation",
                     "--feedback", str(tmp_path / "nope.json")]) == 2
        assert "cannot read" in capsys.readouterr().err
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"rules": []}))
        assert main(["health", "--scenario", "starvation",
                     "--feedback", str(bad)]) == 2
        assert "rules" in capsys.readouterr().err
        assert main(["health", "--scenario", "t2",
                     "--feedback", "default"]) == 2
        assert "no default feedback policy" in capsys.readouterr().err

    def test_health_help_documents_exit_codes(self, capsys):
        with pytest.raises(SystemExit):
            main(["health", "--help"])
        out = capsys.readouterr().out
        assert "exit codes:" in out
        assert "bad input" in out


class TestListCli:
    def test_list_prints_catalog(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table2_hierarchy" in out
        assert "scenario" in out
        assert "repro bench" in out

    def test_list_json_is_schema_stable(self, capsys):
        assert main(["list", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        names = [row["name"] for row in rows]
        assert "flit_rtt" in names
        assert "t2" in names
        for row in rows:
            assert set(row) == {"name", "kind", "description",
                                "params", "outputs"}


@pytest.fixture
def broken_experiment():
    """A throwaway experiment whose second invariant never holds."""
    from repro.experiments import ExperimentDef, register, registry
    name = "test_only_broken_invariant"
    register(ExperimentDef(
        name=name, description="test only", params={},
        run=lambda _ctx: {"answer": 42},
        invariants=(("always_holds", lambda s, _p: s["answer"] == 42),
                    ("never_holds", lambda s, _p: s["answer"] == 0))))
    yield name
    del registry._REGISTRY[name]


class TestBenchCli:
    def test_bench_prints_table(self, capsys):
        assert main(["bench", "flit_rtt", "--set", "max_hops=1",
                     "--set", "pings=2"]) == 0
        out = capsys.readouterr().out
        assert "C4: unloaded 64B flit RTT" in out
        assert "1 switch(es)" in out

    def test_bench_json_document(self, capsys):
        assert main(["bench", "flit_rtt", "--set", "max_hops=1",
                     "--set", "pings=2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == 1
        assert payload["tool"] == "repro-experiments"
        assert payload["params"]["max_hops"] == 1
        assert payload["outputs"]["summary"]["rows"]

    @pytest.mark.parametrize("ops", ["0", "1"])
    def test_bench_table2_rejects_too_few_ops(self, ops, capsys):
        assert main(["bench", "table2_hierarchy", "--set", f"ops={ops}",
                     "--json"]) == 2
        captured = capsys.readouterr()
        assert "parameter 'ops' must be >= 2" in captured.err
        assert "Infinity" not in captured.out

    def test_bench_broken_invariant_exits_one(self, broken_experiment,
                                              capsys):
        assert main(["bench", broken_experiment]) == 1
        captured = capsys.readouterr()
        assert f"{broken_experiment}.never_holds" in captured.err
        assert f"{broken_experiment}.always_holds" not in captured.err
        assert '"answer": 42' in captured.out   # still printed

    def test_bench_json_carries_invariant_verdicts(self,
                                                   broken_experiment,
                                                   capsys):
        assert main(["bench", broken_experiment, "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["invariants"] == {"always_holds": True,
                                         "never_holds": False}

    def test_bench_unknown_experiment_exits_two(self, capsys):
        assert main(["bench", "nope"]) == 2
        err = capsys.readouterr().err
        assert "unknown experiment 'nope'" in err
        assert "choose from" in err

    def test_bench_unknown_parameter_exits_two(self, capsys):
        assert main(["bench", "flit_rtt", "--set", "bogus=1"]) == 2
        err = capsys.readouterr().err
        assert "no parameter 'bogus'" in err
        assert "max_hops" in err

    def test_bench_malformed_set_exits_two(self, capsys):
        assert main(["bench", "flit_rtt", "--set", "max_hops"]) == 2
        assert "name=value" in capsys.readouterr().err

    def test_bench_unparseable_value_exits_two(self, capsys):
        assert main(["bench", "flit_rtt", "--set",
                     "max_hops=lots"]) == 2
        assert "cannot parse" in capsys.readouterr().err

    def test_bench_profile_writes_pstats_file(self, capsys, tmp_path):
        out = tmp_path / "bench.prof"
        assert main(["bench", "flit_rtt", "--set", "max_hops=1",
                     "--set", "pings=2", "--json",
                     "--profile", str(out)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["outputs"]["summary"]["rows"]
        import pstats
        stats = pstats.Stats(str(out))
        assert stats.total_calls > 0


class TestTopoCli:
    def test_topo_list_names_shapes_and_generators(self, capsys):
        assert main(["topo", "list"]) == 0
        out = capsys.readouterr().out
        assert "xswitch_fat_tree_2pod" in out
        assert "fat_tree" in out
        assert "defaults:" in out

    def test_topo_list_json_inventory(self, capsys):
        assert main(["topo", "list", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        names = [shape["name"] for shape in payload["shapes"]]
        assert names == ["interleave", "t2_star",
                         "xswitch_fat_tree_2pod"]
        generators = {g["name"] for g in payload["generators"]}
        assert {"star", "chain", "fat_tree",
                "dragonfly"} <= generators

    def test_topo_show_compiles_a_generator_call(self, capsys):
        assert main(["topo", "show", "fat_tree:pods=2,spines=2"]) == 0
        out = capsys.readouterr().out
        assert "fat_tree_p2_l2_s2" in out
        assert "interpod pod0.spine0 <-> pod1.spine0" in out
        assert "reachability:" in out

    def test_topo_show_json_embeds_compile_stats(self, capsys):
        assert main(["topo", "show", "interleave", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["name"] == "interleave"
        assert payload["compiled"]["pairs"] == 6

    def test_topo_show_unknown_lists_choices(self, capsys):
        assert main(["topo", "show", "nope"]) == 2
        err = capsys.readouterr().err
        assert "unknown topology 'nope'" in err
        assert "xswitch_fat_tree_2pod" in err
        assert "fat_tree" in err

    def test_topo_validate_passes_committed_shapes(self, capsys):
        assert main(["topo", "validate"]) == 0
        out = capsys.readouterr().out
        assert out.count("ok   ") == 3
        assert "FAIL" not in out

    def test_topo_validate_rejects_broken_file(self, tmp_path, capsys):
        bad = tmp_path / "broken.json"
        bad.write_text(json.dumps(
            {"name": "broken",
             "pods": [{"name": "p", "switches": [{"name": "s"}],
                       "endpoints": [{"name": "e",
                                      "switch": "missing"}]}]}))
        assert main(["topo", "validate", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "not in pod" in out
