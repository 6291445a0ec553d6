"""Tests for the declarative experiment layer (registry, spec, runner)."""

from __future__ import annotations

import pytest

from repro.experiments import (
    ExperimentError,
    ExperimentSpec,
    Param,
    RunContext,
    SpecError,
    UnknownExperimentError,
    registry,
    render,
    run_experiment,
    run_scenario,
    run_summary,
)


class TestRegistry:
    def test_names_cover_benches_and_scenarios(self):
        names = registry.names()
        assert "table2_hierarchy" in names
        assert {"interleave", "starvation", "t2"} <= set(names)
        assert len(names) >= 25

    def test_get_unknown_raises_with_choices(self):
        with pytest.raises(UnknownExperimentError) as err:
            registry.get("nope")
        assert "unknown experiment 'nope'" in str(err.value)
        assert "table2_hierarchy" in str(err.value)

    def test_get_kind_mismatch_raises(self):
        # run_scenario runs the single-environment timelines; an
        # experiment without their observer parameters is refused.
        with pytest.raises(ExperimentError) as err:
            run_scenario("table2_hierarchy")
        assert "causal_sample" in str(err.value)

    def test_unknown_experiment_is_a_value_error(self):
        # Pre-registry callers catch ValueError; keep that contract.
        with pytest.raises(ValueError):
            registry.get("nope")

    def test_describe_rows_are_schema_stable(self):
        rows = registry.describe()
        assert [row["name"] for row in rows] == registry.names()
        for row in rows:
            assert row["description"]
            assert row["outputs"] == list(registry.ALL_OUTPUTS)
            for param in row["params"].values():
                assert set(param) == {"type", "default", "help"}


class TestInvariants:
    @staticmethod
    def _defn(*invariants):
        return registry.ExperimentDef(
            name="test_only", description="test only", run=None,
            params={}, invariants=invariants)

    def test_predicate_that_raises_is_a_break(self):
        defn = self._defn(("holds", lambda s, _p: s["x"] == 1),
                          ("raises", lambda s, _p: s["missing"] > 0))
        assert defn.check({"x": 1}, {}) == {"holds": True,
                                            "raises": False}

    def test_duplicate_invariant_names_rejected(self):
        defn = self._defn(("same", lambda s, _p: True),
                          ("same", lambda s, _p: True))
        with pytest.raises(ExperimentError, match="invariant twice"):
            registry.register(defn)
        assert "test_only" not in registry.names()

    def test_missing_row_is_not_a_break(self):
        # One hop only: no 2-hop row for the switch-crossing claim.
        result = run_experiment(ExperimentSpec(
            experiment="flit_rtt", params={"max_hops": 1, "pings": 2}))
        assert result["invariants"] == {
            "c4_unloaded_rtt_near_200ns": True,
            "c4_switch_port_latency_below_100ns": True}

    def test_scenarios_report_an_empty_map(self):
        result = run_experiment(ExperimentSpec(experiment="t2"))
        assert result["invariants"] == {}


class TestParam:
    def test_int_widens_to_float(self):
        assert Param(float, 1.0).coerce("x", 3) == 3.0

    def test_bool_is_not_an_int(self):
        with pytest.raises(ExperimentError):
            Param(int, 1).coerce("x", True)

    def test_type_mismatch_names_the_parameter(self):
        with pytest.raises(ExperimentError) as err:
            Param(int, 1).coerce("hosts", "two")
        assert "'hosts'" in str(err.value)

    def test_parse_list_is_json(self):
        assert Param(list, []).parse("sizes", "[64, 4096]") == [64, 4096]

    def test_parse_bad_text_raises(self):
        with pytest.raises(ExperimentError):
            Param(int, 1).parse("hosts", "many")

    def test_resolve_params_rejects_unknown(self):
        defn = registry.get("flit_rtt")
        with pytest.raises(ExperimentError) as err:
            defn.resolve_params({"bogus": 1})
        assert "bogus" in str(err.value)
        assert "max_hops" in str(err.value)


class TestSpec:
    def test_from_dict_roundtrip(self):
        spec = ExperimentSpec.from_dict(
            {"experiment": "flit_rtt", "params": {"pings": 3},
             "seed": 7, "outputs": ["summary"]})
        assert spec.to_dict() == {"experiment": "flit_rtt",
                                  "params": {"pings": 3}, "seed": 7,
                                  "outputs": ["summary"]}

    def test_missing_experiment_rejected(self):
        with pytest.raises(SpecError):
            ExperimentSpec.from_dict({"params": {}})

    def test_unknown_key_rejected(self):
        with pytest.raises(SpecError):
            ExperimentSpec.from_dict({"experiment": "flit_rtt",
                                      "sweeps": {}})

    def test_bool_seed_rejected(self):
        with pytest.raises(SpecError):
            ExperimentSpec.from_dict({"experiment": "flit_rtt",
                                      "seed": True})

    def test_bench_cannot_produce_attribution(self):
        spec = ExperimentSpec(experiment="flit_rtt",
                              outputs=("summary", "attribution"))
        with pytest.raises(SpecError) as err:
            spec.resolve()
        assert "attribution" in str(err.value)

    def test_scenario_supports_all_outputs(self):
        spec = ExperimentSpec(experiment="t2",
                              outputs=registry.ALL_OUTPUTS)
        assert spec.resolve().name == "t2"


class TestRunner:
    def test_run_context_exposes_params(self):
        ctx = RunContext({"hosts": 4}, seed=9)
        assert ctx.hosts == 4
        assert ctx["hosts"] == 4
        assert ctx.seed == 9
        with pytest.raises(AttributeError):
            ctx.missing

    def test_result_document_shape(self):
        result = run_experiment(ExperimentSpec(
            experiment="flit_rtt", params={"max_hops": 1, "pings": 2}))
        assert result["schema"] == 1
        assert result["tool"] == "repro-experiments"
        assert result["experiment"] == "flit_rtt"
        assert result["params"] == {"max_hops": 1, "pings": 2}
        assert result["seed"] == 0
        assert list(result["outputs"]) == ["summary"]

    def test_run_summary_deterministic(self):
        first = run_summary("flit_rtt", max_hops=2, pings=2)
        second = run_summary("flit_rtt", max_hops=2, pings=2)
        assert first == second

    def test_scenario_outputs_follow_request(self):
        result = run_experiment(ExperimentSpec(
            experiment="t2", outputs=("summary", "metrics")))
        outputs = result["outputs"]
        assert set(outputs) == {"summary", "metrics"}
        assert outputs["metrics"]["t2"]["count"] > 0

    def test_render_falls_back_to_json(self, capsys):
        # Scenario experiments have no table renderer.
        render("t2", summary={"k": 1})
        assert '"k": 1' in capsys.readouterr().out

    def test_run_scenario_still_raises_value_error(self):
        with pytest.raises(ValueError) as err:
            run_scenario("nope")
        assert "unknown experiment 'nope'" in str(err.value)
        assert "t2" in str(err.value)
