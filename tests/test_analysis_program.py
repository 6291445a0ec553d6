"""Tests for the whole-program analysis engine (repro.analysis.program).

Fixture projects live under ``tests/fixtures/program/`` — one *bad*
and one *clean* mini-package per rule, exercised through the same
:func:`run_program` entry point the CLI uses.
"""

import importlib
import inspect
import json
import time
from pathlib import Path

import pytest

from repro.analysis.program import (
    Baseline,
    build_index,
    load_baseline,
    run_program,
    split_by_baseline,
    violations_to_sarif,
)
from repro.analysis.program.baseline import BaselineError, baseline_payload
from repro.analysis.program.callgraph import build_callgraph
from repro.cli import main

FIXTURES = Path(__file__).parent / "fixtures" / "program"
REPO_ROOT = Path(__file__).resolve().parent.parent
BASELINE = REPO_ROOT / "fcc-baseline.json"


def codes(violations):
    return sorted({v.code for v in violations})


class TestProjectIndex:
    def test_indexes_fixture_package(self):
        index = build_index(FIXTURES / "taint_bad")
        assert set(index.modules) == {
            "taint_bad", "taint_bad.clockutil", "taint_bad.driver"}
        assert "taint_bad.driver.worker" in index.functions
        assert index.functions["taint_bad.driver.worker"].is_generator

    def test_relative_import_resolution(self):
        index = build_index(FIXTURES / "taint_bad")
        resolved = index.resolve("taint_bad.driver", "jitter")
        assert resolved == "taint_bad.clockutil.jitter"

    def test_function_at_maps_lines_to_methods(self):
        index = build_index(FIXTURES / "race_bad")
        func = index.functions["race_bad.tally.Tally.bump"]
        probe = index.function_at("race_bad.tally", func.lineno + 1)
        assert probe is not None
        assert probe.qualname == "race_bad.tally.Tally.bump"


class TestCallGraph:
    def test_spawn_sites_found(self):
        index = build_index(FIXTURES / "race_bad")
        graph = build_callgraph(index)
        roots = sorted(s.root for s in graph.spawns)
        assert roots == ["race_bad.tally.Tally.bump"] * 2

    def test_cross_module_edge(self):
        index = build_index(FIXTURES / "taint_bad")
        graph = build_callgraph(index)
        reach = graph.reachable_from(iter(["taint_bad.driver.worker"]))
        assert "taint_bad.clockutil.jitter" in reach


@pytest.fixture(scope="module")
def repo_graph():
    return build_callgraph(build_index())


class TestRepoResolution:
    """The index sees eager re-exports, lazy export maps and imports
    made inside a function body."""

    def test_every_package_export_resolves_to_its_definition(
            self, repo_graph):
        pytest.importorskip("numpy")    # repro.workloads' MIMO names
        index = repo_graph.index
        checked = 0
        for package, info in sorted(index.modules.items()):
            if not info.is_package:
                continue
            module = importlib.import_module(package)
            for name in getattr(module, "__all__", ()):
                value = getattr(module, name)
                if inspect.ismodule(value):
                    expected = value.__name__
                elif (inspect.isclass(value) or inspect.isfunction(value)) \
                        and value.__module__.startswith("repro."):
                    expected = f"{value.__module__}.{value.__qualname__}"
                else:
                    continue            # a constant has no definition site
                assert index.resolve(package, name) == expected, \
                    f"{package}.{name}"
                checked += 1
        assert checked > 250

    def test_function_scoped_imports_make_edges(self, repo_graph):
        chain = repo_graph.shortest_chain(
            "repro.experiments.defs.movement.run_movement_case",
            "repro.core.movement.MovementOrchestrator.attach_host")
        assert chain is not None
        mimo = {e.callee for e in repo_graph.edges
                if e.caller.startswith("repro.experiments.defs.mimo.")}
        assert "repro.workloads.mimo.make_frame" in mimo
        assert "repro.core.unifabric.UniFabric.__init__" in {
            e.callee for e in repo_graph.callees(
                "repro.experiments.defs.cfc.run_arbiter_case")}

    def test_lazy_export_map_resolves_through_the_package(self, repo_graph):
        index = repo_graph.index
        assert index.resolve("repro", "UniFabric") \
            == "repro.core.unifabric.UniFabric"
        assert index.resolve("repro", "params") == "repro.params"
        assert index.resolve("repro.core", "no_such_name") is None


class TestDeterminismTaint:
    def test_bad_fixture_trips_fcc101(self):
        violations = run_program(FIXTURES / "taint_bad")
        assert codes(violations) == ["FCC101"]
        message = violations[0].message
        assert "taint_bad.driver.worker" in message
        assert "wall-clock" in message
        assert "->" in message   # the call chain is spelled out

    def test_reported_at_spawn_site(self):
        violations = run_program(FIXTURES / "taint_bad")
        assert violations[0].path.endswith("driver.py")

    def test_clean_fixture_is_clean(self):
        assert run_program(FIXTURES / "taint_clean") == []


class TestStaticWriteRace:
    def test_bad_fixture_trips_fcc102(self):
        violations = run_program(FIXTURES / "race_bad")
        assert codes(violations) == ["FCC102"]
        message = violations[0].message
        assert "`self.depth`" in message
        assert "2 spawn site(s)" in message

    def test_clean_fixture_is_clean(self):
        # commutative += and a yield-straddled read/store pair
        assert run_program(FIXTURES / "race_clean") == []


class TestBaseline:
    def test_split_known_vs_new(self):
        violations = run_program(FIXTURES / "race_bad")
        payload = baseline_payload(violations)
        baseline = Baseline(payload["baseline"])
        new, known = split_by_baseline(violations, baseline)
        assert new == []
        assert known == violations

    def test_new_findings_not_covered(self):
        violations = run_program(FIXTURES / "race_bad")
        baseline = Baseline([])
        new, known = split_by_baseline(violations, baseline)
        assert known == []
        assert new == violations

    def test_matching_ignores_line_numbers(self):
        violations = run_program(FIXTURES / "race_bad")
        payload = baseline_payload(violations)
        # the entry carries no line number at all
        assert all("line" not in entry
                   for entry in payload["baseline"])

    def test_stale_entries_surfaced(self):
        stale = {"code": "FCC102", "path": "gone.py", "message": "x"}
        baseline = Baseline([stale])
        assert baseline.stale_entries([]) == [stale]

    def test_load_rejects_bad_files(self, tmp_path):
        missing = tmp_path / "nope.json"
        with pytest.raises(BaselineError):
            load_baseline(missing)
        bad = tmp_path / "bad.json"
        bad.write_text("[]")
        with pytest.raises(BaselineError):
            load_baseline(bad)

    def test_committed_baseline_loads(self):
        baseline = load_baseline(BASELINE)
        assert len(baseline) >= 0   # parses and validates


class TestSarif:
    def test_sarif_structure(self):
        violations = sorted(run_program(FIXTURES / "taint_bad")
                            + run_program(FIXTURES / "race_bad"))
        doc = violations_to_sarif(violations)
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert {"FCC101", "FCC102"} <= rule_ids
        assert {r["ruleId"] for r in run["results"]} == {"FCC101", "FCC102"}
        assert len(run["results"]) == len(violations)
        for result in run["results"]:
            assert result["level"] == "error"
            region = result["locations"][0]["physicalLocation"]["region"]
            assert region["startLine"] >= 1
            assert region["endLine"] >= region["startLine"]
        json.dumps(doc)   # round-trippable

    def test_baselined_results_are_notes(self):
        violations = run_program(FIXTURES / "race_bad")
        doc = violations_to_sarif([], violations)
        levels = {r["level"] for r in doc["runs"][0]["results"]}
        assert levels == {"note"}
        states = {r["baselineState"] for r in doc["runs"][0]["results"]}
        assert states == {"unchanged"}


class TestRepoGate:
    def test_repo_clean_under_committed_baseline(self):
        violations = run_program()
        baseline = load_baseline(BASELINE)
        new, _ = split_by_baseline(violations, baseline)
        assert new == [], "\n".join(v.format() for v in new)
        assert baseline.stale_entries(violations) == []

    def test_whole_program_pass_under_five_seconds(self):
        # timing the analyzer itself, not simulated behavior
        start = time.monotonic()   # fcc: allow[wall-clock]
        run_program()
        elapsed = time.monotonic() - start   # fcc: allow[wall-clock]
        assert elapsed < 5.0


class TestProgramCli:
    def test_program_with_baseline_exits_zero(self, capsys):
        status = main(["check", "--program",
                       "--baseline", str(BASELINE)])
        assert status == 0
        assert "program: clean" in capsys.readouterr().out

    def test_program_new_finding_fails(self, capsys):
        status = main(["check", "--program",
                       str(FIXTURES / "race_bad")])
        assert status == 1
        assert "FCC102" in capsys.readouterr().out

    def test_program_json_schema(self, capsys):
        for fixture, code in [("taint_bad", "FCC101"),
                              ("race_bad", "FCC102")]:
            main(["check", "--program", "--json", str(FIXTURES / fixture)])
            payload = json.loads(capsys.readouterr().out)
            assert payload["tool"] == "fcc-check-program"
            assert payload["count"] == len(payload["violations"]) > 0
            assert {v["code"] for v in payload["violations"]} == {code}

    def test_program_sarif_parses(self, capsys):
        main(["check", "--program", "--sarif",
              str(FIXTURES / "taint_bad")])
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == "2.1.0"

    def test_sarif_without_program_rejected(self, capsys):
        assert main(["check", "--sarif"]) == 2

    def test_explain_known_code(self, capsys):
        assert main(["check", "--explain", "FCC102"]) == 0
        out = capsys.readouterr().out
        assert "static-write-race" in out
        assert "example fix:" in out

    def test_explain_every_registered_code(self, capsys):
        from repro.analysis.lint import all_checks
        from repro.analysis.program.checks import all_program_checks
        for check in list(all_checks()) + all_program_checks():
            assert main(["check", "--explain", check.code]) == 0, \
                check.code
            out = capsys.readouterr().out
            assert check.slug in out

    def test_explain_unknown_code_exits_two(self, capsys):
        # The code one past the last whole-program rule is free (the
        # retired batch-protocol rule held it) and must not resolve.
        from repro.analysis.program.checks import all_program_checks
        last = max(int(check.code[3:]) for check in all_program_checks())
        for code in ("FCC999", f"FCC{last + 1}"):
            assert main(["check", "--explain", code]) == 2
            err = capsys.readouterr().err
            assert f"unknown rule {code!r}" in err
            assert "registered: FCC001" in err
            assert err.rstrip().endswith("FCC101, FCC102")
