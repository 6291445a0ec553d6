"""Tests for the fcc-check static lint (repro.analysis)."""

import json
from pathlib import Path

import pytest

from repro.analysis import run_lint, violations_to_json
from repro.analysis.lint import default_lint_root, default_lint_roots
from repro.cli import main

FIXTURES = Path(__file__).parent / "fixtures" / "lint"

RULE_FIXTURES = [
    ("FCC001", "bad_rng.py"),
    ("FCC002", "bad_wallclock.py"),
    ("FCC003", "bad_generator_return.py"),
    ("FCC004", "bad_mutable.py"),
    ("FCC005", "bad_unordered.py"),
    ("FCC006", "bad_eager_format.py"),
    ("FCC007", "bad_span_leak.py"),
]


class TestRuleFixtures:
    @pytest.mark.parametrize("code,fixture", RULE_FIXTURES)
    def test_fixture_trips_exactly_its_rule(self, code, fixture):
        violations = run_lint([FIXTURES / fixture])
        assert violations, f"{fixture} should trip {code}"
        assert {v.code for v in violations} == {code}

    def test_clean_fixture_is_clean(self):
        assert run_lint([FIXTURES / "clean.py"]) == []

    def test_directory_lint_finds_every_rule(self):
        codes = {v.code for v in run_lint([FIXTURES])}
        assert codes == {code for code, _ in RULE_FIXTURES}

    def test_violations_sorted_and_carry_location(self):
        violations = run_lint([FIXTURES])
        assert violations == sorted(
            violations, key=lambda v: (v.path, v.line, v.col, v.code))
        for violation in violations:
            assert violation.line >= 1
            assert violation.code.startswith("FCC")
            assert violation.rule
            assert violation.message

    def test_syntax_error_reported_not_raised(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def f(:\n")
        violations = run_lint([bad])
        assert [v.code for v in violations] == ["FCC000"]


class TestPragmas:
    def test_pragma_suppresses_by_slug(self, tmp_path):
        mod = tmp_path / "mod.py"
        mod.write_text("import random   # fcc: allow[seeded-rng]\n")
        assert run_lint([mod]) == []

    def test_pragma_suppresses_by_code(self, tmp_path):
        mod = tmp_path / "mod.py"
        mod.write_text("import random   # fcc: allow[FCC001]\n")
        assert run_lint([mod]) == []

    def test_bare_pragma_suppresses_everything_on_line(self, tmp_path):
        mod = tmp_path / "mod.py"
        mod.write_text("import random   # fcc: allow\n")
        assert run_lint([mod]) == []

    def test_pragma_on_other_line_does_not_suppress(self, tmp_path):
        mod = tmp_path / "mod.py"
        mod.write_text("# fcc: allow[seeded-rng]\nimport random\n")
        violations = run_lint([mod])
        assert [v.code for v in violations] == ["FCC001"]

    def test_wrong_slug_does_not_suppress(self, tmp_path):
        mod = tmp_path / "mod.py"
        mod.write_text("import random   # fcc: allow[wall-clock]\n")
        assert [v.code for v in run_lint([mod])] == ["FCC001"]

    # A violation anchored to a multi-line statement is reported at
    # its *first* line, but editors naturally put the pragma where the
    # cursor is — often the closing line.  Suppression must honor any
    # line of the statement's span.
    def test_pragma_on_closing_line_of_multiline_statement(
            self, tmp_path):
        mod = tmp_path / "mod.py"
        mod.write_text("def drain(pending):\n"
                       "    for name in set(\n"
                       "        pending,\n"
                       "    ):   # fcc: allow[unordered-iter]\n"
                       "        print(name)\n")
        assert run_lint([mod]) == []

    def test_pragma_on_middle_line_of_multiline_statement(
            self, tmp_path):
        mod = tmp_path / "mod.py"
        mod.write_text("def drain(pending):\n"
                       "    for name in set(\n"
                       "        pending,   # fcc: allow[unordered-iter]\n"
                       "    ):\n"
                       "        print(name)\n")
        assert run_lint([mod]) == []

    def test_pragma_after_multiline_statement_does_not_suppress(
            self, tmp_path):
        mod = tmp_path / "mod.py"
        mod.write_text("def drain(pending):\n"
                       "    for name in set(\n"
                       "        pending,\n"
                       "    ):\n"
                       "        print(name)   # fcc: allow[unordered-iter]\n")
        assert [v.code for v in run_lint([mod])] == ["FCC005"]


class TestRepoIsClean:
    def test_repro_package_has_no_violations(self):
        violations = run_lint()
        assert violations == [], "\n".join(v.format() for v in violations)

    def test_default_root_is_the_package(self):
        assert default_lint_root().name == "repro"

    def test_default_roots_cover_tests_and_benchmarks(self):
        roots = default_lint_roots()
        names = {root.name for root in roots}
        assert "repro" in names
        assert "tests" in names
        assert "benchmarks" in names

    def test_fixture_dirs_skipped_in_directory_walks(self):
        # tests/fixtures holds deliberate violations; the default walk
        # must not lint them (explicitly-named paths still work).
        violations = run_lint([Path(__file__).parent])
        fixture_hits = [v for v in violations if "fixtures" in v.path]
        assert fixture_hits == []


class TestJsonSchema:
    def test_schema_stable_shape(self):
        payload = violations_to_json(run_lint([FIXTURES / "bad_rng.py"]))
        assert payload["schema"] == 1
        assert payload["tool"] == "fcc-check"
        assert payload["count"] == len(payload["violations"])
        assert payload["count"] > 0
        entry = payload["violations"][0]
        assert set(entry) == {"path", "line", "col", "code", "rule",
                              "message", "end_line"}
        assert entry["end_line"] >= entry["line"]
        json.dumps(payload)   # round-trippable

    def test_empty_payload(self):
        payload = violations_to_json([])
        assert payload == {"schema": 1, "tool": "fcc-check", "count": 0,
                           "violations": []}


class TestCheckCli:
    def test_lint_clean_repo_exits_zero(self, capsys):
        assert main(["check", "--lint"]) == 0
        assert "lint: clean" in capsys.readouterr().out

    def test_lint_fixture_exits_nonzero(self, capsys):
        assert main(["check", "--lint", str(FIXTURES / "bad_rng.py")]) == 1
        out = capsys.readouterr().out
        assert "FCC001" in out

    def test_lint_json_output(self, capsys):
        assert main(["check", "--lint", "--json",
                     str(FIXTURES / "bad_mutable.py")]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["tool"] == "fcc-check"
        assert all(v["code"] == "FCC004" for v in payload["violations"])

    def test_unknown_experiment_exits_two(self, capsys):
        # The sanitizers ride `repro bench --observe sanitize`.
        assert main(["bench", "nope", "--observe", "sanitize"]) == 2
        assert "unknown experiment" in capsys.readouterr().err
