"""Tests for the deterministic parallel sweep driver."""

from __future__ import annotations

import json

import pytest

from repro.experiments import (
    SpecError,
    SweepConflictError,
    load_sweep_spec,
    run_sweep,
    validate_sweep_report,
)
from repro.experiments.sweep import SweepSpec, point_seed

#: Small enough to run in seconds, large enough to exercise two axes.
SPEC = {"experiment": "flit_rtt",
        "sweep": {"max_hops": [1, 2]},
        "params": {"pings": 2},
        "seed": 3}


def _write_spec(tmp_path, raw):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(raw))
    return str(path)


class TestSweepSpec:
    def test_points_are_the_cartesian_product(self):
        sweep = SweepSpec.from_dict(
            {"experiment": "flit_rtt",
             "sweep": {"max_hops": [1, 2], "pings": [2, 3, 4]}})
        points = sweep.points()
        assert len(points) == 6
        combos = {(p.params["max_hops"], p.params["pings"])
                  for p in points}
        assert combos == {(h, p) for h in (1, 2) for p in (2, 3, 4)}

    def test_point_seeds_stable_and_distinct(self):
        # sha256-derived: stable across processes and Python versions
        # (never the process-randomized hash()).
        assert point_seed(3, 0) == point_seed(3, 0)
        seeds = {point_seed(3, index) for index in range(32)}
        assert len(seeds) == 32
        assert point_seed(3, 0) != point_seed(4, 0)

    def test_missing_sweep_key_rejected(self):
        with pytest.raises(SpecError):
            SweepSpec.from_dict({"experiment": "flit_rtt"})

    def test_empty_axis_rejected(self):
        with pytest.raises(SpecError):
            SweepSpec.from_dict({"experiment": "flit_rtt",
                                 "sweep": {"max_hops": []}})

    def test_axis_conflicting_with_base_param_rejected(self):
        with pytest.raises(SpecError):
            SweepSpec.from_dict({"experiment": "flit_rtt",
                                 "sweep": {"pings": [1, 2]},
                                 "params": {"pings": 3}})

    def test_unknown_experiment_rejected_up_front(self):
        with pytest.raises(ValueError):
            SweepSpec.from_dict({"experiment": "nope",
                                 "sweep": {"x": [1]}})

    def test_load_rejects_bad_json(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text("{not json")
        with pytest.raises(SpecError):
            load_sweep_spec(str(path))

    def test_fingerprint_tracks_content(self):
        one = SweepSpec.from_dict(SPEC)
        two = SweepSpec.from_dict(dict(SPEC, seed=4))
        assert one.fingerprint() == SweepSpec.from_dict(SPEC).fingerprint()
        assert one.fingerprint() != two.fingerprint()


class TestRunSweep:
    def test_serial_and_parallel_reports_identical(self, tmp_path):
        sweep = SweepSpec.from_dict(SPEC)
        run_sweep(sweep, str(tmp_path / "serial"), workers=1)
        run_sweep(sweep, str(tmp_path / "parallel"), workers=2)
        serial = (tmp_path / "serial" / "sweep.json").read_bytes()
        parallel = (tmp_path / "parallel" / "sweep.json").read_bytes()
        assert serial == parallel
        report = json.loads(serial)
        validate_sweep_report(report)
        hops = [p["params"]["max_hops"] for p in report["points"]]
        assert hops == [1, 2]
        for point in report["points"]:
            assert point["outputs"]["summary"]["rows"]

    def test_rerun_resumes_without_recomputing(self, tmp_path):
        sweep = SweepSpec.from_dict(SPEC)
        out = tmp_path / "sweep"
        first = run_sweep(sweep, str(out), workers=1)
        point_files = sorted((out / "points").glob("point-*.json"))
        assert len(point_files) == 2
        stamps = {p.name: p.stat().st_mtime_ns for p in point_files}
        lines = []
        second = run_sweep(sweep, str(out), workers=1,
                           progress=lines.append)
        assert second == first
        # Finished points were skipped, not atomically rewritten.
        for path in point_files:
            assert path.stat().st_mtime_ns == stamps[path.name]
        assert any("2 already done, 0 to run" in line for line in lines)

    def test_partial_directory_resumes_missing_points(self, tmp_path):
        sweep = SweepSpec.from_dict(SPEC)
        out = tmp_path / "sweep"
        full = run_sweep(sweep, str(out), workers=1)
        # Simulate a kill after point 0: drop point 1 and the report.
        (out / "points" / "point-0001.json").unlink()
        (out / "sweep.json").unlink()
        kept = (out / "points" / "point-0000.json")
        stamp = kept.stat().st_mtime_ns
        resumed = run_sweep(sweep, str(out), workers=1)
        assert resumed == full
        assert kept.stat().st_mtime_ns == stamp

    def test_corrupt_point_file_is_recomputed(self, tmp_path):
        sweep = SweepSpec.from_dict(SPEC)
        out = tmp_path / "sweep"
        full = run_sweep(sweep, str(out), workers=1)
        (out / "points" / "point-0000.json").write_text("{truncated")
        assert run_sweep(sweep, str(out), workers=1) == full

    def test_point_file_without_verdicts_is_recomputed(self, tmp_path):
        sweep = SweepSpec.from_dict(SPEC)
        out = tmp_path / "sweep"
        full = run_sweep(sweep, str(out), workers=1)
        path = out / "points" / "point-0000.json"
        payload = json.loads(path.read_text())
        del payload["result"]["invariants"]
        path.write_text(json.dumps(payload))
        assert run_sweep(sweep, str(out), workers=1) == full

    def test_conflicting_out_dir_refused(self, tmp_path):
        out = tmp_path / "sweep"
        run_sweep(SweepSpec.from_dict(SPEC), str(out), workers=1)
        other = SweepSpec.from_dict(dict(SPEC, seed=4))
        with pytest.raises(SweepConflictError):
            run_sweep(other, str(out), workers=1)

    def test_every_point_carries_invariant_verdicts(self, tmp_path):
        report = run_sweep(SweepSpec.from_dict(SPEC),
                           str(tmp_path / "sweep"), workers=1)
        for point in report["points"]:
            assert point["invariants"] == {
                "c4_unloaded_rtt_near_200ns": True,
                "c4_switch_port_latency_below_100ns": True}

    def test_broken_invariant_is_a_finding_not_a_failure(self, tmp_path):
        from repro.experiments import ExperimentDef, Param, register, \
            registry
        register(ExperimentDef(
            name="test_only_sweep", description="test only",
            params={"x": Param(int, 0)},
            run=lambda ctx: {"x": ctx.x},
            invariants=(("x_is_even", lambda s, _p: s["x"] % 2 == 0),)))
        try:
            lines = []
            report = run_sweep(SweepSpec.from_dict(
                {"experiment": "test_only_sweep",
                 "sweep": {"x": [2, 3]}}),
                str(tmp_path / "sweep"), workers=1,
                progress=lines.append)
        finally:
            del registry._REGISTRY["test_only_sweep"]
        assert [p["invariants"] for p in report["points"]] == [
            {"x_is_even": True}, {"x_is_even": False}]
        assert any("point 0001 {'x': 3} breaks: x_is_even" in line
                   for line in lines)

    @pytest.mark.parametrize("verdicts", [None, [], {"c4": 1},
                                          {"c4": "true"}])
    def test_report_validation_requires_invariant_map(self, tmp_path,
                                                      verdicts):
        report = run_sweep(SweepSpec.from_dict(SPEC),
                           str(tmp_path / "sweep"), workers=1)
        broken = json.loads(json.dumps(report))
        if verdicts is None:
            del broken["points"][1]["invariants"]
        else:
            broken["points"][1]["invariants"] = verdicts
        with pytest.raises(ValueError, match="point 1 invariants"):
            validate_sweep_report(broken)

    def test_report_validation_catches_drift(self, tmp_path):
        out = tmp_path / "sweep"
        report = run_sweep(SweepSpec.from_dict(SPEC), str(out),
                           workers=1)
        validate_sweep_report(report)
        broken = json.loads(json.dumps(report))
        del broken["points"][0]
        with pytest.raises(ValueError):
            validate_sweep_report(broken)


class TestSweepCli:
    def test_cli_runs_and_validates(self, tmp_path, capsys):
        from repro.cli import main
        spec = _write_spec(tmp_path, SPEC)
        out = tmp_path / "out"
        assert main(["sweep", spec, "--out", str(out),
                     "--workers", "1"]) == 0
        report = json.loads((out / "sweep.json").read_text())
        validate_sweep_report(report)
        stdout = capsys.readouterr().out
        assert "2 points" in stdout

    def test_cli_malformed_spec_exits_2(self, tmp_path, capsys):
        from repro.cli import main
        spec = _write_spec(tmp_path, {"experiment": "flit_rtt"})
        assert main(["sweep", spec, "--out",
                     str(tmp_path / "out")]) == 2
        assert "missing required key 'sweep'" in \
            capsys.readouterr().err

    def test_cli_conflicting_out_exits_2(self, tmp_path, capsys):
        from repro.cli import main
        out = str(tmp_path / "out")
        assert main(["sweep", _write_spec(tmp_path, SPEC),
                     "--out", out, "--workers", "1"]) == 0
        other = tmp_path / "other.json"
        other.write_text(json.dumps(dict(SPEC, seed=4)))
        assert main(["sweep", str(other), "--out", out]) == 2
        assert "fingerprint mismatch" in capsys.readouterr().err
