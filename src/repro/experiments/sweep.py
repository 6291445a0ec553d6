"""Deterministic multiprocess parameter sweeps over experiments.

A sweep spec is plain JSON: one experiment, fixed base parameters, and
one list of values per swept axis.  The driver expands the cartesian
product (axes in sorted-name order), runs each point in its own
process (spawn context: full isolation, no inherited simulator state),
and merges the per-point results into one schema-stable report.

Determinism contract:

* point order and per-point seeds depend only on the spec (seeds
  derive via SHA-256, never via process-randomised ``hash()``);
* each point writes its result file atomically, so a killed sweep
  resumes by skipping every point whose file already exists and
  validates against the spec fingerprint;
* the merged report is assembled from point files in index order and
  contains nothing volatile (no wall-clock, no worker identity) — the
  same spec merges byte-identically at any ``--workers`` value.

Every merged point carries the experiment's invariant verdicts
(``"invariants": {name: bool}``).  A point that breaks one is a
finding, reported on the progress stream, not a failed sweep.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import multiprocessing
import os
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from .registry import OUTPUT_SUMMARY, ExperimentError
from .runner import RESULT_SCHEMA, run_experiment
from .spec import ExperimentSpec, SpecError

__all__ = ["SweepSpec", "SweepConflictError", "run_sweep",
           "load_sweep_spec", "validate_sweep_report",
           "SWEEP_SCHEMA", "SWEEP_TOOL"]

SWEEP_SCHEMA = 1
SWEEP_TOOL = "repro-sweep"
POINT_TOOL = "repro-sweep-point"
MERGED_NAME = "sweep.json"
SPEC_NAME = "spec.json"
POINTS_DIR = "points"


class SweepConflictError(ExperimentError):
    """The output directory belongs to a different sweep spec."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SpecError(message)


def point_seed(base_seed: int, index: int) -> int:
    """Stable per-point seed: never ``hash()``, which is per-process."""
    digest = hashlib.sha256(f"{base_seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclasses.dataclass
class SweepSpec:
    """A validated sweep: experiment + base params + swept axes."""

    experiment: str
    axes: Dict[str, List[Any]]
    params: Dict[str, Any] = dataclasses.field(default_factory=dict)
    seed: int = 0
    outputs: Tuple[str, ...] = (OUTPUT_SUMMARY,)

    @classmethod
    def from_dict(cls, raw: Mapping[str, Any],
                  where: str = "sweep spec") -> "SweepSpec":
        _require(isinstance(raw, Mapping),
                 f"{where}: expected a JSON object, "
                 f"got {type(raw).__name__}")
        schema = raw.get("schema", SWEEP_SCHEMA)
        _require(schema == SWEEP_SCHEMA,
                 f"{where}: unsupported schema {schema!r} "
                 f"(this tool writes {SWEEP_SCHEMA})")
        base = ExperimentSpec.from_dict(
            {key: raw[key] for key in ("experiment", "params", "seed",
                                       "outputs") if key in raw},
            where=where)
        _require("sweep" in raw, f"{where}: missing required key 'sweep'")
        axes_raw = raw["sweep"]
        _require(isinstance(axes_raw, Mapping) and axes_raw,
                 f"{where}: 'sweep' must be a non-empty object of "
                 "axis -> list of values")
        axes: Dict[str, List[Any]] = {}
        for axis in sorted(axes_raw):
            values = axes_raw[axis]
            _require(isinstance(values, list) and values,
                     f"{where}: sweep axis {axis!r} must be a "
                     "non-empty list")
            _require(axis not in base.params,
                     f"{where}: axis {axis!r} also appears in 'params'")
            axes[axis] = list(values)
        unknown = sorted(set(raw) - {"schema", "experiment", "params",
                                     "seed", "outputs", "sweep"})
        _require(not unknown,
                 f"{where}: unknown key(s) {', '.join(unknown)}")
        spec = cls(experiment=base.experiment, axes=axes,
                   params=dict(base.params), seed=base.seed,
                   outputs=base.outputs)
        for point in spec.points():   # fail before any process forks
            point.resolve()
        return spec

    def to_dict(self) -> Dict[str, Any]:
        return {"schema": SWEEP_SCHEMA,
                "experiment": self.experiment,
                "params": dict(self.params),
                "seed": self.seed,
                "outputs": list(self.outputs),
                "sweep": {axis: list(values)
                          for axis, values in sorted(self.axes.items())}}

    def fingerprint(self) -> str:
        canonical = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()

    def point_params(self) -> List[Dict[str, Any]]:
        """Cartesian product, axes iterated in sorted-name order."""
        names = sorted(self.axes)
        combos = itertools.product(*(self.axes[name] for name in names))
        return [dict(zip(names, combo)) for combo in combos]

    def points(self) -> List[ExperimentSpec]:
        out = []
        for index, overrides in enumerate(self.point_params()):
            out.append(ExperimentSpec(
                experiment=self.experiment,
                params={**self.params, **overrides},
                seed=point_seed(self.seed, index),
                outputs=self.outputs))
        return out


def load_sweep_spec(path: str) -> SweepSpec:
    """Parse + validate a sweep spec file; SpecError on any problem."""
    try:
        with open(path, encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise SpecError(f"cannot read sweep spec {path!r}: {exc}") \
            from None
    except json.JSONDecodeError as exc:
        raise SpecError(f"sweep spec {path!r} is not valid JSON: {exc}") \
            from None
    return SweepSpec.from_dict(raw, where=path)


# --------------------------------------------------------------------------
# point execution (worker side)
# --------------------------------------------------------------------------


def _point_path(out_dir: str, index: int) -> str:
    return os.path.join(out_dir, POINTS_DIR, f"point-{index:04d}.json")


def _atomic_write_json(path: str, payload: Dict[str, Any]) -> None:
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    os.replace(tmp, path)


def _run_point(out_dir: str, sweep_dict: Dict[str, Any],
               index: int) -> int:
    """Worker entry: run one point, write its file atomically."""
    sweep = SweepSpec.from_dict(sweep_dict)
    spec = sweep.points()[index]
    result = run_experiment(spec)
    payload = {"schema": SWEEP_SCHEMA,
               "tool": POINT_TOOL,
               "fingerprint": sweep.fingerprint(),
               "index": index,
               "point": sweep.point_params()[index],
               "result": result}
    _atomic_write_json(_point_path(out_dir, index), payload)
    return index


def _point_file_valid(path: str, fingerprint: str, index: int) -> bool:
    """A finished point we may skip on resume: parses and matches."""
    try:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, json.JSONDecodeError):
        return False
    return (isinstance(payload, dict)
            and payload.get("tool") == POINT_TOOL
            and payload.get("fingerprint") == fingerprint
            and payload.get("index") == index
            and isinstance(payload.get("result"), dict)
            and payload["result"].get("schema") == RESULT_SCHEMA
            and isinstance(payload["result"].get("invariants"), dict))


# --------------------------------------------------------------------------
# the driver
# --------------------------------------------------------------------------


def run_sweep(sweep: SweepSpec, out_dir: str, workers: int = 1,
              progress: Optional[Callable[[str], None]] = None) \
        -> Dict[str, Any]:
    """Run (or resume) a sweep into ``out_dir``; returns the report.

    Raises :class:`SweepConflictError` when ``out_dir`` already holds a
    different sweep's spec — never silently mixes results.
    """
    say = progress or (lambda _line: None)
    fingerprint = sweep.fingerprint()
    os.makedirs(os.path.join(out_dir, POINTS_DIR), exist_ok=True)
    spec_path = os.path.join(out_dir, SPEC_NAME)
    if os.path.exists(spec_path):
        try:
            with open(spec_path, encoding="utf-8") as handle:
                existing = json.load(handle)
        except (OSError, json.JSONDecodeError):
            existing = None
        if not isinstance(existing, dict) \
                or existing.get("fingerprint") != fingerprint:
            raise SweepConflictError(
                f"output directory {out_dir!r} holds a different sweep "
                f"(spec fingerprint mismatch); pick a fresh --out or "
                f"remove it")
    else:
        _atomic_write_json(spec_path, {"fingerprint": fingerprint,
                                       **sweep.to_dict()})

    points = sweep.points()
    pending = [index for index in range(len(points))
               if not _point_file_valid(_point_path(out_dir, index),
                                        fingerprint, index)]
    say(f"sweep {sweep.experiment}: {len(points)} points, "
        f"{len(points) - len(pending)} already done, "
        f"{len(pending)} to run, workers={max(1, workers)}")

    if pending:
        if workers <= 1:
            for index in pending:
                _run_point(out_dir, sweep.to_dict(), index)
                say(f"  point {index:04d} done")
        else:
            context = multiprocessing.get_context("spawn")
            jobs = [(out_dir, sweep.to_dict(), index)
                    for index in pending]
            with context.Pool(processes=min(workers, len(pending))) \
                    as pool:
                for index in pool.imap_unordered(_run_point_star, jobs):
                    say(f"  point {index:04d} done")

    merged = merge_sweep(sweep, out_dir)
    for point in merged["points"]:
        broken = [name for name, holds in point["invariants"].items()
                  if not holds]
        if broken:
            say(f"  point {point['index']:04d} {point['point']} breaks: "
                f"{', '.join(broken)}")
    _atomic_write_json(os.path.join(out_dir, MERGED_NAME), merged)
    say(f"merged report: {os.path.join(out_dir, MERGED_NAME)}")
    return merged


def _run_point_star(job: Tuple[str, Dict[str, Any], int]) -> int:
    return _run_point(*job)


def merge_sweep(sweep: SweepSpec, out_dir: str) -> Dict[str, Any]:
    """Assemble the merged report from point files, in index order."""
    fingerprint = sweep.fingerprint()
    merged_points = []
    for index in range(len(sweep.points())):
        path = _point_path(out_dir, index)
        if not _point_file_valid(path, fingerprint, index):
            raise ExperimentError(
                f"sweep point {index} missing or invalid at {path!r}; "
                f"re-run the sweep to fill it in")
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        result = payload["result"]
        merged_points.append({"index": index,
                              "point": payload["point"],
                              "params": result["params"],
                              "seed": result["seed"],
                              "outputs": result["outputs"],
                              "invariants": result["invariants"]})
    return {"schema": SWEEP_SCHEMA,
            "tool": SWEEP_TOOL,
            "fingerprint": fingerprint,
            "experiment": sweep.experiment,
            "seed": sweep.seed,
            "outputs": list(sweep.outputs),
            "base_params": dict(sweep.params),
            "axes": {axis: list(values)
                     for axis, values in sorted(sweep.axes.items())},
            "points": merged_points}


def validate_sweep_report(report: Any) -> None:
    """Schema check for a merged report; ExperimentError on failure."""
    def check(condition: bool, message: str) -> None:
        if not condition:
            raise ExperimentError(f"invalid sweep report: {message}")

    check(isinstance(report, dict), "not a JSON object")
    check(report.get("schema") == SWEEP_SCHEMA,
          f"schema {report.get('schema')!r} != {SWEEP_SCHEMA}")
    check(report.get("tool") == SWEEP_TOOL,
          f"tool {report.get('tool')!r} != {SWEEP_TOOL!r}")
    for key in ("fingerprint", "experiment"):
        check(isinstance(report.get(key), str) and report[key],
              f"missing {key}")
    check(isinstance(report.get("seed"), int), "missing seed")
    check(isinstance(report.get("axes"), dict) and report["axes"],
          "missing axes")
    check(isinstance(report.get("base_params"), dict),
          "missing base_params")
    outputs = report.get("outputs")
    check(isinstance(outputs, list) and OUTPUT_SUMMARY in outputs,
          "outputs must be a list containing 'summary'")
    points = report.get("points")
    expected = 1
    for values in report["axes"].values():
        check(isinstance(values, list) and values, "malformed axis")
        expected *= len(values)
    check(isinstance(points, list) and len(points) == expected,
          f"expected {expected} points, got "
          f"{len(points) if isinstance(points, list) else 'none'}")
    for position, point in enumerate(points):
        check(isinstance(point, dict), f"point {position} not an object")
        check(point.get("index") == position,
              f"point {position} has index {point.get('index')!r}")
        for key in ("point", "params", "outputs"):
            check(isinstance(point.get(key), dict),
                  f"point {position} missing {key}")
        check(OUTPUT_SUMMARY in point["outputs"],
              f"point {position} missing summary output")
        verdicts = point.get("invariants")
        check(isinstance(verdicts, dict)
              and all(isinstance(name, str) and isinstance(holds, bool)
                      for name, holds in verdicts.items()),
              f"point {position} invariants must map name to bool")
