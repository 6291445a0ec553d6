"""Run one :class:`ExperimentSpec` and produce its result document.

The result is schema-stable JSON: the resolved parameters (defaults
filled in), the seed, one entry per requested output, and the verdict
of every registered paper-shape invariant on the summary
(``"invariants": {name: bool}``).  Bench-kind
experiments return their summary; scenario-kind experiments run
through the telemetry scenario engine, attaching telemetry / causal
tracing only when ``metrics`` / ``attribution`` were asked for (the
summary is bit-identical either way — pinned by tests).
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from .registry import (
    OUTPUT_ATTRIBUTION,
    OUTPUT_METRICS,
    ExperimentDef,
    get,
)
from .spec import ExperimentSpec

__all__ = ["RunContext", "run_experiment", "run_summary", "render"]

RESULT_SCHEMA = 1
RESULT_TOOL = "repro-experiments"


class RunContext:
    """What a bench-kind run function sees: params + seed.

    Parameters are exposed both as attributes (``ctx.hosts``) and via
    ``ctx["hosts"]``; the seed rides along for experiments that drive
    a :class:`~repro.sim.rng.SimRng`.
    """

    __slots__ = ("params", "seed")

    def __init__(self, params: Dict[str, Any], seed: int) -> None:
        self.params = params
        self.seed = seed

    def __getitem__(self, name: str) -> Any:
        return self.params[name]

    def __getattr__(self, name: str) -> Any:
        try:
            return self.params[name]
        except KeyError:
            raise AttributeError(name) from None


def _run_scenario_outputs(defn: ExperimentDef, spec: ExperimentSpec,
                          params: Dict[str, Any]) -> Dict[str, Any]:
    from ..telemetry.scenarios import run_scenario_build
    want_metrics = OUTPUT_METRICS in spec.outputs
    want_attribution = OUTPUT_ATTRIBUTION in spec.outputs
    result = run_scenario_build(
        defn.name, defn.scenario_build,
        interval_ns=params["interval_ns"],
        telemetry=want_metrics or want_attribution,
        causal=want_attribution,
        causal_sample=params["causal_sample"])
    outputs: Dict[str, Any] = {"summary": result.summary}
    if want_metrics:
        outputs[OUTPUT_METRICS] = result.metrics_snapshot()
    if want_attribution:
        outputs[OUTPUT_ATTRIBUTION] = result.attribution_report()
    return outputs


def run_experiment(spec: ExperimentSpec) -> Dict[str, Any]:
    """Run a validated spec; returns the schema-stable result dict."""
    defn = spec.resolve()
    params = defn.resolve_params(spec.params)
    if defn.kind == "scenario":
        outputs = _run_scenario_outputs(defn, spec, params)
    else:
        outputs = {"summary": defn.run(RunContext(params, spec.seed))}
    return {"schema": RESULT_SCHEMA,
            "tool": RESULT_TOOL,
            "experiment": defn.name,
            "params": params,
            "seed": spec.seed,
            "outputs": outputs,
            "invariants": defn.check(outputs["summary"], params)}


def run_summary(name: str, seed: int = 0, **params: Any) \
        -> Dict[str, Any]:
    """Convenience: run one experiment, return just its summary."""
    spec = ExperimentSpec(experiment=name, params=params, seed=seed)
    return run_experiment(spec)["outputs"]["summary"]


def render(name: str, summary: Optional[Dict[str, Any]] = None,
           **params: Any) -> None:
    """Print an experiment's human table (running it if needed)."""
    defn = get(name)
    resolved = defn.resolve_params(params)
    if summary is None:
        summary = run_summary(name, **params)
    if defn.render is None:
        import json
        print(json.dumps(summary, indent=2))
        return
    defn.render(summary, resolved)
