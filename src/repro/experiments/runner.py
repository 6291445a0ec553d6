"""Run one :class:`ExperimentSpec` and produce its result document.

The result is schema-stable JSON: the resolved parameters (defaults
filled in), the seed, one entry per requested output, and the verdict
of every registered paper-shape invariant on the summary
(``"invariants": {name: bool}``).  Outputs other than ``summary`` name
observers (:data:`~repro.experiments.observe.OBSERVERS`): the run's
:class:`~repro.experiments.observe.RunContext` attaches them to every
environment and each becomes ``{label: document}``.  The summary is
bit-identical observed or not (pinned by tests).
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from .observe import RunContext
from .registry import OUTPUT_SUMMARY, get
from .spec import ExperimentSpec

__all__ = ["run_experiment", "run_summary", "render"]

RESULT_SCHEMA = 1
RESULT_TOOL = "repro-experiments"


def run_experiment(spec: ExperimentSpec, slo: Any = None) \
        -> Dict[str, Any]:
    """Run a validated spec; returns the schema-stable result dict.
    ``slo`` (a :class:`~repro.telemetry.health.SloSpec`) replaces the
    default SLO spec of every health monitor."""
    defn = spec.resolve()
    params = defn.resolve_params(spec.params)
    ctx = RunContext(params, spec.seed,
                     observe=[o for o in spec.outputs
                              if o != OUTPUT_SUMMARY], slo=slo)
    summary = defn.run(ctx)
    ctx.finish(summary)
    return {"schema": RESULT_SCHEMA,
            "tool": RESULT_TOOL,
            "experiment": defn.name,
            "params": params,
            "seed": spec.seed,
            "outputs": {"summary": summary, **ctx.documents()},
            "invariants": defn.check(summary, params)}


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
