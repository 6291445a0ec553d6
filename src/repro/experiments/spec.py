"""Declarative experiment specs: what to run, with which knobs.

An :class:`ExperimentSpec` names a registered experiment, overrides a
subset of its typed parameters, pins a seed, and lists the output
documents wanted: ``summary`` always, plus any observers (``trace``,
``metrics``, ``why``, ``health``, ``sanitize``).  Specs are plain JSON
on disk, so a sweep file, a CI job, and a one-off ``repro bench`` all
speak the same language.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Mapping, Optional, Tuple

from .registry import (
    ALL_OUTPUTS,
    OUTPUT_SUMMARY,
    ExperimentDef,
    ExperimentError,
    get,
)

__all__ = ["ExperimentSpec", "SpecError"]


class SpecError(ExperimentError):
    """A malformed spec document (bad JSON shape, bad field types)."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SpecError(message)


@dataclasses.dataclass
class ExperimentSpec:
    """One resolved-on-demand experiment invocation."""

    experiment: str
    params: Dict[str, Any] = dataclasses.field(default_factory=dict)
    seed: int = 0
    outputs: Tuple[str, ...] = (OUTPUT_SUMMARY,)

    def resolve(self) -> ExperimentDef:
        """Validate against the registry; returns the definition."""
        defn = get(self.experiment)
        defn.resolve_params(self.params)
        for output in self.outputs:
            if output not in ALL_OUTPUTS:
                raise SpecError(
                    f"experiment {self.experiment!r} cannot produce "
                    f"output {output!r}; supported: "
                    f"{', '.join(ALL_OUTPUTS)}")
        return defn

    def to_dict(self) -> Dict[str, Any]:
        return {"experiment": self.experiment,
                "params": dict(self.params),
                "seed": self.seed,
                "outputs": list(self.outputs)}

    @classmethod
    def from_dict(cls, raw: Mapping[str, Any],
                  where: str = "spec") -> "ExperimentSpec":
        _require(isinstance(raw, Mapping),
                 f"{where}: expected a JSON object, got {type(raw).__name__}")
        _require("experiment" in raw,
                 f"{where}: missing required key 'experiment'")
        name = raw["experiment"]
        _require(isinstance(name, str) and bool(name),
                 f"{where}: 'experiment' must be a non-empty string")
        params = raw.get("params", {})
        _require(isinstance(params, Mapping),
                 f"{where}: 'params' must be an object")
        seed = raw.get("seed", 0)
        _require(isinstance(seed, int) and not isinstance(seed, bool),
                 f"{where}: 'seed' must be an integer")
        outputs = raw.get("outputs", [OUTPUT_SUMMARY])
        _require(isinstance(outputs, (list, tuple)) and outputs
                 and all(isinstance(o, str) for o in outputs),
                 f"{where}: 'outputs' must be a non-empty list of strings")
        if OUTPUT_SUMMARY not in outputs:
            outputs = [OUTPUT_SUMMARY] + list(outputs)
        unknown = sorted(set(raw) - {"experiment", "params", "seed",
                                     "outputs"})
        _require(not unknown,
                 f"{where}: unknown key(s) {', '.join(unknown)}")
        return cls(experiment=name, params=dict(params), seed=seed,
                   outputs=tuple(outputs))
