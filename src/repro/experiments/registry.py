"""The experiment registry: every runnable scenario/benchmark, by name.

An :class:`ExperimentDef` is the declarative description of one
experiment: a name, a one-line description, a typed parameter schema
(defaults included), the set of output documents it can produce, the
function that runs it, and the paper-shape invariants its summary must
satisfy.  Definitions live in :mod:`repro.experiments.defs` and
register themselves at import time via the :func:`experiment`
decorator; everything else — ``repro bench``/``repro list``, the sweep
driver, the telemetry scenario commands — resolves experiments through
this registry instead of hard-coding builders.

An invariant is a ``(name, predicate)`` pair; ``predicate(summary,
params)`` returns whether the paper's claim holds on that run.  A
predicate reads only the rows the summary has (a parameter point that
lacks a row is not a break); one that raises a lookup, type, value or
arithmetic error counts as broken.

Two kinds exist:

* ``bench`` — the run function builds its own environments and returns
  a JSON-able summary dict (the numbers a benchmark table prints);
* ``scenario`` — the definition carries a ``scenario_build`` callable
  ``(Environment) -> summary`` and the generic runner attaches
  telemetry / causal tracing on demand, so one registration serves
  ``repro trace``, ``repro metrics``, ``repro why`` and sweeps alike.
"""

from __future__ import annotations

import dataclasses
from typing import (Any, Callable, Dict, List, Mapping, Optional,
                    Sequence, Tuple)

__all__ = ["Param", "Invariant", "ExperimentDef", "ExperimentError",
           "UnknownExperimentError", "experiment", "register", "get",
           "names", "describe"]


class ExperimentError(ValueError):
    """A spec or registry problem the CLI reports and exits on."""


class UnknownExperimentError(ExperimentError):
    """Asked for a name the registry does not hold."""

    def __init__(self, name: str, kind: Optional[str] = None) -> None:
        self.name = name
        what = "scenario" if kind == "scenario" else "experiment"
        super().__init__(
            f"unknown {what} {name!r}; choose from "
            f"{', '.join(names(kind=kind))}")


@dataclasses.dataclass(frozen=True)
class Param:
    """One typed experiment parameter with its default value."""

    type: type
    default: Any
    help: str = ""

    def coerce(self, name: str, value: Any) -> Any:
        """Validate (and gently widen) a user-supplied value."""
        if self.type is float and isinstance(value, int) \
                and not isinstance(value, bool):
            value = float(value)
        if self.type is list:
            if not isinstance(value, list):
                raise ExperimentError(
                    f"parameter {name!r} expects a list, "
                    f"got {value!r}")
            return value
        if not isinstance(value, self.type) \
                or (self.type is not bool and isinstance(value, bool)):
            raise ExperimentError(
                f"parameter {name!r} expects {self.type.__name__}, "
                f"got {value!r}")
        return value

    def parse(self, name: str, text: str) -> Any:
        """Parse a ``--set name=value`` CLI string into this type."""
        try:
            if self.type is bool:
                lowered = text.lower()
                if lowered in ("1", "true", "yes", "on"):
                    return True
                if lowered in ("0", "false", "no", "off"):
                    return False
                raise ValueError(text)
            if self.type is list:
                import json as _json
                value = _json.loads(text)
                return self.coerce(name, value)
            return self.type(text)
        except (ValueError, TypeError):
            raise ExperimentError(
                f"cannot parse {text!r} as {self.type.__name__} for "
                f"parameter {name!r}") from None


#: Outputs an experiment may be asked for.
OUTPUT_SUMMARY = "summary"
OUTPUT_METRICS = "metrics"
OUTPUT_ATTRIBUTION = "attribution"
ALL_OUTPUTS = (OUTPUT_SUMMARY, OUTPUT_METRICS, OUTPUT_ATTRIBUTION)

#: ``(name, predicate(summary, params) -> bool)``: one paper-shape claim.
Invariant = Tuple[str, Callable[[Dict[str, Any], Dict[str, Any]], bool]]


@dataclasses.dataclass(frozen=True)
class ExperimentDef:
    """A registered experiment: schema + run function + renderer +
    paper-shape invariants."""

    name: str
    description: str
    run: Optional[Callable[..., Dict[str, Any]]]
    params: Mapping[str, Param]
    kind: str = "bench"
    outputs: Tuple[str, ...] = (OUTPUT_SUMMARY,)
    scenario_build: Optional[Callable[..., Dict[str, Any]]] = None
    render: Optional[Callable[[Dict[str, Any], Dict[str, Any]],
                              None]] = None
    invariants: Tuple[Invariant, ...] = ()

    def defaults(self) -> Dict[str, Any]:
        return {name: param.default
                for name, param in self.params.items()}

    def resolve_params(self, overrides: Mapping[str, Any]) \
            -> Dict[str, Any]:
        """Defaults with validated overrides applied, sorted by name."""
        unknown = sorted(set(overrides) - set(self.params))
        if unknown:
            known = ", ".join(sorted(self.params)) or "(none)"
            raise ExperimentError(
                f"experiment {self.name!r} has no parameter(s) "
                f"{', '.join(unknown)}; known: {known}")
        resolved = self.defaults()
        for key, value in overrides.items():
            resolved[key] = self.params[key].coerce(key, value)
        return {key: resolved[key] for key in sorted(resolved)}

    def check(self, summary: Dict[str, Any],
              params: Dict[str, Any]) -> Dict[str, bool]:
        """Each invariant's verdict on one run, in declaration order."""
        verdicts = {}
        for name, predicate in self.invariants:
            try:
                verdicts[name] = bool(predicate(summary, params))
            except (ArithmeticError, LookupError, TypeError, ValueError):
                # A summary without the values the claim reads (or
                # with a zero it divides by) breaks it.
                verdicts[name] = False
        return verdicts


_REGISTRY: Dict[str, ExperimentDef] = {}


def register(defn: ExperimentDef) -> ExperimentDef:
    if defn.name in _REGISTRY:
        raise ExperimentError(
            f"experiment {defn.name!r} registered twice")
    bad = [o for o in defn.outputs if o not in ALL_OUTPUTS]
    if bad:
        raise ExperimentError(
            f"experiment {defn.name!r} declares unknown outputs {bad}")
    names_seen = [name for name, _predicate in defn.invariants]
    if len(set(names_seen)) != len(names_seen):
        raise ExperimentError(
            f"experiment {defn.name!r} declares an invariant twice")
    _REGISTRY[defn.name] = defn
    return defn


def experiment(name: str, description: str,
               params: Optional[Mapping[str, Param]] = None,
               render: Optional[Callable] = None,
               invariants: Sequence[Invariant] = ()):
    """Decorator: register a bench-kind experiment run function."""
    def wrap(fn: Callable[..., Dict[str, Any]]):
        register(ExperimentDef(name=name, description=description,
                               run=fn, params=dict(params or {}),
                               render=render,
                               invariants=tuple(invariants)))
        return fn
    return wrap


def _ensure_loaded() -> None:
    # Definitions self-register on import; cheap after the first call.
    from . import defs   # noqa: F401


def get(name: str, kind: Optional[str] = None) -> ExperimentDef:
    """Look up a definition; raises :class:`UnknownExperimentError`."""
    _ensure_loaded()
    defn = _REGISTRY.get(name)
    if defn is None or (kind is not None and defn.kind != kind):
        raise UnknownExperimentError(name, kind=kind)
    return defn


def names(kind: Optional[str] = None) -> List[str]:
    """Sorted registered names, optionally restricted to one kind."""
    _ensure_loaded()
    return sorted(name for name, defn in _REGISTRY.items()
                  if kind is None or defn.kind == kind)


def describe() -> List[Dict[str, Any]]:
    """One row per experiment, for ``repro list`` and docs."""
    _ensure_loaded()
    return [{"name": name,
             "kind": _REGISTRY[name].kind,
             "description": _REGISTRY[name].description,
             "params": {key: {"type": param.type.__name__,
                              "default": param.default,
                              "help": param.help}
                        for key, param in
                        sorted(_REGISTRY[name].params.items())},
             "outputs": list(_REGISTRY[name].outputs)}
            for name in names()]
