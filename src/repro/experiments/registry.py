"""The experiment registry: every runnable experiment, by name.

An :class:`ExperimentDef` is the declarative description of one
experiment: a name, a one-line description, a typed parameter schema
(defaults included), the function that runs it, and the paper-shape
invariants its summary must satisfy.  Definitions live in the modules
of :mod:`repro.experiments.defs` and register themselves when their
module is imported, via the :func:`experiment` decorator; everything
else — ``repro bench``/``repro list`` and the sweep driver — resolves
experiments through this registry instead of hard-coding builders.  A
run function takes a :class:`~repro.experiments.observe.RunContext`
and gets every environment from ``ctx.env(label)``, so any experiment
can produce every output in :data:`ALL_OUTPUTS`.

:func:`get` imports only the module that
:data:`repro.experiments.defs.INDEX` names for the experiment;
:func:`names`, :func:`describe` and the unknown-name error import
every module, so they list every experiment.  An index entry whose
module does not register the name is an :class:`ExperimentError`
naming both.

An invariant is a ``(name, predicate)`` pair; ``predicate(summary,
params)`` returns whether the paper's claim holds on that run.  A
predicate reads only the rows the summary has (a parameter point that
lacks a row is not a break); one that raises a lookup, type, value or
arithmetic error counts as broken.
"""

from __future__ import annotations

import dataclasses
from importlib import import_module
from typing import (Any, Callable, Dict, List, Mapping, Optional,
                    Sequence, Tuple)

from .defs import INDEX

__all__ = ["Param", "Invariant", "ExperimentDef", "ExperimentError",
           "UnknownExperimentError", "experiment", "register", "get",
           "names", "describe"]


class ExperimentError(ValueError):
    """A spec or registry problem the CLI reports and exits on."""


class UnknownExperimentError(ExperimentError):
    """Asked for a name the registry does not hold."""

    def __init__(self, name: str) -> None:
        self.name = name
        super().__init__(
            f"unknown experiment {name!r}; choose from "
            f"{', '.join(names())}")


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


#: Outputs an experiment may be asked for: its summary, and one
#: document per environment from each observer.
OUTPUT_SUMMARY = "summary"
OBSERVERS = ("trace", "metrics", "why", "health", "sanitize")
ALL_OUTPUTS = (OUTPUT_SUMMARY,) + OBSERVERS

#: ``(name, predicate(summary, params) -> bool)``: one paper-shape claim.
Invariant = Tuple[str, Callable[[Dict[str, Any], Dict[str, Any]], bool]]


@dataclasses.dataclass(frozen=True)
class ExperimentDef:
    """A registered experiment: schema + run function + renderer +
    paper-shape invariants."""

    name: str
    description: str
    run: Callable[..., Dict[str, Any]]
    params: Mapping[str, Param]
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
    """Decorator: register an experiment run function."""
    def wrap(fn: Callable[..., Dict[str, Any]]):
        register(ExperimentDef(name=name, description=description,
                               run=fn, params=dict(params or {}),
                               render=render,
                               invariants=tuple(invariants)))
        return fn
    return wrap


#: Experiment name -> the ``defs`` module that registers it.
_HOME = {name: module for module, listed in INDEX.items()
         for name in listed}


def _import_defs(module: str) -> None:
    import_module(f"{__package__}.defs.{module}")


def get(name: str) -> ExperimentDef:
    """Look up a definition, importing only the module that holds it.

    Raises :class:`UnknownExperimentError` for a name the index does
    not hold, and :class:`ExperimentError` if the indexed module does
    not register it."""
    defn = _REGISTRY.get(name)
    if defn is None:
        module = _HOME.get(name)
        if module is None:
            raise UnknownExperimentError(name)
        _import_defs(module)
        defn = _REGISTRY.get(name)
        if defn is None:
            raise ExperimentError(
                f"experiment {name!r} is indexed under "
                f"{__package__}.defs.{module}, which does not register it")
    return defn


def names() -> List[str]:
    """Sorted registered names, after importing every ``defs`` module."""
    for module in INDEX:
        _import_defs(module)
    return sorted(_REGISTRY)


def describe() -> List[Dict[str, Any]]:
    """One row per experiment, for ``repro list`` and docs."""
    return [{"name": name,
             "description": _REGISTRY[name].description,
             "params": {key: {"type": param.type.__name__,
                              "default": param.default,
                              "help": param.help}
                        for key, param in
                        sorted(_REGISTRY[name].params.items())},
             "outputs": list(ALL_OUTPUTS)}
            for name in names()]
