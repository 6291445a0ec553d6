"""The uniform actuation surface the control plane drives.

An :class:`Actuator` wraps one runtime-reconfigurable mechanism — a
credit domain's allocation policy or a link VC's sender credits —
behind the same three verbs:

* :meth:`Actuator.describe` — the knob schema plus current settings,
  which the health document's ``control`` section lists so a reader
  sees what a policy may touch;
* :meth:`Actuator.current` — the live settings (captured before and
  after every apply, so the action log doubles as an audit trail);
* :meth:`Actuator.apply` — validate a settings object against the
  declared :class:`Knob` bounds, mutate the mechanism, and append a
  sim-time-stamped entry to the actuator's history.

Validation is strict and path-precise (``credits.egress0.weights.bad``
style locations, mirroring the topology loader): an actuation request
either applies exactly as validated or raises :class:`ControlError`
without touching the mechanism.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

__all__ = ["Actuator", "ControlError", "Knob"]


class ControlError(ValueError):
    """A feedback policy or actuation request that cannot be honoured."""


class Knob:
    """One validated setting an actuator exposes.

    ``kind`` is ``float``, ``int`` or ``map`` (a non-empty object of
    flow/host name to number — per-entry bounds apply to the values).
    Bounds are inclusive; ``positive=True`` additionally requires
    strictly positive values (the common "rate must be > 0" shape).
    """

    __slots__ = ("name", "kind", "doc", "minimum", "maximum", "positive")

    def __init__(self, name: str, kind: str, doc: str,
                 minimum: Optional[float] = None,
                 maximum: Optional[float] = None,
                 positive: bool = False) -> None:
        if kind not in ("float", "int", "map"):
            raise ValueError(f"unknown knob kind {kind!r}")
        self.name = name
        self.kind = kind
        self.doc = doc
        self.minimum = minimum
        self.maximum = maximum
        self.positive = positive

    def validate(self, where: str, value: Any) -> Any:
        if self.kind == "map":
            if not isinstance(value, dict) or not value:
                raise ControlError(
                    f"{where}: expected a non-empty object, got "
                    f"{value!r}")
            return {str(key): self._scalar(f"{where}.{key}", item)
                    for key, item in value.items()}
        return self._scalar(where, value)

    def _scalar(self, where: str, value: Any) -> Any:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ControlError(
                f"{where}: expected a number, got {value!r}")
        number = float(value)
        if self.positive and number <= 0:
            raise ControlError(f"{where}: must be > 0, got {number:g}")
        if self.minimum is not None and number < self.minimum:
            raise ControlError(
                f"{where}: must be >= {self.minimum:g}, got {number:g}")
        if self.maximum is not None and number > self.maximum:
            raise ControlError(
                f"{where}: must be <= {self.maximum:g}, got {number:g}")
        if self.kind == "int":
            if number != int(number):
                raise ControlError(
                    f"{where}: expected an integer, got {value!r}")
            return int(number)
        return number

    def describe(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"kind": self.kind, "doc": self.doc}
        if self.positive:
            out["positive"] = True
        if self.minimum is not None:
            out["min"] = self.minimum
        if self.maximum is not None:
            out["max"] = self.maximum
        return out


class Actuator:
    """describe/current/apply over one mechanism's runtime knobs.

    Subclasses set :attr:`name` (the dotted identity feedback rules
    target, e.g. ``credits.egress0``), implement :meth:`knobs`,
    :meth:`current` and :meth:`_apply`, and may override
    :meth:`_validate` for cross-field invariants (e.g. the heap's
    promote threshold must stay above demote).
    """

    #: dotted identity, e.g. ``credits.egress0``
    name = "actuator"

    def __init__(self) -> None:
        #: Applied action entries, in apply order (shared tail of the
        #: control plane's chronological log).
        self.history: List[Dict[str, Any]] = []

    # -- the schema --------------------------------------------------------

    def knobs(self) -> Dict[str, Knob]:
        raise NotImplementedError

    def current(self) -> Dict[str, Any]:
        raise NotImplementedError

    def describe(self) -> Dict[str, Any]:
        return {"actuator": self.name,
                "knobs": {name: knob.describe()
                          for name, knob in sorted(self.knobs().items())},
                "current": self.current()}

    # -- actuation ---------------------------------------------------------

    def apply(self, settings: Dict[str, Any], time: float,
              rule: Optional[str] = None) -> Dict[str, Any]:
        """Validate ``settings`` and apply them at sim time ``time``.

        Returns the action-log entry: the validated settings plus the
        mechanism's state before and after.  Raises
        :class:`ControlError` (leaving the mechanism untouched) on any
        unknown knob, type mismatch, bound or cross-field violation.
        """
        knobs = self.knobs()
        if not isinstance(settings, dict) or not settings:
            raise ControlError(
                f"{self.name}: apply() needs a non-empty settings "
                f"object, got {settings!r}")
        for key in settings:
            if key not in knobs:
                raise ControlError(
                    f"{self.name}: unknown knob {key!r}; knobs: "
                    f"{', '.join(sorted(knobs))}")
        validated = {key: knobs[key].validate(f"{self.name}.{key}",
                                              settings[key])
                     for key in sorted(settings)}
        self._validate(validated)
        before = self.current()
        self._apply(validated)
        entry = {"t": time, "actuator": self.name, "rule": rule,
                 "set": validated, "before": before,
                 "after": self.current()}
        self.history.append(entry)
        return entry

    def _validate(self, settings: Dict[str, Any]) -> None:
        """Cross-field hook; runs after per-knob validation."""

    def _apply(self, settings: Dict[str, Any]) -> None:
        raise NotImplementedError
