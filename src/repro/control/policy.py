"""Declarative feedback policies: when a window looks bad, act.

A :class:`FeedbackPolicy` is a small JSON document the control plane
evaluates once per closed health window, in rule order::

    {"schema": 1,
     "rules": [
       {"name": "rescue-quiet",
        "when": {"kind": "attribution_share", "route": "quiet",
                 "category": "credit_stall", "above": 0.5},
        "then": {"actuator": "credits.egress0",
                 "set": {"weights": {"hot": 1.0, "quiet": 1.0}}},
        "cooldown_windows": 0,
        "max_firings": 1}]}

Condition kinds mirror the health monitor's windowed signals:

* ``attribution_share`` — the window's share of ``category`` time in
  ``route``'s attributed total (``route``, ``category``, ``above``);
* ``counter_delta`` — the window's delta of one counter
  (``counter``, ``above``);
* ``gauge_level`` — the gauge's level at window close
  (``gauge``, ``above``).

A rule fires when its observed value strictly exceeds ``above`` — or,
with ``below`` instead, strictly undershoots it (credit pools pinned
at zero are a *low* signal); exactly one comparator is required, and a
window with no data never fires.  ``cooldown_windows`` suppresses
re-firing for that many subsequent windows; ``max_firings`` caps the
rule's lifetime firings (the one-shot ``1`` is the usual shape for a
policy swap).  Parse errors are path-precise
(``rules[0].when.above: ...``), matching the topology loader's style.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional

from ..telemetry.core import CATEGORIES
from .actuator import ControlError

__all__ = ["FeedbackPolicy", "FeedbackRule", "default_feedback_policy"]

_CONDITION_KINDS = {
    "attribution_share": ("route", "category"),
    "counter_delta": ("counter",),
    "gauge_level": ("gauge",),
}


def _require(payload: Dict[str, Any], where: str, key: str) -> Any:
    if key not in payload:
        raise ControlError(f"{where}: missing required key {key!r}")
    return payload[key]


def _string(payload: Dict[str, Any], where: str, key: str) -> str:
    value = _require(payload, where, key)
    if not isinstance(value, str) or not value:
        raise ControlError(
            f"{where}.{key}: expected a non-empty string, got "
            f"{value!r}")
    return value


def _object(value: Any, where: str) -> Dict[str, Any]:
    if not isinstance(value, dict):
        raise ControlError(
            f"{where}: expected a JSON object, got "
            f"{type(value).__name__}")
    return value


def _number(payload: Dict[str, Any], where: str, key: str,
            default: Optional[float] = None,
            minimum: Optional[float] = None) -> float:
    if key not in payload:
        if default is None:
            raise ControlError(
                f"{where}: missing required key {key!r}")
        return default
    value = payload[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ControlError(
            f"{where}.{key}: expected a number, got {value!r}")
    if minimum is not None and value < minimum:
        raise ControlError(
            f"{where}.{key}: must be >= {minimum:g}, got {value!r}")
    return float(value)


class _Condition:
    """One parsed ``when`` clause."""

    __slots__ = ("kind", "fields", "above", "below")

    def __init__(self, payload: Any, where: str) -> None:
        payload = _object(payload, where)
        kind = _require(payload, where, "kind")
        if kind not in _CONDITION_KINDS:
            raise ControlError(
                f"{where}.kind: unknown condition kind {kind!r}; "
                f"choose from {', '.join(sorted(_CONDITION_KINDS))}")
        self.kind = kind
        self.fields = {key: _string(payload, where, key)
                       for key in _CONDITION_KINDS[kind]}
        if kind == "attribution_share":
            if self.fields["category"] not in CATEGORIES:
                raise ControlError(
                    f"{where}.category: unknown attribution category "
                    f"{self.fields['category']!r}; choose from "
                    f"{', '.join(CATEGORIES)}")
        if ("above" in payload) == ("below" in payload):
            raise ControlError(
                f"{where}: need exactly one of 'above' (fire when the "
                "value exceeds it) or 'below' (fire when it "
                "undershoots)")
        self.above: Optional[float] = None
        self.below: Optional[float] = None
        if "above" in payload:
            self.above = _number(payload, where, "above", minimum=0.0)
        else:
            self.below = _number(payload, where, "below", minimum=0.0)
        known = {"kind", "above", "below", *_CONDITION_KINDS[kind]}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ControlError(
                f"{where}: unknown key(s) {', '.join(unknown)}; "
                f"expected {', '.join(sorted(known))}")

    def fires(self, value: float) -> bool:
        if self.above is not None:
            return value > self.above
        return value < self.below

    def observe(self, window: Dict[str, Any]) -> Optional[float]:
        """The condition's value in ``window``, or None for no data."""
        if self.kind == "attribution_share":
            route = window["attribution"].get(self.fields["route"])
            if route is None:
                return None
            total = sum(route["ns"].values())
            if total <= 1e-9:
                return None
            return route["ns"][self.fields["category"]] / total
        if self.kind == "counter_delta":
            return window["counters"].get(self.fields["counter"])
        return window["gauges"].get(self.fields["gauge"])

    def to_dict(self) -> Dict[str, Any]:
        payload = {"kind": self.kind, **self.fields}
        if self.above is not None:
            payload["above"] = self.above
        else:
            payload["below"] = self.below
        return payload


class FeedbackRule:
    """One parsed when/then rule with its firing bookkeeping."""

    __slots__ = ("name", "when", "actuator", "settings",
                 "cooldown_windows", "max_firings", "firings",
                 "last_window")

    def __init__(self, payload: Any, where: str) -> None:
        payload = _object(payload, where)
        self.name = _string(payload, where, "name")
        self.when = _Condition(_require(payload, where, "when"),
                               f"{where}.when")
        then = _object(_require(payload, where, "then"),
                       f"{where}.then")
        self.actuator = _string(then, f"{where}.then", "actuator")
        self.settings = _object(_require(then, f"{where}.then", "set"),
                                f"{where}.then.set")
        if not self.settings:
            raise ControlError(
                f"{where}.then.set: expected a non-empty settings "
                "object")
        unknown = sorted(set(then) - {"actuator", "set"})
        if unknown:
            raise ControlError(
                f"{where}.then: unknown key(s) {', '.join(unknown)}; "
                "expected actuator, set")
        cooldown = _number(payload, where, "cooldown_windows",
                           default=0.0, minimum=0.0)
        if cooldown != int(cooldown):
            raise ControlError(
                f"{where}.cooldown_windows: expected an integer, got "
                f"{cooldown!r}")
        self.cooldown_windows = int(cooldown)
        if "max_firings" in payload:
            firings = _number(payload, where, "max_firings",
                              minimum=1.0)
            if firings != int(firings):
                raise ControlError(
                    f"{where}.max_firings: expected an integer, got "
                    f"{payload['max_firings']!r}")
            self.max_firings: Optional[int] = int(firings)
        else:
            self.max_firings = None
        unknown = sorted(set(payload) - {"name", "when", "then",
                                         "cooldown_windows",
                                         "max_firings"})
        if unknown:
            raise ControlError(
                f"{where}: unknown key(s) {', '.join(unknown)}")
        self.firings = 0
        self.last_window: Optional[int] = None

    def ready(self, index: int) -> bool:
        """May this rule fire on window ``index``?"""
        if self.max_firings is not None \
                and self.firings >= self.max_firings:
            return False
        if self.last_window is not None \
                and index - self.last_window <= self.cooldown_windows:
            return False
        return True

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "when": self.when.to_dict(),
                "then": {"actuator": self.actuator,
                         "set": dict(self.settings)},
                "cooldown_windows": self.cooldown_windows,
                "max_firings": self.max_firings,
                "firings": self.firings}


class FeedbackPolicy:
    """A parsed feedback policy: ordered rules over health windows."""

    def __init__(self, payload: Any, source: str = "<inline>") -> None:
        payload = _object(payload, "policy")
        if payload.get("schema", 1) != 1:
            raise ControlError(
                f"policy.schema: unsupported feedback policy schema "
                f"{payload.get('schema')!r}")
        rules = payload.get("rules", [])
        if not isinstance(rules, list) or not rules:
            raise ControlError(
                "policy.rules: expected a non-empty list of rules")
        self.source = source
        self.rules: List[FeedbackRule] = [
            FeedbackRule(item, f"rules[{i}]")
            for i, item in enumerate(rules)]
        names = [rule.name for rule in self.rules]
        if len(set(names)) != len(names):
            raise ControlError(
                f"policy.rules: duplicate rule names: {names}")
        unknown = sorted(set(payload) - {"schema", "rules"})
        if unknown:
            raise ControlError(
                f"policy: unknown key(s) {', '.join(unknown)}; "
                "expected schema, rules")

    @classmethod
    def load(cls, path) -> "FeedbackPolicy":
        try:
            payload = json.loads(Path(path).read_text())
        except OSError as exc:
            raise ControlError(
                f"cannot read feedback policy {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ControlError(
                f"feedback policy {path} is not JSON: {exc}") from exc
        return cls(payload, source=str(path))

    def describe(self) -> Dict[str, Any]:
        return {"schema": 1, "source": self.source,
                "rules": [rule.to_dict() for rule in self.rules]}


def default_feedback_policy(scenario: str) -> Dict[str, Any]:
    """The built-in policy ``--feedback default`` resolves to.

    For the starvation scenario: the moment a window shows the quiet
    route spending more than half its attributed time in
    ``credit_stall`` (exactly what the fast-burn SLO pages on at
    14,000 ns under RampUpPolicy), install equal hot/quiet weights on
    the egress credit domain — once.  The hot flow keeps half the
    budget (16 credits covers its 8-worker window), so the rescue does
    not starve it in turn.
    """
    if scenario == "starvation":
        return {
            "schema": 1,
            "rules": [
                {"name": "rescue-quiet",
                 "when": {"kind": "attribution_share",
                          "route": "quiet",
                          "category": "credit_stall",
                          "above": 0.5},
                 "then": {"actuator": "credits.egress0",
                          "set": {"weights": {"hot": 1.0,
                                              "quiet": 1.0}}},
                 "cooldown_windows": 0,
                 "max_firings": 1},
            ],
        }
    raise ControlError(
        f"no default feedback policy for scenario {scenario!r}; "
        "pass a policy file")
