"""The control plane: health windows in, validated actuations out.

A :class:`ControlPlane` closes the observe→decide→act loop the ROADMAP
promised: it subscribes to a
:class:`~repro.telemetry.health.HealthMonitor`'s closed windows,
evaluates its :class:`~repro.control.policy.FeedbackPolicy` rules in
declared order, and applies matching actions through registered
:class:`~repro.control.actuator.Actuator`\\ s — all inside the sampler
tick that closed the window, so every action lands at a deterministic
sim time (the window's ``t1`` edge) and reruns are bit-identical.

Two determinism notes the tests pin:

* the trailing *final* (partial) window closes after the run via
  ``monitor.finalize``; acting there would mutate a finished model,
  so final windows are observed but never acted on;
* a plane with no policy (or no matching rule) applies nothing and
  schedules nothing — ``events_processed`` equals the plain health
  run exactly.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from .actuator import Actuator, ControlError
from .policy import FeedbackPolicy

__all__ = ["ControlPlane"]


class ControlPlane:
    """Evaluates one feedback policy against streaming health windows."""

    def __init__(self, policy: Optional[FeedbackPolicy] = None) -> None:
        self.policy = policy
        self._actuators: Dict[str, Actuator] = {}
        #: Chronological applied-action entries (each also lives in
        #: its actuator's ``history``).
        self.actions: List[Dict[str, Any]] = []
        self.windows_seen = 0

    # -- wiring ------------------------------------------------------------

    def add_actuator(self, actuator: Actuator) -> Actuator:
        if actuator.name in self._actuators:
            raise ControlError(
                f"actuator {actuator.name!r} already registered")
        self._actuators[actuator.name] = actuator
        return actuator

    def actuator(self, name: str) -> Actuator:
        try:
            return self._actuators[name]
        except KeyError:
            known = ", ".join(sorted(self._actuators)) or "(none)"
            raise ControlError(
                f"unknown actuator {name!r}; registered: {known}") \
                from None

    def actuator_names(self) -> List[str]:
        return sorted(self._actuators)

    def attach(self, monitor) -> "ControlPlane":
        """Subscribe to ``monitor``'s closed windows; returns self."""
        monitor.subscribe(self.on_window)
        return self

    # -- the loop ----------------------------------------------------------

    def on_window(self, window: Dict[str, Any]) -> None:
        """Evaluate every rule against one closed window record."""
        if self.windows_seen == 0 and self.policy is not None:
            # Every actuator the policy names must exist before any
            # rule can fire; a typo would otherwise pass silently.
            for rule in self.policy.rules:
                self.actuator(rule.actuator)
        self.windows_seen += 1
        if self.policy is None or window["final"]:
            return
        for rule in self.policy.rules:
            if not rule.ready(window["index"]):
                continue
            value = rule.when.observe(window)
            if value is None or not rule.when.fires(value):
                continue
            actuator = self.actuator(rule.actuator)
            entry = actuator.apply(rule.settings, time=window["t1"],
                                   rule=rule.name)
            entry["window"] = window["index"]
            entry["observed"] = round(value, 6)
            self.actions.append(entry)
            rule.firings += 1
            rule.last_window = window["index"]

    # -- the report --------------------------------------------------------

    def report(self) -> Dict[str, Any]:
        """The schema-stable ``control`` section of a health report."""
        return {
            "policy": self.policy.describe()
            if self.policy is not None else None,
            "actuators": [self._actuators[name].describe()
                          for name in sorted(self._actuators)],
            "actions": [dict(entry) for entry in self.actions],
        }
