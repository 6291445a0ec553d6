"""Closed-loop control plane: health-driven, validated actuation.

The observe→decide→act loop over a running fabric simulation:

* **observe** — :class:`~repro.telemetry.health.HealthMonitor` closes
  tumbling sim-time windows of counters, gauges and per-route latency
  attribution (PR 9's streaming layer);
* **decide** — a declarative :class:`FeedbackPolicy` (JSON rules:
  *when* a windowed signal crosses a threshold, *then* apply settings
  to an actuator);
* **act** — the :class:`ControlPlane` applies validated settings
  through uniform :class:`Actuator`\\ s wrapping the paper's
  mechanisms: credit QoS (:class:`CreditActuator`), link credit
  allocation (:class:`LinkActuator`), heap placement
  (:class:`HeapActuator`) and movement pacing
  (:class:`MovementActuator`), each action stamped with the window's
  closing sim time and logged.

Everything stays deterministic: actions apply at window-close edges
inside the sampler tick, so closed-loop runs are bit-identical across
reruns and sweep worker counts, and a plane with no policy leaves
``events_processed`` untouched.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "actuator": ("Actuator", "ControlError", "Knob"),
    "actuators": ("CreditActuator", "HeapActuator", "LinkActuator",
                  "MovementActuator"),
    "plane": ("ControlPlane",),
    "policy": ("FeedbackPolicy", "FeedbackRule", "default_feedback_policy"),
})
