"""The shipped actuators: credit QoS and link credit allocation.

Each wraps one mechanism's runtime-reconfiguration surface behind the
:class:`~repro.control.actuator.Actuator` protocol; experiments
register them through ``ctx.add_actuator``.  Neither schedules kernel
events of its own: applying a setting mutates attributes the
mechanism's loops re-read, or performs the same immediate pool
puts/gets a periodic rebalance would — so a closed-loop run stays
deterministic across reruns.
"""

from __future__ import annotations

from typing import Any, Dict

from ..pcie.credits import CreditDomain, WeightedSharePolicy
from .actuator import Actuator, ControlError, Knob

__all__ = ["CreditActuator", "LinkActuator"]


class CreditActuator(Actuator):
    """Reallocates one :class:`CreditDomain`'s budget between flows.

    ``weights`` installs a :class:`WeightedSharePolicy` with the given
    per-flow weights and applies its targets immediately (grown pools
    serve blocked acquires at the same sim time); ``rebalance_ns``
    retunes the periodic rebalance cadence.
    """

    def __init__(self, domain: CreditDomain) -> None:
        super().__init__()
        self.domain = domain
        self.name = f"credits.{domain.name}"

    def knobs(self) -> Dict[str, Knob]:
        return {
            "weights": Knob(
                "weights", "map",
                "per-flow share weights (> 0); installs a "
                "WeightedSharePolicy and applies it immediately",
                positive=True),
            "rebalance_ns": Knob(
                "rebalance_ns", "float",
                "periodic rebalance cadence (sim ns)", positive=True),
        }

    def current(self) -> Dict[str, Any]:
        return {"policy": type(self.domain.policy).__name__,
                "rebalance_ns": self.domain.rebalance_ns,
                "granted": {flow: self.domain.granted(flow)
                            for flow in self.domain.flow_names()}}

    def _validate(self, settings: Dict[str, Any]) -> None:
        weights = settings.get("weights")
        if weights is not None:
            known = self.domain.flow_names()
            for flow in weights:
                if flow not in known:
                    raise ControlError(
                        f"{self.name}.weights.{flow}: unknown flow; "
                        f"registered: {', '.join(known)}")

    def _apply(self, settings: Dict[str, Any]) -> None:
        if "rebalance_ns" in settings:
            self.domain.set_rebalance_ns(settings["rebalance_ns"])
        if "weights" in settings:
            self.domain.set_policy(
                WeightedSharePolicy(settings["weights"]))


class LinkActuator(Actuator):
    """Resizes one link VC's sender credit allocation (allocator API).

    ``granted`` is the target number of credits the sender holds on
    the wrapped VC: raising it calls
    :meth:`~repro.fabric.link.LinkLayer.grant_credits` for the delta
    (blocked senders resume at the same sim time), lowering it calls
    :meth:`~repro.fabric.link.LinkLayer.revoke_credits` (the reclaim
    completes as in-flight credits return).  Revoking down to a
    trickle at an aggressor's injection port is the fabric-manager
    admission-control move the §3 cross-switch story calls for.
    """

    def __init__(self, link, vc: int = 0, name: str = "link") -> None:
        super().__init__()
        if not 0 <= vc < link.vcs:
            raise ControlError(
                f"{name}: vc {vc} out of range for link "
                f"{link.name!r} with {link.vcs} VC(s)")
        self.link = link
        self.vc = vc
        self.name = name

    def knobs(self) -> Dict[str, Knob]:
        return {
            "granted": Knob(
                "granted", "int",
                f"target sender credits on vc{self.vc} (grant or "
                "revoke the delta)", minimum=1),
        }

    def current(self) -> Dict[str, Any]:
        return {"granted": self.link.credits_granted(self.vc),
                "available": self.link.credits_available(self.vc)}

    def _apply(self, settings: Dict[str, Any]) -> None:
        delta = settings["granted"] - self.link.credits_granted(self.vc)
        if delta > 0:
            self.link.grant_credits(self.vc, delta)
        elif delta < 0:
            self.link.revoke_credits(self.vc, -delta)
