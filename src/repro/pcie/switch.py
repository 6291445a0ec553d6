"""The fabric switch (FS): ports, crossbar, routing, egress scheduling.

Mirrors the component described in section 2.2: upstream ports (UPs)
toward fabric host adapters, downstream ports (DPs) toward devices and
memory, a non-blocking crossbar between them (the Omega testbed
design), per-egress staging queues with a pluggable service discipline,
and a routing table filled by the central fabric manager.

Timing model per forwarded flit:

* the flit leaves the ingress link buffer only once a switch buffer
  slot is free (holding the upstream credit otherwise — this is how
  congestion back-propagates, claim C7);
* it crosses the pipeline in ``port_latency_ns`` (the paper's
  "<100 ns non-blocking switch latency per port");
* it is staged at the egress scheduler, then serialized by the egress
  link at link bandwidth.

Because every stage is pipelined, throughput is set by link bandwidth,
not by the 90 ns latency.  The pipeline crossing is a kernel callback
(``Environment.call_later``), not a process per flit; see
:meth:`FabricSwitch._forward`.
"""

from __future__ import annotations

import dataclasses
import enum
from functools import partial
from typing import Dict, Generator, Optional

from .. import params
from ..fabric.flit import Flit
from ..fabric.link import LinkLayer
from ..sim import Environment, Event, Resource
from ..telemetry.core import QUEUEING
from .arbitration import EgressScheduler, make_scheduler
from .credits import CreditDomain
from .routing import RoutingTable

__all__ = ["FabricSwitch", "PortRole", "SwitchPort"]


class PortRole(enum.Enum):
    UPSTREAM = "UP"        # toward host adapters
    DOWNSTREAM = "DP"      # toward devices / memory / other switches


@dataclasses.dataclass
class SwitchPort:
    """One attached port: the link pair and its egress scheduler."""

    index: int
    role: PortRole
    in_link: LinkLayer
    out_link: LinkLayer
    scheduler: EgressScheduler
    peer: str = ""
    flits_in: int = 0
    flits_out: int = 0
    pending: int = 0      # flits routed here but not yet on the wire
    buffer_site: str = "" # stage-interval site of ingress-buffer waits
    flow: str = ""        # flow name of flits entering here: "in<N>"


class FabricSwitch:
    """A PBR-capable switch inside one fabric domain."""

    def __init__(self, env: Environment, name: str, domain: int = 0,
                 port_latency_ns: float = params.SWITCH_PORT_LATENCY_NS,
                 scheduler: str = "fair",
                 scheduler_capacity: int = 64,
                 ingress_buffer: int = 128,
                 adaptive_routing: bool = False) -> None:
        self.env = env
        self.name = name
        self.domain = domain
        self.port_latency_ns = port_latency_ns
        self.scheduler_kind = scheduler
        self.scheduler_capacity = scheduler_capacity
        self.ingress_buffer = ingress_buffer
        self.adaptive_routing = adaptive_routing
        self.table = RoutingTable(domain)
        self.ports: Dict[int, SwitchPort] = {}
        self.credit_domains: Dict[int, CreditDomain] = {}
        self.flits_forwarded = 0
        self._next_index = 0
        self._rr_counter = 0
        # Cached telemetry: the per-flit hooks below are one is-None
        # branch when observability is off.
        self._tel = tel = env.telemetry
        self._san = env.sanitizer
        if tel is not None:
            registry = tel.registry
            self._m_forwarded = registry.counter(f"pcie.{name}.flits_forwarded")
            self._m_drops = registry.counter(f"pcie.{name}.drops")
            self._track = f"pcie.{name}"

    # -- construction ------------------------------------------------------

    def attach(self, in_link: LinkLayer, out_link: LinkLayer,
               role: PortRole = PortRole.DOWNSTREAM,
               peer: str = "",
               index: Optional[int] = None) -> SwitchPort:
        """Wire a link pair into the switch and start its pipelines."""
        if index is None:
            index = self._next_index
        if index in self.ports:
            raise ValueError(f"port {index} already attached on {self.name}")
        self._next_index = max(self._next_index, index + 1)
        port = SwitchPort(
            index=index, role=role, in_link=in_link, out_link=out_link,
            scheduler=make_scheduler(self.scheduler_kind, self.env,
                                     capacity=self.scheduler_capacity),
            peer=peer, flow=f"in{index}")
        self.ports[index] = port
        if self._tel is not None:
            port.buffer_site = f"pcie.{self.name}.in{index}.buffer"
            port.scheduler.site = f"pcie.{self.name}.p{index}.egress"
            # The issue-shaped hierarchical names: queue_depth counts
            # flits routed to this egress but not yet on the wire.
            self._tel.add_probe(
                f"pcie.{self.name}.port{index}.queue_depth",
                lambda p=port: p.pending, track=self._track)
        self.env.process(self._ingress(port), name=f"{self.name}.in{index}",
                         daemon=True)
        self.env.process(
            out_link.transmit_loop(port.scheduler.take, port.scheduler.taken,
                                   partial(self._sent, port)),
            name=f"{self.name}.out{index}", daemon=True)
        return port

    def add_credit_domain(self, egress_index: int,
                          domain: CreditDomain) -> None:
        """Constrain one egress port with a per-flow credit budget.

        Flows are named after the ingress port index (``"in<N>"``); they
        are registered lazily as traffic first crosses.
        """
        if egress_index not in self.ports:
            raise ValueError(f"no port {egress_index} on {self.name}")
        self.credit_domains[egress_index] = domain

    # -- data path -----------------------------------------------------------

    def _ingress(self, port: SwitchPort) -> Generator[Event, None, None]:
        env = self.env
        slots = Resource(env, capacity=self.ingress_buffer)
        while True:
            flit: Flit = yield port.in_link.rx.get()
            request = slots.request()
            if self._tel is not None and flit.packet.trace is not None:
                # Waiting for switch buffering while still holding the
                # upstream credit — the C7 back-propagation stage.
                self._tel.wait(port.buffer_site, flit.packet.trace,
                               QUEUEING, request)
            yield request
            # Credit returns upstream only once the flit found switch
            # buffering; a full switch therefore stalls the upstream
            # link and, transitively, switches further up.
            port.in_link.consume(flit)
            port.flits_in += 1
            forward = self._forward
            if self._san is not None:
                forward = self._san.writer(f"{self.name}.fwd").wrap(forward)
            env.credit_elided(1)
            env.call_later(self.port_latency_ns, forward, flit, port,
                           slots, request)

    def _forward(self, flit: Flit, ingress: SwitchPort,
                 slots: Resource, request) -> None:
        """The flit crossed the pipeline: route, then drop or stage it.

        Runs as a ``call_later`` callback standing in for a forwarding
        process, whose start hook ``_ingress`` credits and whose
        completion is credited once the flit is staged or dropped
        (``Environment.credit_elided``).  Where that process would
        block, on the egress credit domain and then on the staging
        queue, the rest runs as a continuation attached to the event it
        would have waited on, in the slot its resume would have taken,
        so same-instant order is unchanged.
        """
        try:
            egress_index = self._route(flit)
        except KeyError:
            slots.release(request)
            if self._tel is not None:
                self._m_drops.inc(time=self.env.now)
                self._tel.instant("switch.drop", track=self._track,
                                  packet=repr(flit.packet))
            self.env.credit_elided(1)
            return
        egress = self.ports[egress_index]
        egress.pending += 1
        flit.flow = ingress.flow
        domain = self.credit_domains.get(egress_index)
        if domain is None:
            self._stage(flit, egress, slots, request)
            return
        if flit.flow not in domain.flow_names():
            domain.register(flit.flow)
        self._then(domain.acquire(flit.flow, trace=flit.packet.trace),
                   partial(self._stage, flit, egress, slots, request))

    def _stage(self, flit: Flit, egress: SwitchPort, slots: Resource,
               request, _acquired: Optional[Event] = None) -> None:
        push = egress.scheduler.push(flit)
        if self._tel is not None and flit.packet.trace is not None:
            # Blocked at a full staging queue: still queueing, charged
            # to the egress scheduler's site.
            self._tel.wait(egress.scheduler.site, flit.packet.trace,
                           QUEUEING, push)
        self._then(push, partial(self._staged, slots, request))

    def _staged(self, slots: Resource, request, _pushed: Event) -> None:
        slots.release(request)
        self.env.credit_elided(1)

    def _then(self, event: Event, continuation) -> None:
        """Continue a forward when ``event`` fires, as its writer."""
        if self._san is not None:
            continuation = self.env.active_process.wrap(continuation)
        event._attach(continuation)

    def _route(self, flit: Flit) -> int:
        """Pick the egress port; adaptive mode takes the least loaded.

        All flits of one packet must take one path (reassembly is
        per-packet, but ordering within the packet matters), so the
        adaptive choice is made on the head flit and remembered.
        """
        candidates = self.table.route(flit.packet.dst)
        if not self.adaptive_routing or len(candidates) == 1:
            return candidates[0]
        chosen = flit.packet.meta.get("_adaptive_path", {}).get(self.name)
        if chosen is not None:
            return chosen
        # Least in-flight load wins; ties rotate round-robin so equal
        # paths actually share (a head-of-list bias would starve one).
        self._rr_counter += 1
        rotation = self._rr_counter % len(candidates)
        rotated = candidates[rotation:] + candidates[:rotation]
        chosen = min(rotated,
                     key=lambda index: self.ports[index].pending)
        flit.packet.meta.setdefault("_adaptive_path", {})[self.name] = \
            chosen
        return chosen

    def _sent(self, port: SwitchPort, flit: Flit) -> None:
        """A flit left ``port`` on the wire: count it, free its credit.

        The ``done`` hook of the egress link's transmit loop, which
        serves this port's scheduler.
        """
        port.pending -= 1
        port.flits_out += 1
        self.flits_forwarded += 1
        if self._tel is not None:
            # Counter.inc inlined: one per-flit bump, no calls.
            counter = self._m_forwarded
            counter.value += 1.0
            counter.last_time = self.env._now
        domain = self.credit_domains.get(port.index)
        if domain is not None and flit.flow is not None:
            domain.release(flit.flow)

    # -- inspection -------------------------------------------------------------

    def port_count(self) -> int:
        return len(self.ports)

    def describe(self) -> str:
        lines = [f"switch {self.name} (domain {self.domain}, "
                 f"{len(self.ports)} ports, {self.scheduler_kind} scheduler)"]
        for index in sorted(self.ports):
            port = self.ports[index]
            lines.append(f"  port {index} [{port.role.value}] -> {port.peer} "
                         f"(in={port.flits_in}, out={port.flits_out})")
        return "\n".join(lines)
