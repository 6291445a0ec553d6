"""The topology mapper: descriptor -> wired fabric, deterministically.

:func:`compile_topology` resolves a validated
:class:`~repro.topo.descriptor.TopologyDescriptor` into a fully wired
:class:`~repro.pcie.topology.Topology` plus a configured
:class:`~repro.pcie.manager.FabricManager` — the same division of
labour the paper describes (the descriptor is the logical shape; the
manager fills every switch's routing table out-of-band).

Wiring order is canonical and matters: link and switch-port
construction starts simulator processes, so the compiler always emits

1. switches        (pods in declaration order, switches in order),
2. intra-pod links (pods in order, links in order),
3. inter-pod links (in order),
4. endpoints       (pods in order, endpoints in order),
5. fabric-manager route fill.

This is exactly the order the hand-wired scenario builders used, which
is what makes the descriptor migrations byte-identical (pinned by
tests): the same descriptor always produces the same process-creation
sequence, the same PBR id assignment, and the same routes.
"""

from __future__ import annotations

import dataclasses

from ..pcie.manager import FabricManager
from ..pcie.switch import PortRole
from ..pcie.topology import Topology
from ..sim import Environment
from .descriptor import TopologyDescriptor

__all__ = ["CompiledFabric", "compile_topology"]

_ROLE_MAP = {"upstream": PortRole.UPSTREAM,
             "downstream": PortRole.DOWNSTREAM}


@dataclasses.dataclass
class CompiledFabric:
    """One compiled descriptor: the wired topology + its manager."""

    descriptor: TopologyDescriptor
    topology: Topology
    manager: FabricManager
    routes_installed: int

    def describe(self) -> str:
        """ASCII inventory: pods, switches, endpoints, link classes."""
        desc = self.descriptor
        stats = desc.stats()
        lines = [f"{desc.name}: {stats['pods']} pod(s), "
                 f"{stats['switches']} switch(es), "
                 f"{stats['endpoints']} endpoint(s), "
                 f"{stats['switch_links']} switch link(s), "
                 f"{self.routes_installed} route(s) installed"]
        if desc.description:
            lines.append(f"  {desc.description}")
        for pod in desc.pods:
            lines.append(f"  pod {pod.name} (domain {pod.domain}):")
            for switch in pod.switches:
                scheduler = switch.scheduler or desc.scheduler
                lines.append(f"    switch {switch.name} "
                             f"[{scheduler}]")
            for link in pod.links:
                suffix = f" [{link.link_class}]" if link.link_class else ""
                lines.append(f"    link {link.a} <-> {link.b}{suffix}")
            for endpoint in pod.endpoints:
                suffix = f" [{endpoint.link_class}]" \
                    if endpoint.link_class else ""
                lines.append(f"    endpoint {endpoint.name} "
                             f"({endpoint.role}) @ "
                             f"{endpoint.switch}{suffix}")
        for link in desc.interpod:
            suffix = f" [{link.link_class}]" if link.link_class else ""
            lines.append(f"  interpod {link.a} <-> {link.b}{suffix}")
        return "\n".join(lines)


def compile_topology(descriptor: TopologyDescriptor, env: Environment,
                     configure: bool = True) -> CompiledFabric:
    """Deterministically wire one descriptor into ``env``.

    With ``configure=True`` (the default) the fabric manager fills the
    routing tables before returning, so the fabric is ready to carry
    traffic.
    """
    descriptor.validate()
    default_params = descriptor.resolve_link_params(None, None)
    topology = Topology(env, link_params=default_params,
                        scheduler=descriptor.scheduler)

    for pod in descriptor.pods:
        for switch in pod.switches:
            topology.add_switch(
                switch.name, domain=pod.domain,
                scheduler=switch.scheduler,
                port_latency_ns=switch.port_latency_ns,
                scheduler_capacity=switch.scheduler_capacity,
                ingress_buffer=switch.ingress_buffer)

    for pod in descriptor.pods:
        for link in pod.links:
            topology.connect_switches(
                link.a, link.b,
                link_params=descriptor.resolve_link_params(
                    link.link_class, pod),
                control_lane=link.control_lane)

    for link in descriptor.interpod:
        topology.connect_switches(
            link.a, link.b,
            link_params=descriptor.resolve_link_params(link.link_class,
                                                       None),
            control_lane=link.control_lane)

    for pod in descriptor.pods:
        for endpoint in pod.endpoints:
            topology.add_endpoint(endpoint.name, domain=pod.domain)
            topology.connect_endpoint(
                endpoint.switch, endpoint.name,
                link_params=descriptor.resolve_link_params(
                    endpoint.link_class, pod),
                role=_ROLE_MAP[endpoint.role],
                control_lane=endpoint.control_lane,
                tag_capacity=endpoint.tag_capacity)

    manager = FabricManager(topology)
    routes = manager.configure() if configure else 0
    return CompiledFabric(descriptor=descriptor, topology=topology,
                          manager=manager, routes_installed=routes)
