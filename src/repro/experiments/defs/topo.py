"""Topology-driven experiments: §3 pathologies on generated fabrics.

The ``xswitch_starvation`` experiment replays the C7 cross-switch
credit-starvation story on a *declarative* topology: by default the
committed ``xswitch_fat_tree_2pod`` shape (a generated 2-pod fat tree
whose pods are joined by one narrow x8 inter-pod link with its own
credit budget).  A flood of posted writes toward a slow device in the
remote pod exhausts the inter-pod link credits; a victim flow reading a
*different* remote device — sharing no endpoint with the flood —
starves anyway, because the congestion back-propagates across the
spine.  Per-class fair queueing contains the spread.

Because the fabric comes from a descriptor, the ``topology`` parameter
is a sweep axis: any committed shape or generator call
(``fat_tree:pods=2,leaves=3``) with at least two hosts and two devices
runs the table at its own scale, and the two starvation invariants
report whether the claim holds there (EXPERIMENTS.md lists the
per-shape results).

The ``feedback`` knob adds a fourth, closed-loop case: the FIFO fabric
runs under the health monitor, and a
:class:`~repro.control.ControlPlane` rule watches the inter-pod link's
bulk-VC credit gauge — the moment a window closes with the pool pinned
at zero, a :class:`~repro.control.LinkActuator` revokes the flood
host's injection credits down to a trickle (the fabric-manager
admission-control move), containing the starvation without touching
the victim's path.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Tuple

from ...fabric import Channel, Packet, PacketKind
from ...sim import Environment, StatSeries, run_proc
from ...topo import (
    DescriptorError,
    EndpointSpec,
    TopologyDescriptor,
    compile_topology,
    resolve_topology,
)
from ..format import print_table
from ..registry import ExperimentError, Param, experiment
from .cfc import fair_contains_spread, spread_to_victim

_SLOW_DEVICE_NS = 500.0
_FAST_DEVICE_NS = 10.0
_FLOOD_WORKERS = 8

# The closed-loop case: 1,000 ns health windows sampled every 500 ns;
# the rescue revokes the flood's edge-link credits down to this many.
_FEEDBACK_WINDOW_NS = 1_000.0
_FEEDBACK_INTERVAL_NS = 500.0
_RESCUE_GRANTED = 2


def _pick_endpoints(descriptor: TopologyDescriptor) \
        -> Tuple[str, str, str, str]:
    """(victim_host, flood_host, victim_dev, hot_dev), shape-agnostic.

    The victim host is the first upstream endpoint; the flood host is
    a sibling from the same pod when one exists (so both flows share
    the victim's egress toward the remote pod).  Devices prefer a pod
    *other* than the victim's, so the measured path crosses the
    inter-pod link — the cross-switch part of the claim.
    """
    ups = descriptor.endpoints_by_role("upstream")
    downs = descriptor.endpoints_by_role("downstream")
    if len(ups) < 2 or len(downs) < 2:
        raise ExperimentError(
            f"topology {descriptor.name!r} has {len(ups)} host(s) and "
            f"{len(downs)} device(s); xswitch_starvation needs at "
            f"least 2 of each")

    def pod_name(endpoint: EndpointSpec) -> str:
        return descriptor.pod_of_endpoint(endpoint.name).name

    victim_host = ups[0]
    same_pod_hosts = [u for u in ups[1:]
                     if pod_name(u) == pod_name(victim_host)]
    flood_host = (same_pod_hosts or ups[1:])[0]
    remote_downs = [d for d in downs
                    if pod_name(d) != pod_name(victim_host)]
    pool = remote_downs if len(remote_downs) >= 2 else downs
    victim_dev, hot_dev = pool[0], pool[-1]
    return (victim_host.name, flood_host.name, victim_dev.name,
            hot_dev.name)


def _interpod_exit(descriptor: TopologyDescriptor,
                   from_pod: str) -> str:
    """The inter-pod link name in the direction leaving ``from_pod``."""
    def pod_of_switch(name: str) -> str:
        for pod in descriptor.pods:
            if any(s.name == name for s in pod.switches):
                return pod.name
        raise ExperimentError(
            f"topology {descriptor.name!r} has no switch {name!r}")

    for link in descriptor.interpod:
        if pod_of_switch(link.a) == from_pod:
            return f"{link.a}->{link.b}"
        if pod_of_switch(link.b) == from_pod:
            return f"{link.b}->{link.a}"
    raise ExperimentError(
        f"topology {descriptor.name!r} has no inter-pod link leaving "
        f"pod {from_pod!r}; the feedback case needs one")


def xswitch_rescue_policy(descriptor: TopologyDescriptor):
    """The built-in closed-loop rescue for ``feedback=default``.

    Bulk CXL.io traffic rides VC 1 (the flood's channel — victim
    CXL.mem reads ride VC 0), so the trigger is the flood-direction
    inter-pod link's vc1 credit gauge pinned at zero at window close,
    and the action quenches the *aggressor*: revoke the flood host's
    edge-link vc1 credits down to a trickle.
    """
    from ...control import FeedbackPolicy
    _, flood_host, _, _ = _pick_endpoints(descriptor)
    flood_pod = descriptor.pod_of_endpoint(flood_host).name
    exit_link = _interpod_exit(descriptor, flood_pod)
    return FeedbackPolicy({
        "schema": 1,
        "rules": [
            {"name": "quench-flood",
             "when": {"kind": "gauge_level",
                      "gauge": f"link.{exit_link}.vc1.credits",
                      "below": 0.5},
             "then": {"actuator": "link.injection",
                      "set": {"granted": _RESCUE_GRANTED}},
             "max_firings": 1},
        ]}, source="builtin:xswitch-rescue")


def run_xswitch_case(descriptor: TopologyDescriptor, scheduler: str,
                     with_flood: bool, victim_reads: int,
                     flood_writes: int,
                     feedback: Any = None) -> Tuple[StatSeries, Any]:
    """One case; returns (victim latency series, control plane or None).

    With ``feedback`` (a FeedbackPolicy) the run carries telemetry, a
    sampler, and a health monitor; a LinkActuator named
    ``link.injection`` wraps the flood host's edge link so rules can
    throttle the aggressor at its injection port.  Telemetry does not
    change model timings (pinned bit-identity), so the case's latency
    stats stay comparable with the bare runs.
    """
    plane = None
    monitor = None
    if feedback is not None:
        from ...control import ControlPlane, LinkActuator
        from ...telemetry.causal import CausalRecorder
        from ...telemetry.core import Telemetry
        from ...telemetry.health import HealthMonitor
        from ...telemetry.sampler import TimelineSampler
        env = Environment(
            telemetry=Telemetry(causal=CausalRecorder(sample=1)))
        TimelineSampler(env,
                        interval_ns=_FEEDBACK_INTERVAL_NS).start()
        monitor = HealthMonitor(env.telemetry, "xswitch",
                                window_ns=_FEEDBACK_WINDOW_NS)
        plane = ControlPlane(feedback)
    else:
        env = Environment()
    case_desc = dataclasses.replace(descriptor, scheduler=scheduler)
    topo = compile_topology(case_desc, env).topology
    victim_host, flood_host, victim_dev, hot_dev = \
        _pick_endpoints(descriptor)
    if plane is not None:
        plane.add_actuator(LinkActuator(
            topo.port_of(flood_host).tx_link, vc=1,
            name="link.injection"))
        plane.attach(monitor)

    def slow_handler(request):
        yield env.timeout(_SLOW_DEVICE_NS)   # the congestion source
        if request.kind is not PacketKind.MEM_RD:
            return None
        return request.make_response()

    def fast_handler(request):
        yield env.timeout(_FAST_DEVICE_NS)
        if request.kind is not PacketKind.MEM_RD:
            return None
        return request.make_response()

    topo.port_of(hot_dev).serve(slow_handler, concurrency=1)
    topo.port_of(victim_dev).serve(fast_handler, concurrency=8)
    stats = StatSeries("victim")

    def victim():
        port = topo.port_of(victim_host)
        dst = topo.endpoints[victim_dev].global_id
        for _ in range(victim_reads):
            packet = Packet(kind=PacketKind.MEM_RD,
                            channel=Channel.CXL_MEM,
                            src=port.port_id, dst=dst, nbytes=64)
            start = env.now
            yield from port.request(packet)
            stats.add(env.now - start, time=env.now)
            yield env.timeout(200.0)

    def flood_worker(count):
        # Pipelined posted writes: workers keep the inter-pod link's
        # credit budget exhausted, which is what back-propagates.
        port = topo.port_of(flood_host)
        dst = topo.endpoints[hot_dev].global_id
        for _ in range(count):
            packet = Packet(kind=PacketKind.MEM_WR,
                            channel=Channel.CXL_IO,
                            src=port.port_id, dst=dst, nbytes=4096)
            yield from port.post(packet)

    if with_flood:
        for _ in range(_FLOOD_WORKERS):
            env.process(flood_worker(flood_writes // _FLOOD_WORKERS))
    run_proc(env, victim())
    if monitor is not None:
        monitor.finalize(env.now)
    return stats, plane


def render_xswitch_starvation(summary: Dict[str, Any],
                              _params: Dict[str, Any]) -> None:
    cases = summary["cases"]
    quiet = cases["fifo quiet"]["mean_ns"]
    rows = [[case, r["mean_ns"], r["p99_ns"], r["mean_ns"] / quiet]
            for case, r in cases.items()]
    endpoints = summary["endpoints"]
    print_table(
        f"xswitch: victim latency across pods on "
        f"{summary['topology']} "
        f"({endpoints['victim_host']} -> {endpoints['victim_dev']} vs "
        f"flood at {endpoints['hot_dev']})",
        ["case", "mean ns", "p99 ns", "vs quiet"], rows)


@experiment(
    "xswitch_starvation",
    "§3: cross-switch credit starvation on a generated 2-pod fat tree",
    params={"topology": Param(str, "xswitch_fat_tree_2pod",
                              "committed shape or generator call "
                              "(e.g. 'fat_tree:pods=2,leaves=3')"),
            "victim_reads": Param(int, 40, "victim-flow reads"),
            "flood_writes": Param(int, 600,
                                  "flood writes at the hot device"),
            "feedback": Param(str, "off",
                              "closed-loop rescue case: off, default, "
                              "or a feedback-policy JSON path")},
    render=render_xswitch_starvation,
    invariants=(
        # Victim and flood share only the spine-to-spine hop; the
        # victim still suffers a multiple of its quiet latency.
        ("xswitch_congestion_crosses_the_interpod_link",
         lambda s, _p: spread_to_victim(s, 3.0)),
        ("xswitch_fair_queueing_contains_the_spread",
         lambda s, _p: fair_contains_spread(s, 1.5)),
    ))
def run_xswitch_starvation(ctx) -> Dict[str, Any]:
    try:
        descriptor = resolve_topology(ctx.topology)
    except DescriptorError as exc:
        # Surfaces through `repro bench`/`repro sweep` verbatim, with
        # the full list of valid shape and generator names attached.
        raise ExperimentError(str(exc)) from None
    victim_host, flood_host, victim_dev, hot_dev = \
        _pick_endpoints(descriptor)
    cases = {}
    for case, scheduler, with_flood in (
            ("fifo quiet", "fifo", False),
            ("fifo congested", "fifo", True),
            ("fair congested", "fair", True)):
        stats, _ = run_xswitch_case(descriptor, scheduler, with_flood,
                                    ctx.victim_reads,
                                    ctx.flood_writes)
        cases[case] = {"mean_ns": stats.mean, "p99_ns": stats.p99}
    summary: Dict[str, Any] = {
        "topology": descriptor.name,
        "endpoints": {"victim_host": victim_host,
                      "flood_host": flood_host,
                      "victim_dev": victim_dev,
                      "hot_dev": hot_dev},
        "cases": cases}
    if ctx.feedback != "off":
        from ...control import ControlError, FeedbackPolicy
        try:
            if ctx.feedback == "default":
                policy = xswitch_rescue_policy(descriptor)
            else:
                policy = FeedbackPolicy.load(ctx.feedback)
            stats, plane = run_xswitch_case(
                descriptor, "fifo", True, ctx.victim_reads,
                ctx.flood_writes, feedback=policy)
        except ControlError as exc:
            raise ExperimentError(str(exc)) from None
        cases["fifo rescue"] = {"mean_ns": stats.mean,
                                "p99_ns": stats.p99}
        summary["feedback"] = {"policy_source": policy.source,
                               "actions": plane.actions}
    return summary
