"""Bit-identity pins for the fabric's handoff callbacks.

The fixed-delay handoffs (link propagation, credit return, the switch's
port-latency forward) run as kernel callbacks on every path, observed
and sanitized alike.  They credit the start hook and completion of the
process each one stands in for, in the time bucket where that process
dispatched them.  So every timestamp, every counter and
``events_processed`` equal those of the process-per-handoff model.
Runs of a small switch model, cut short by a ``run(until=...)`` horizon
or not, are pinned to tuples recorded from that model.

Every switch runs one per-flit egress loop, so plain, telemetry, causal
and sanitized runs execute the same fabric code: they must agree on
everything, the elided count included.
"""

from __future__ import annotations

import pytest

from repro import params
from repro.fabric import Channel, Packet, PacketKind
from repro.pcie import FabricManager, PortRole, Topology
from repro.experiments import RunContext, get
from repro.sim import Environment
from repro.telemetry import Telemetry
from repro.telemetry.causal import CausalRecorder


# -- telemetry scenarios: summaries and event counts ---------------------


@pytest.mark.parametrize("name", ["interleave", "starvation", "t2"])
def test_scenario_bit_identical_to_sanitized(name):
    defn = get(name)
    results = {}
    for sanitize in (False, True):
        ctx = RunContext(defn.defaults(),
                         observe=("sanitize",) if sanitize else (),
                         retain=True)
        summary = defn.run(ctx)
        env = ctx.finish(summary)[0].env
        results[sanitize] = (summary, env._events_processed, env.now,
                             env.stats["events_elided"])
    assert results[False] == results[True]


def test_interleave_handoffs_actually_engage():
    # The identity guarantee is vacuous if the handoff callbacks never
    # fire: the interleave scenario must elide a sizeable slice of all
    # its events through them.
    defn = get("interleave")
    ctx = RunContext(defn.defaults(), retain=True)
    stats = ctx.finish(defn.run(ctx))[0].env.stats
    assert stats["events_elided"] > stats["events_processed"] * 0.1


# -- switch: one per-flit egress loop on every path ----------------------


#: `_run_switch` results, minus the elided count, recorded from the
#: process-per-handoff model (a process per propagation, credit return
#: and forward): (now, events_processed, flits_forwarded, per-port
#: (index, in, out, pending), per-port phys (flits, bytes)), keyed by
#: the `run(until=...)` horizon.  The FIFO and fair schedulers agree on
#: this single-flow model.
_PINNED = {
    None: (3470.03125, 49593, 1548, [(0, 1548, 0, 0), (1, 0, 1548, 0)],
           [(0, 0), (1548, 105264)]),
    1_000.0: (1000.0, 17090, 425, [(0, 576, 0, 0), (1, 0, 425, 118)],
              [(0, 0), (425, 28900)]),
    2_500.0: (2500.0, 39733, 1131, [(0, 1324, 0, 0), (1, 0, 1131, 151)],
              [(0, 0), (1131, 76908)]),
    5_000.0: (5000.0, 49593, 1548, [(0, 1548, 0, 0), (1, 0, 1548, 0)],
              [(0, 0), (1548, 105264)]),
    9_999.5: (9999.5, 49593, 1548, [(0, 1548, 0, 0), (1, 0, 1548, 0)],
              [(0, 0), (1548, 105264)]),
}


def _environment(mode):
    """A plain, telemetry, causal or sanitized environment (no sampler:
    a sampler's timer would add events of its own)."""
    if mode == "sanitize":
        return Environment(sanitize=True)
    if mode == "telemetry":
        return Environment(telemetry=Telemetry())
    if mode == "causal":
        return Environment(telemetry=Telemetry(causal=CausalRecorder()))
    assert mode == "plain"
    return Environment()


def _run_switch(mode, until=None, scheduler="fifo", writes=12):
    env = _environment(mode)
    topo = Topology(env, scheduler=scheduler)
    topo.add_switch("sw0")
    topo.add_endpoint("src")
    topo.connect_endpoint("sw0", "src", role=PortRole.UPSTREAM)
    topo.add_endpoint("dev")
    topo.connect_endpoint("sw0", "dev",
                          link_params=params.LinkParams(lanes=4))
    FabricManager(topo).configure()

    def handler(request):
        yield env.timeout(params.FAM_ACCESS_NS)
        return None   # posted writes

    topo.port_of("dev").serve(handler, concurrency=4)
    dst = topo.endpoints["dev"].global_id

    def writer():
        port = topo.port_of("src")
        for _ in range(writes):
            packet = Packet(kind=PacketKind.IO_WR, channel=Channel.CXL_IO,
                            src=port.port_id, dst=dst, nbytes=8 * 1024)
            yield from port.post(packet)

    env.process(writer())
    env.run(until=until)
    switch = topo.switches["sw0"]
    ports = sorted((i, p.flits_in, p.flits_out, p.pending)
                   for i, p in switch.ports.items())
    phys = [(p.out_link.phys.flits_sent, p.out_link.phys.bytes_sent)
            for _, p in sorted(switch.ports.items())]
    return (env.now, env._events_processed, switch.flits_forwarded,
            ports, phys, env.stats["events_elided"])


@pytest.mark.parametrize("until", [1_000.0, 2_500.0, 5_000.0, 9_999.5])
def test_switch_truncated_run_bit_identical(until):
    # A horizon landing mid-handoff must leave counters, port state and
    # the event count exactly where the process-per-handoff model
    # leaves them: elisions are credited per time bucket, never up
    # front.
    reference = _run_switch("sanitize", until=until)
    plain = _run_switch("plain", until=until)
    assert plain == reference
    assert plain[:5] == _PINNED[until]


def test_switch_fair_scheduler_bit_identical():
    # FairVc service order can be preempted by later pushes; its egress
    # loop serves flit by flit like every other, and on this single-flow
    # model it lands on the FIFO pins, cut short or not.
    for until in _PINNED:
        reference = _run_switch("sanitize", until=until, scheduler="fair")
        plain = _run_switch("plain", until=until, scheduler="fair")
        assert plain == reference, until
        assert plain[:5] == _PINNED[until], until


@pytest.mark.parametrize("scheduler", ["fifo", "fair", "priority"])
def test_fair_switch_agrees_under_every_observer(scheduler):
    # Plain, telemetry, causal and sanitized runs execute the same
    # handoff and egress code under every discipline: everything, the
    # elided count included, must agree, and match the pin.
    runs = {mode: _run_switch(mode, scheduler=scheduler)
            for mode in ("plain", "telemetry", "causal", "sanitize")}
    assert len(set(map(repr, runs.values()))) == 1, runs
    assert runs["plain"][:5] == _PINNED[None]
    assert runs["plain"][5] > 0
