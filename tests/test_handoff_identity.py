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
from repro.fabric import Channel, LinkLayer, Packet, PacketKind, fragment
from repro.pcie import FabricManager, FabricSwitch, PbrId, PortRole, Topology
from repro.experiments import RunContext, get
from repro.sim import Environment, SimRng
from repro.telemetry import Telemetry, TraceContext


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
        return Environment(telemetry=Telemetry(causal_sample=1))
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


# -- lossy link with a control lane: every transmit path ------------------


#: `_run_lossy_switch` results, recorded before the link's VC senders,
#: its control-lane sender and the switch egress became one transmit
#: loop: (arrival instant, channel) per flit at the far end of the
#: egress link; retransmissions on the ingress and egress links;
#: events processed; events elided.
_LOSSY_ARRIVALS = (
    (102.65625, "cxl.io"), (104.78125, "cxl.io"), (106.90625, "cxl.io"),
    (109.03125, "cxl.io"), (111.15625, "cxl.io"), (115.84375, "cxl.io"),
    (130.09375, "cxl.io"), (132.21875, "cxl.io"), (134.34375, "cxl.io"),
    (148.59375, "cxl.io"), (162.84375, "cxl.io"), (164.96875, "cxl.io"),
    (179.21875, "cxl.io"), (181.34375, "cxl.io"), (183.46875, "cxl.io"),
    (185.59375, "cxl.io"), (211.96875, "cxl.io"), (238.34375, "cxl.io"),
    (252.59375, "cxl.io"), (254.71875, "cxl.io"), (256.84375, "cxl.io"),
    (258.96875, "cxl.io"), (261.09375, "cxl.io"), (263.21875, "cxl.io"),
    (265.34375, "cxl.io"), (267.46875, "cxl.io"), (294.03125, "control"),
    (296.15625, "cxl.io"), (298.28125, "cxl.io"), (300.40625, "cxl.io"),
    (302.53125, "cxl.io"), (329.09375, "control"), (355.65625, "control"),
)
_LOSSY_PINNED = (list(_LOSSY_ARRIVALS), 4, 9, 1084, 318)

#: Causal records of the traced run: one per span edge and grant mark.
_LOSSY_CAUSAL_RECORDS = 491


def _run_lossy_switch(env):
    """Data flits on two VCs and control-lane flits cross a switch.

    Both links into and out of the switch are lossy (fixed seeds) and
    have a control lane, so the run takes every transmit path: data
    credits, the credit-free control lane, CRC retries, the link's own
    senders and the switch egress.  Every packet is traced.
    """
    switch = FabricSwitch(env, "sw0")
    up = LinkLayer(env, name="up", control_lane=True, error_rate=0.1,
                   rng=SimRng(3))
    down = LinkLayer(env, name="down", control_lane=True, error_rate=0.2,
                     rng=SimRng(11), link_params=params.LinkParams(lanes=4))
    switch.attach(up, LinkLayer(env, name="up.back"),
                  role=PortRole.UPSTREAM)
    switch.attach(LinkLayer(env, name="down.back"), down)
    dst = PbrId(0, 1)
    switch.table.add_endpoint(dst, 1)
    arrivals = []

    def sender():
        for n in range(6):
            data = Packet(kind=PacketKind.IO_WR, channel=Channel.CXL_IO,
                          src=0, dst=dst.global_id, nbytes=256,
                          trace=TraceContext(2 * n + 1))
            for flit in fragment(data, vc=n % 2):
                yield up.send(flit)
            if n % 2 == 0:
                ctrl = Packet(kind=PacketKind.CTRL_REQ,
                              channel=Channel.CONTROL, src=0,
                              dst=dst.global_id,
                              trace=TraceContext(2 * n + 2))
                for flit in fragment(ctrl):
                    yield up.send(flit)

    def receiver():
        while True:
            flit = yield down.rx.get()
            down.consume(flit)
            arrivals.append((env.now, flit.packet.channel.value))

    env.process(sender())
    env.process(receiver(), daemon=True)
    env.run()
    return (arrivals, up.retransmissions, down.retransmissions,
            env._events_processed, env.stats["events_elided"])


@pytest.mark.parametrize("mode", ["plain", "telemetry", "causal",
                                  "sanitize"])
def test_lossy_control_lane_switch_pinned(mode):
    env = _environment(mode)
    assert _run_lossy_switch(env) == _LOSSY_PINNED
    if mode == "causal":
        records = env.telemetry.events
        assert len(records) == _LOSSY_CAUSAL_RECORDS
        opened = {r[3] for r in records if r[0] == "b"}
        closed = {r[3] for r in records if r[0] == "e"}
        assert opened == closed
