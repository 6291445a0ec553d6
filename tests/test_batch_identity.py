"""Bit-identity pins for the fabric's handoff callbacks and egress sweep.

The fixed-delay handoffs (link propagation, credit return, the switch's
port-latency forward) run as kernel callbacks on every path, observed
and sanitized alike.  They credit the start hook and completion of the
process each one stands in for, in the time bucket where that process
dispatched them.  So every timestamp, every counter and
``events_processed`` equal those of the process-per-handoff model.
Runs of a small switch model, cut short by a ``run(until=...)`` horizon
or not, are pinned to tuples recorded from that model.

The switch's batched egress sweep runs only without telemetry and
sanitizer.  A sanitized run takes the per-flit egress loop, so it is
the sweep's reference: these tests run each model plain and sanitized
and compare.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro import params
from repro.fabric import Channel, Flit, Packet, PacketKind
from repro.pcie import FabricManager, PortRole, Topology
from repro.pcie.arbitration import (EgressScheduler, FairVcScheduler,
                                    FifoScheduler, PriorityScheduler)
from repro.experiments import RunContext, get, run_scenario
from repro.sim import Environment
from repro.sim.engine import _POOL_LIMIT
from repro.telemetry import Telemetry
from repro.telemetry.causal import CausalRecorder

np = pytest.importorskip("numpy")


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
    assert results[False][:3] == results[True][:3]
    plain, sanitized = results[False][3], results[True][3]
    if name == "interleave":
        # Both take the handoff callbacks; only the plain run has the
        # FIFO egress sweep on top.
        assert plain > sanitized > 0
    else:
        assert plain == sanitized


def test_interleave_fast_paths_actually_engage():
    # The identity guarantee is vacuous if the fast paths never fire:
    # the interleave scenario must take both the credit-return fast
    # path and the egress sweep (a sizeable slice of all its events).
    res = run_scenario("interleave", telemetry=False)
    stats = res.env.stats
    assert stats["events_elided"] > stats["events_processed"] * 0.1


# -- flits: the transport key the egress sweep batches on ---------------


def test_link_transport_key_is_size_and_vc():
    packet = Packet(kind=PacketKind.MEM_RD, channel=Channel.CXL_MEM,
                    src=0, dst=1)
    a = Flit(packet=packet, index=0, total=2, size_bytes=256, vc=0)
    b = Flit(packet=packet, index=1, total=2, size_bytes=256, vc=1)
    assert a.transport_key() == (256, 0)
    assert a.transport_key() != b.transport_key()


# -- switch: batched egress sweep ----------------------------------------


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


def test_switch_fifo_sweep_bit_identical_and_engages():
    reference = _run_switch("sanitize")
    swept = _run_switch("plain")
    assert swept[:5] == reference[:5] == _PINNED[None]
    # 8KB posted writes stage long homogeneous runs at the FIFO
    # egress; the sweep must elide a sizeable share of their events on
    # top of what the handoff callbacks elide.
    assert swept[5] - reference[5] > swept[1] * 0.05


@pytest.mark.parametrize("until", [1_000.0, 2_500.0, 5_000.0, 9_999.5])
def test_switch_sweep_truncated_run_bit_identical(until):
    # A horizon landing mid-sweep or mid-handoff must leave counters,
    # port state and the event count exactly where the
    # process-per-handoff model leaves them: elisions are credited per
    # time bucket, never up front.
    reference = _run_switch("sanitize", until=until)
    swept = _run_switch("plain", until=until)
    assert swept[:5] == reference[:5] == _PINNED[until]


def test_switch_fair_scheduler_bit_identical_without_sweep():
    # FairVc service order can be preempted by later pushes, so it is
    # not batchable: the egress loop stays per-flit, and only the
    # handoff callbacks elide, the same events on both paths.
    reference = _run_switch("sanitize", scheduler="fair")
    plain = _run_switch("plain", scheduler="fair")
    assert plain == reference
    assert plain[:5] == _PINNED[None]


def test_fair_switch_agrees_under_every_observer():
    # With the sweep off, plain, telemetry, causal and sanitized runs
    # execute the same handoff code: everything, the elided count
    # included, must agree.
    runs = {mode: _run_switch(mode, scheduler="fair")
            for mode in ("plain", "telemetry", "causal", "sanitize")}
    assert len(set(map(repr, runs.values()))) == 1, runs
    assert runs["plain"][5] > 0


def test_only_fifo_scheduler_is_batchable():
    assert FifoScheduler.batchable
    assert not EgressScheduler.batchable
    assert not FairVcScheduler.batchable
    assert not PriorityScheduler.batchable


def test_fifo_plan_is_pure_and_commit_head_pops():
    env = Environment()
    scheduler = FifoScheduler(env, capacity=8)
    packet = Packet(kind=PacketKind.MEM_WR, channel=Channel.CXL_MEM,
                    src=0, dst=1)
    for i in range(4):
        scheduler.push(Flit(packet=packet, index=i, total=4,
                            size_bytes=256))
    env.run()
    run = scheduler.plan_ready_run(3)
    assert [f.index for f in run] == [0, 1, 2]
    assert len(scheduler) == 4          # planning removed nothing
    scheduler.commit_head()
    assert len(scheduler) == 3
    assert scheduler.peek_ready().index == 1


def test_fifo_plan_stops_at_transport_key_change():
    env = Environment()
    scheduler = FifoScheduler(env, capacity=16)
    packet = Packet(kind=PacketKind.MEM_WR, channel=Channel.CXL_MEM,
                    src=0, dst=1)
    for i, size in enumerate([256, 256, 64, 256]):
        scheduler.push(Flit(packet=packet, index=i, total=4,
                            size_bytes=size))
    env.run()
    assert [f.size_bytes for f in scheduler.plan_ready_run(16)] \
        == [256, 256]
    env2 = Environment()
    lone = FifoScheduler(env2, capacity=16)
    lone.push(Flit(packet=packet, index=0, total=1, size_bytes=256))
    env2.run()
    assert lone.peek_ready() is None    # a 1-flit "run" is not a run


# -- kernel primitives the fast paths lean on ----------------------------


def test_timeout_at_lands_on_exact_float():
    # now + (t - now) != t under IEEE-754 for this triple; timeout_at
    # must land on t exactly, not on the round-tripped sum.
    env = Environment()

    def proc():
        yield env.timeout(0.1)
        assert env.now + (0.3 - env.now) != 0.3
        yield env.timeout_at(0.3)
        assert env.now == 0.3

    env.process(proc())
    env.run()


def test_cumsum_reproduces_chained_additions():
    # The egress sweep's schedule relies on numpy's cumsum accumulating
    # strictly sequentially, exactly like the scalar loop's repeated
    # `now += ser_ns` — pin that (awkward floats on purpose).
    for start, step in [(0.30000000000000004, 0.1),
                        (171649.49999999953, 40.96),
                        (1.0 / 3.0, 2.0 / 7.0)]:
        ends = np.cumsum([start] + [step] * 16)
        acc = start
        for i in range(16):
            acc = acc + step
            assert float(ends[i + 1]) == acc


def test_event_pool_counters_exposed_and_bounded():
    env = Environment()
    procs = _POOL_LIMIT + 64

    def looper():
        for _ in range(5):
            yield env.timeout(1.0)

    for _ in range(procs):
        env.process(looper())
    env.run()
    stats = env.stats
    assert stats["pool_hits"] > 0
    # More concurrent timeouts than the pool holds: some must allocate.
    assert stats["pool_misses"] > 0
    assert stats["pooled_timeouts"] <= _POOL_LIMIT
    assert stats["pooled_hooks"] <= _POOL_LIMIT


# -- benchmark harness: BENCH numbering tolerates gaps -------------------


def test_next_bench_path_walks_numbering_gaps(tmp_path):
    repo = Path(__file__).resolve().parent.parent
    if str(repo / "benchmarks") not in sys.path:
        sys.path.insert(0, str(repo / "benchmarks"))
    from run_all import next_bench_path

    assert next_bench_path(tmp_path).name == "BENCH_1.json"
    (tmp_path / "BENCH_1.json").write_text("{}")
    (tmp_path / "BENCH_3.json").write_text("{}")      # gap at 2
    assert next_bench_path(tmp_path).name == "BENCH_4.json"
    (tmp_path / "BENCH_4.json").write_text("{}")
    (tmp_path / "BENCH_5b.json").write_text("{}")     # non-numeric squatter
    assert next_bench_path(tmp_path).name == "BENCH_5.json"
    (tmp_path / "BENCH_5.json").write_text("{}")
    assert next_bench_path(tmp_path).name == "BENCH_6.json"
