"""The three timeline experiments: §3 stories told by one environment.

Each builds a small, deterministic simulation in one environment
(labelled with the experiment's name) and returns a plain JSON-able
summary.  They are ordinary experiments: ``repro bench <name>
--observe trace,metrics,why,health,sanitize`` attaches any observer,
and the summary is bit-identical observed or not (pinned by tests).
Each declares the observer settings as ordinary parameters
(``interval_ns``, ``window_ns``, ``causal_sample``).

* ``t2`` — the Table 2 hierarchy walk: one core touching L1 / L2 /
  local DRAM / remote FAM, one span per level;
* ``starvation`` — §3 CFC credit starvation (claim C5): under
  :class:`~repro.pcie.credits.RampUpPolicy` a steadily hot flow
  compounds its grant while a quiet flow decays to the floor, then
  stalls hard when it finally bursts.  ``policy=fair`` swaps in the
  control; ``feedback`` closes the loop through the egress domain's
  :class:`~repro.control.CreditActuator`;
* ``interleave`` — §3 difference #3 (claim C3): 64B reads degrade
  drastically when interleaved with 16KB posted writes through a
  credit-agnostic FIFO egress.
"""

from __future__ import annotations

from typing import Any, Callable, Dict

from ... import params
from ...fabric import Channel, Packet, PacketKind
from ...infra import ClusterSpec, build_cluster
from ...pcie.credits import (CreditDomain, RampUpPolicy,
                             StaticEqualPolicy)
from ...sim import run_proc
from ...telemetry.causal import SERIALIZATION
from ...telemetry.core import span
from ...topo import compile_topology, load_shape
from ..registry import ExperimentError, Param, experiment

#: Observer settings, read by the run context when observed.
_OBSERVER_PARAMS = {
    "interval_ns": Param(float, params.SAMPLER_INTERVAL_NS,
                         "timeline sampler period (sim ns)"),
    "window_ns": Param(float, params.HEALTH_WINDOW_NS,
                       "health window width (sim ns)"),
    "causal_sample": Param(int, 1,
                           "sample 1-in-N transaction roots"),
}

#: The credit policy the health documents of ``t2`` and ``interleave``
#: name.  Neither has a credit domain; the label is the one their
#: pinned health documents have always carried.
_DOCUMENT_POLICY = "rampup"


# --------------------------------------------------------------------------
# t2: the Table 2 hierarchy walk
# --------------------------------------------------------------------------

@experiment("t2", "Timeline: the Table 2 hierarchy walk, one span per level",
            params=dict(_OBSERVER_PARAMS))
def run_t2(ctx) -> Dict[str, Any]:
    env = ctx.env("t2", policy=_DOCUMENT_POLICY)
    # The fabric comes from the committed t2_star shape (which the
    # tests pin equal to the descriptor a ClusterSpec(hosts=1) derives).
    cluster = build_cluster(env, ClusterSpec(
        hosts=1, descriptor=load_shape("t2_star")))
    host = cluster.host(0)
    remote_base = host.remote_base("fam0")
    hot_line = 1 << 20
    mean_ns: Dict[str, float] = {}

    def level(label: str, addrs, is_write: bool):
        with span(env, "t2.level", track="t2", level=label,
                  accesses=len(addrs)):
            start = env.now
            for addr in addrs:
                yield from host.mem.access(addr, is_write)
            mean_ns[label] = round((env.now - start) / len(addrs), 3)

    # A 64KB set: twice the 32KB L1, well inside the 1MB L2 — after a
    # warm pass the half evicted from L1 gives clean L2 hits.
    l2_lines = [(3 << 20) + i * 64 for i in range(1024)]

    def walk():
        yield from host.mem.access(hot_line, False)     # warm the line
        yield from level("l1", [hot_line] * 32, False)
        with span(env, "t2.warm", track="t2", lines=len(l2_lines)):
            for addr in l2_lines:
                yield from host.mem.access(addr, False)
        yield from level("l2", l2_lines[:256], False)
        yield from level("local",
                         [(2 << 20) + i * 4096 for i in range(32)], False)
        yield from level("remote",
                         [remote_base + i * 4096 for i in range(32)],
                         False)

    run_proc(env, walk())
    return {"mean_ns": mean_ns,
            "remote_vs_local":
                round(mean_ns["remote"] / mean_ns["local"], 2)}


# --------------------------------------------------------------------------
# starvation: §3 CFC quiet-flow starvation under RampUpPolicy (C5)
# --------------------------------------------------------------------------

_SERIALIZE_NS = 40.0
_WINDOW = 8
_BURST_FLITS = 64


#: Credit policies the starvation experiment's ``policy`` selects: the
#: pathological default vs the fair control (StaticEqualPolicy grants
#: each flow budget/flows = 16 credits, enough for the 8-worker
#: window, so the quiet burst never stalls).
STARVATION_POLICIES: Dict[str, Callable[[], Any]] = {
    "rampup": RampUpPolicy,
    "fair": StaticEqualPolicy,
}


def _default_rescue() -> Any:
    from ...control import FeedbackPolicy, default_feedback_policy
    return FeedbackPolicy(default_feedback_policy("starvation"),
                          source="default")


@experiment(
    "starvation",
    "Timeline: CFC quiet-flow starvation under ramp-up credits (C5)",
    params={**_OBSERVER_PARAMS,
            "policy": Param(str, "rampup",
                            "egress credit policy: rampup (the "
                            "pathological default) or fair "
                            "(StaticEqualPolicy control)"),
            "feedback": Param(str, "off",
                              "closed loop on the egress credits: off, "
                              "default, or a feedback-policy JSON "
                              "path")})
def run_starvation(ctx) -> Dict[str, Any]:
    from ...control import CreditActuator
    if ctx.policy not in STARVATION_POLICIES:
        raise ExperimentError(
            f"unknown starvation policy {ctx.policy!r}; choose from "
            f"{', '.join(sorted(STARVATION_POLICIES))}")
    env = ctx.env("starvation", policy=ctx.policy,
                  feedback=ctx.feedback_policy(_default_rescue))
    domain = CreditDomain(env, budget=32,
                          policy=STARVATION_POLICIES[ctx.policy](),
                          rebalance_ns=2_000.0, name="egress0")
    domain.register("hot")
    domain.register("quiet")
    domain.start()
    ctx.add_actuator(env, CreditActuator(domain))
    stalled: Dict[str, float] = {"hot": 0.0, "quiet": 0.0}
    tel = env.telemetry
    causal = tel.causal if tel is not None else None
    site_serialize = "egress0.serialize"

    def worker(flow: str, remaining):
        # One of _WINDOW pipelined issuers: the concurrency is what
        # makes a floor-sized grant visibly starve the flow.  On causal
        # runs each flit is a sampled transaction root: route = flow,
        # credit waits recorded by the domain, serialization by us.
        while remaining[0] > 0:
            remaining[0] -= 1
            context = causal.sample_root() if causal is not None else None
            if context is not None:
                causal.txn_begin(context, env.now, "flit", flow)
            start = env.now
            yield domain.acquire(flow, trace=context)
            stalled[flow] += env.now - start
            if context is not None:
                serialize = causal.begin(context, env.now, SERIALIZATION,
                                         site_serialize)
            yield env.timeout(_SERIALIZE_NS)
            if context is not None:
                causal.end(context, env.now, serialize)
                causal.txn_end(context, env.now)
            domain.release(flow)

    def run_flow(flow: str, flits: int):
        remaining = [flits]
        workers = [env.process(worker(flow, remaining))
                   for _ in range(_WINDOW)]
        yield env.all_of(workers)

    def hot_flow():
        with span(env, "starvation.hot_stream", track="app.hot"):
            yield from run_flow("hot", 3000)

    def quiet_flow():
        # Idle through several rebalance periods: RampUpPolicy decays
        # the grant to the floor.  Then burst.
        yield env.timeout(12_000.0)
        with span(env, "starvation.quiet_burst", track="app.quiet"):
            start = env.now
            yield from run_flow("quiet", _BURST_FLITS)
            stalled["burst_ns"] = round(env.now - start, 1)

    procs = [env.process(hot_flow()), env.process(quiet_flow())]

    def wait():
        yield env.all_of(procs)

    run_proc(env, wait())
    # An unstarved burst streams at the full window: the ratio is the
    # C5 pathology the exported timeline makes visible.
    ideal = _BURST_FLITS * _SERIALIZE_NS / _WINDOW
    return {"quiet_stall_ns": round(stalled["quiet"], 1),
            "quiet_burst_ns": stalled["burst_ns"],
            "hot_stall_ns": round(stalled["hot"], 1),
            "burst_vs_ideal": round(stalled["burst_ns"] / ideal, 2),
            "final_grants": {name: domain.granted(name)
                             for name in domain.flow_names()}}


# --------------------------------------------------------------------------
# interleave: 64B reads vs 16KB posted writes through a FIFO egress (C3)
# --------------------------------------------------------------------------

@experiment("interleave",
            "Timeline: 64B reads vs 16KB posted writes at a FIFO egress "
            "(C3)",
            params=dict(_OBSERVER_PARAMS))
def run_interleave(ctx) -> Dict[str, Any]:
    env = ctx.env("interleave", policy=_DOCUMENT_POLICY)
    # The committed interleave shape: reader + writer upstream of one
    # FIFO switch, the device behind a narrow x4 link.  Compiling it
    # is byte-identical to the historical hand-wired builder (pinned).
    topo = compile_topology(load_shape("interleave"), env).topology

    def handler(request):
        yield env.timeout(params.FAM_ACCESS_NS)
        if request.kind is PacketKind.IO_WR:
            return None   # posted
        return request.make_response()

    topo.port_of("dev").serve(handler, concurrency=8)
    dst = topo.endpoints["dev"].global_id
    read_ns = []

    def reader():
        port = topo.port_of("reader")
        for _ in range(24):
            packet = Packet(kind=PacketKind.MEM_RD,
                            channel=Channel.CXL_MEM,
                            src=port.port_id, dst=dst, nbytes=64)
            with span(env, "interleave.read64", track="app.reader"):
                start = env.now
                yield from port.request(packet)
                read_ns.append(env.now - start)
            yield env.timeout(300.0)

    def writer():
        port = topo.port_of("writer")
        for _ in range(48):
            packet = Packet(kind=PacketKind.IO_WR,
                            channel=Channel.CXL_IO,
                            src=port.port_id, dst=dst, nbytes=16 * 1024)
            with span(env, "interleave.write16k", track="app.writer"):
                yield from port.post(packet)

    procs = [env.process(reader()), env.process(writer())]

    def wait():
        yield env.all_of(procs)

    run_proc(env, wait())
    return {"reads": len(read_ns),
            "read64_mean_ns": round(sum(read_ns) / len(read_ns), 1),
            "read64_max_ns": round(max(read_ns), 1)}
