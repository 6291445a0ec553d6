"""CFC pathology experiments: C5/C6/C7 and the DP#4 arbiter ablation."""

from __future__ import annotations

from typing import Any, Dict

from ... import params
from ...fabric import Channel, Packet, PacketKind
from ...infra import ClusterSpec, FamSpec, build_cluster
from ...pcie import (
    CreditDomain,
    FabricManager,
    PortRole,
    RampUpPolicy,
    ReservationPolicy,
    StaticEqualPolicy,
    Topology,
)
from ...sim import StatSeries, run_proc
from ..format import print_table
from ..registry import Param, experiment

# --------------------------------------------------------------------------
# C5: exponential ramp-up credit allocation starves bursts
# --------------------------------------------------------------------------


def burst_completion(ctx, policy_name: str, budget: int = 64,
                     burst: int = 48, service_ns: float = 10.0,
                     warmup_ns: float = 5_000.0) -> float:
    env = ctx.env(policy_name)
    if policy_name == "ramp-up":
        policy = RampUpPolicy()
    elif policy_name == "static":
        policy = StaticEqualPolicy()
    else:
        policy = ReservationPolicy()
    domain = CreditDomain(env, budget=budget, policy=policy,
                          rebalance_ns=500.0)
    domain.register("hot")
    domain.register("bursty")
    if policy_name == "reservation":
        policy.reserve("bursty", budget // 2)
        domain.rebalance_now()
    domain.start()

    def serve_one(flow):
        yield env.timeout(service_ns)
        domain.release(flow)

    def hot_flow():
        # A pipelined producer: keeps every granted credit occupied.
        while True:
            yield domain.acquire("hot")
            env.process(serve_one("hot"))

    def bursty_flow():
        yield env.timeout(warmup_ns)    # long idle: ramp-up decays it
        start = env.now
        services = []
        for _ in range(burst):
            yield domain.acquire("bursty")
            services.append(env.process(serve_one("bursty")))
        yield env.all_of(services)
        return env.now - start

    env.process(hot_flow(), name="hot")
    return run_proc(env, bursty_flow(), horizon=10_000_000)


def render_cfc_allocation(summary: Dict[str, Any],
                          _params: Dict[str, Any]) -> None:
    ideal = summary["ideal_ns"]
    rows = [[name, value, value / ideal]
            for name, value in summary["policies"].items()]
    rows.append(["(ideal half-budget)", ideal, 1.0])
    print_table("C5: burst completion under credit-allocation policies",
                ["policy", "burst ns", "vs ideal"], rows)


@experiment(
    "cfc_allocation",
    "C5: burst completion under ramp-up/static/reservation credits",
    params={"budget": Param(int, 64, "credit budget at the egress"),
            "burst": Param(int, 48, "flits in the quiet flow's burst"),
            "service_ns": Param(float, 10.0, "credit hold per flit"),
            "warmup_ns": Param(float, 5_000.0,
                               "idle time before the burst")},
    render=render_cfc_allocation,
    invariants=(
        ("c5_rampup_starves_bursty_flow",
         lambda s, _p: s["policies"]["ramp-up"]
         > 2.0 * s["policies"]["static"]),
        ("c5_reservation_beats_static_for_reserved_flow",
         lambda s, _p: s["policies"]["reservation"]
         <= s["policies"]["static"] * 1.1),
    ))
def run_cfc_allocation(ctx) -> Dict[str, Any]:
    policies = {name: burst_completion(ctx, name, ctx.budget, ctx.burst,
                                       ctx.service_ns, ctx.warmup_ns)
                for name in ("ramp-up", "static", "reservation")}
    # Ideal: the burst pipelines over a fair half of the budget.
    ideal = -(-ctx.burst // (ctx.budget // 2)) * ctx.service_ns
    return {"policies": policies, "ideal_ns": ideal}


# --------------------------------------------------------------------------
# C6: credit-agnostic scheduling causes head-of-line blocking
# --------------------------------------------------------------------------


def run_hol_case(ctx, scheduler: str, prio: int, critical_reads: int = 40,
                 flood_writes: int = 400) -> StatSeries:
    env = ctx.env(f"{scheduler}.prio{prio}")
    topo = Topology(env, scheduler=scheduler)
    topo.add_switch("sw0")
    for name in ("critical", "flood"):
        topo.add_endpoint(name)
        topo.connect_endpoint("sw0", name, role=PortRole.UPSTREAM)
    topo.add_endpoint("dev")
    topo.connect_endpoint("sw0", "dev",
                          link_params=params.LinkParams(lanes=4))
    FabricManager(topo).configure()
    dev = topo.port_of("dev")

    def handler(request):
        yield env.timeout(20.0)
        if request.kind is not PacketKind.MEM_RD:
            return None   # writes are posted in this scenario
        return request.make_response()

    dev.serve(handler, concurrency=8)
    dst = topo.endpoints["dev"].global_id
    stats = StatSeries("critical")

    def critical():
        port = topo.port_of("critical")
        for _ in range(critical_reads):
            packet = Packet(kind=PacketKind.MEM_RD,
                            channel=Channel.CXL_MEM,
                            src=port.port_id, dst=dst, nbytes=64,
                            meta={"prio": prio})
            start = env.now
            yield from port.request(packet)
            stats.add(env.now - start, time=env.now)
            yield env.timeout(150.0)

    def flood():
        port = topo.port_of("flood")
        for _ in range(flood_writes):
            # Same channel/VC as the critical flow: VC separation
            # cannot save it; only the discipline can.
            packet = Packet(kind=PacketKind.MEM_WR,
                            channel=Channel.CXL_MEM,
                            src=port.port_id, dst=dst, nbytes=1024,
                            meta={"prio": 0})
            yield from port.post(packet)

    env.process(flood())
    run_proc(env, critical())
    return stats


def render_cfc_hol(summary: Dict[str, Any],
                   _params: Dict[str, Any]) -> None:
    rows = [[case, r["mean_ns"], r["p99_ns"]]
            for case, r in summary["cases"].items()]
    print_table("C6: reserved-flow latency under a best-effort flood",
                ["discipline", "mean ns", "p99 ns"], rows)


@experiment(
    "cfc_hol",
    "C6: head-of-line blocking, FIFO vs priority egress discipline",
    params={"critical_reads": Param(int, 40, "reserved-flow reads"),
            "flood_writes": Param(int, 400, "best-effort flood writes")},
    render=render_cfc_hol,
    invariants=(
        ("c6_priority_discipline_rescues_reserved_flow",
         lambda s, _p: s["cases"]["priority (arbiter)"]["mean_ns"]
         < s["cases"]["fifo (credit-agnostic)"]["mean_ns"] / 1.5),
        # The blocked flow's tail is dominated by queueing behind the
        # flood; priority scheduling flattens it.
        ("c6_hol_blocking_visible_in_tail",
         lambda s, _p: s["cases"]["fifo (credit-agnostic)"]["p99_ns"]
         > 1.5 * s["cases"]["priority (arbiter)"]["p99_ns"]),
    ))
def run_cfc_hol(ctx) -> Dict[str, Any]:
    cases = {}
    for case, scheduler, prio in (
            ("fifo (credit-agnostic)", "fifo", 0),
            ("priority (arbiter)", "priority", 10)):
        stats = run_hol_case(ctx, scheduler, prio, ctx.critical_reads,
                             ctx.flood_writes)
        cases[case] = {"mean_ns": stats.mean, "p99_ns": stats.p99}
    return {"cases": cases}


# --------------------------------------------------------------------------
# C7: credit starvation back-propagates across switches
# --------------------------------------------------------------------------


def run_starvation_case(ctx, scheduler: str, with_flood: bool,
                        victim_reads: int = 40,
                        flood_writes: int = 600) -> StatSeries:
    env = ctx.env(f"{scheduler}.flood" if with_flood else f"{scheduler}.quiet")
    topo = Topology(env, scheduler=scheduler)
    topo.add_switch("root")
    topo.add_switch("leaf", scheduler_capacity=32)
    topo.connect_switches("root", "leaf")
    for name in ("victim_host", "flood_host"):
        topo.add_endpoint(name)
        topo.connect_endpoint("root", name, role=PortRole.UPSTREAM)
    topo.add_endpoint("hot_dev")
    # The hot device is slow and narrow: the congestion source.
    topo.connect_endpoint("leaf", "hot_dev",
                          link_params=params.LinkParams(lanes=4,
                                                        credits=8))
    topo.add_endpoint("victim_dev")
    topo.connect_endpoint("leaf", "victim_dev")
    FabricManager(topo).configure()

    def slow_handler(request):
        yield env.timeout(500.0)   # a very slow endpoint
        if request.kind is not PacketKind.MEM_RD:
            return None
        return request.make_response()

    def fast_handler(request):
        yield env.timeout(10.0)
        if request.kind is not PacketKind.MEM_RD:
            return None
        return request.make_response()

    topo.port_of("hot_dev").serve(slow_handler, concurrency=1)
    topo.port_of("victim_dev").serve(fast_handler, concurrency=8)
    stats = StatSeries("victim")

    def victim():
        port = topo.port_of("victim_host")
        dst = topo.endpoints["victim_dev"].global_id
        for _ in range(victim_reads):
            packet = Packet(kind=PacketKind.MEM_RD,
                            channel=Channel.CXL_MEM,
                            src=port.port_id, dst=dst, nbytes=64)
            start = env.now
            yield from port.request(packet)
            stats.add(env.now - start, time=env.now)
            yield env.timeout(200.0)

    def flood():
        port = topo.port_of("flood_host")
        dst = topo.endpoints["hot_dev"].global_id
        for _ in range(flood_writes):
            packet = Packet(kind=PacketKind.MEM_WR,
                            channel=Channel.CXL_IO,
                            src=port.port_id, dst=dst, nbytes=1024)
            yield from port.post(packet)

    if with_flood:
        env.process(flood())
    run_proc(env, victim())
    return stats


def starvation_means(summary: Dict[str, Any]):
    """Victim mean ns: (fifo quiet, fifo congested, fair congested)."""
    cases = summary["cases"]
    return (cases["fifo quiet"]["mean_ns"],
            cases["fifo congested"]["mean_ns"],
            cases["fair congested"]["mean_ns"])


def spread_to_victim(summary: Dict[str, Any], factor: float) -> bool:
    """FIFO: the victim shares no endpoint with the flood, yet its
    congested mean exceeds ``factor`` x its quiet mean."""
    quiet, fifo, _fair = starvation_means(summary)
    return fifo > factor * quiet


def fair_contains_spread(summary: Dict[str, Any], factor: float) -> bool:
    """Fair queueing: under half the FIFO congested mean and within
    ``factor`` x the quiet mean."""
    quiet, fifo, fair = starvation_means(summary)
    return fair < fifo / 2 and fair < factor * quiet


def render_cfc_starvation(summary: Dict[str, Any],
                          _params: Dict[str, Any]) -> None:
    cases = summary["cases"]
    quiet = cases["fifo quiet"]["mean_ns"]
    rows = [[case, r["mean_ns"], r["p99_ns"], r["mean_ns"] / quiet]
            for case, r in cases.items()]
    print_table("C7: victim-flow latency when a sibling device is "
                "congested (2-level tree)",
                ["case", "mean ns", "p99 ns", "vs quiet"], rows)


@experiment(
    "cfc_starvation",
    "C7: congestion backpropagation to a victim flow, FIFO vs fair",
    params={"victim_reads": Param(int, 40, "victim-flow reads"),
            "flood_writes": Param(int, 600, "flood writes at hot dev")},
    render=render_cfc_starvation,
    invariants=(
        ("c7_congestion_spreads_to_victim_under_fifo",
         lambda s, _p: spread_to_victim(s, 3.0)),
        ("c7_per_class_queueing_contains_the_spread",
         lambda s, _p: fair_contains_spread(s, 3.0)),
    ))
def run_cfc_starvation(ctx) -> Dict[str, Any]:
    cases = {}
    for case, scheduler, with_flood in (
            ("fifo quiet", "fifo", False),
            ("fifo congested", "fifo", True),
            ("fair congested", "fair", True)):
        stats = run_starvation_case(ctx, scheduler, with_flood,
                                    ctx.victim_reads, ctx.flood_writes)
        cases[case] = {"mean_ns": stats.mean, "p99_ns": stats.p99}
    return {"cases": cases}


# --------------------------------------------------------------------------
# A4: DP#4 ablation — the central arbiter, end to end
# --------------------------------------------------------------------------


def _egress_index(cluster, peer: str) -> int:
    switch = cluster.topology.switches["sw0"]
    for index, port in switch.ports.items():
        if port.peer == peer:
            return index
    raise KeyError(peer)


def run_arbiter_case(ctx, mode: str, critical_bursts: int = 10,
                     burst_size: int = 8, flood_writes: int = 1200,
                     flood_workers: int = 48,
                     egress_credit_budget: int = 48) -> StatSeries:
    from ...core import UniFabric
    env = ctx.env(mode)
    scheduler = "priority" if mode == "arbiter" else "fifo"
    # Fast media + a narrow x4 chassis link: the contended resource is
    # the switch egress toward the FAM (the paper's C5/C6 are fabric
    # effects), not the device internals.
    cluster = build_cluster(env, ClusterSpec(
        hosts=2, scheduler=scheduler, control_lane=True,
        fams=[FamSpec(name="fam0", read_extra_ns=0.0,
                      write_extra_ns=0.0, modules=8,
                      link_params=params.LinkParams(lanes=4))]))
    switch = cluster.topology.switches["sw0"]
    egress = _egress_index(cluster, "fam0")
    domain = CreditDomain(env, budget=egress_credit_budget,
                          policy=RampUpPolicy(), rebalance_ns=500.0)
    switch.add_credit_domain(egress, domain)

    uni = UniFabric(env, cluster, with_arbiter=mode == "arbiter")
    if mode == "arbiter":
        uni.arbiter.manage("sw0:fam0", domain)
    else:
        domain.start()

    host0 = cluster.host(0)
    host1 = cluster.hosts["host1"]
    dst = cluster.endpoint_id("fam0")
    stats = StatSeries(mode)
    # Flows are named after switch ingress ports ("in<N>").
    critical_flow = f"in{_egress_index(cluster, 'host0')}"

    def one_read(prio):
        packet = Packet(kind=PacketKind.MEM_RD,
                        channel=Channel.CXL_MEM,
                        src=host0.port.port_id, dst=dst, nbytes=64,
                        meta={"prio": prio})
        yield from host0.port.request(packet)

    def critical():
        prio = 0
        if mode == "arbiter":
            client = uni.arbiter_client("host0")
            grant = yield from client.reserve(
                "sw0:fam0", critical_flow, egress_credit_budget // 2)
            prio = grant["prio"]
        else:
            yield env.timeout(0)
        yield env.timeout(5_000.0)   # let the flood ramp (C5 decay)
        for _ in range(critical_bursts):
            start = env.now
            burst = [env.process(one_read(prio))
                     for _ in range(burst_size)]
            yield env.all_of(burst)
            stats.add(env.now - start, time=env.now)
            yield env.timeout(2_000.0)

    # The flood writes to modules 1..7; the critical reads hit module
    # 0, so the *shared* resource is the fabric egress, not one DRAM
    # bank inside the chassis.
    module_capacity = cluster.fam("fam0").modules[0].capacity_bytes

    def flood_worker(worker, count):
        addr = (1 + worker % 7) * module_capacity + worker * 8192
        for _ in range(count):
            packet = Packet(kind=PacketKind.MEM_WR,
                            channel=Channel.CXL_MEM,
                            src=host1.port.port_id, dst=dst, addr=addr,
                            nbytes=4096, meta={"prio": 0})
            yield from host1.port.request(packet)

    for worker in range(flood_workers):  # saturate the narrow link
        env.process(flood_worker(worker,
                                 flood_writes // flood_workers))
    run_proc(env, critical(), horizon=50_000_000_000)
    return stats


def render_dp4_arbiter(summary: Dict[str, Any],
                       run_params: Dict[str, Any]) -> None:
    rows = [[mode, r["mean_ns"], r["p99_ns"]]
            for mode, r in summary["modes"].items()]
    print_table(f"A4 (DP#4): {run_params['burst_size']}-read burst "
                "completion vs a 4KB-write flood at one egress",
                ["mode", "mean burst ns", "p99 ns"], rows)


@experiment(
    "dp4_arbiter",
    "A4: central-arbiter reservation vs vanilla CFC under a flood",
    params={"critical_bursts": Param(int, 10, "measured read bursts"),
            "burst_size": Param(int, 8, "reads per burst"),
            "flood_writes": Param(int, 1200, "total flood writes"),
            "flood_workers": Param(int, 48, "concurrent flood workers"),
            "egress_credit_budget": Param(int, 48,
                                          "credits at the egress")},
    render=render_dp4_arbiter,
    invariants=(
        ("a4_arbiter_protects_reserved_flow",
         lambda s, _p: s["modes"]["arbiter"]["mean_ns"]
         < s["modes"]["vanilla-cfc"]["mean_ns"]),
        ("a4_arbiter_tail_is_tighter",
         lambda s, _p: s["modes"]["arbiter"]["p99_ns"]
         <= s["modes"]["vanilla-cfc"]["p99_ns"]),
    ))
def run_dp4_arbiter(ctx) -> Dict[str, Any]:
    modes = {}
    for label, mode in (("vanilla-cfc", "vanilla"),
                        ("arbiter", "arbiter")):
        stats = run_arbiter_case(ctx, mode, ctx.critical_bursts,
                                 ctx.burst_size, ctx.flood_writes,
                                 ctx.flood_workers,
                                 ctx.egress_credit_budget)
        modes[label] = {"mean_ns": stats.mean, "p99_ns": stats.p99}
    return {"modes": modes}
