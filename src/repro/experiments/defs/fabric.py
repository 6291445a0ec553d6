"""Fabric-level experiments: C2/C3/C4, S1, E2, E3.

Invariant predicates over swept rows read only the rows the summary
has: a parameter point without, say, a 2-hop path does not break the
switch-crossing claim.
"""

from __future__ import annotations

from typing import Any, Dict

from ... import params
from ...fabric import Channel, LinkLayer, Packet, PacketKind, fragment
from ...infra import ClusterSpec, FamSpec, build_cluster
from ...pcie import FabricManager, PortRole, Topology
from ...sim import StatSeries, run_proc
from ..format import print_table
from ..registry import Param, experiment

# --------------------------------------------------------------------------
# C4: unloaded 64B flit RTT and switch port latency
# --------------------------------------------------------------------------


def build_rtt_path(ctx, hops: int = 1):
    """host -> (hops switches) -> zero-service echo device."""
    env = ctx.env(f"hops{hops}")
    topo = Topology(env)
    names = [f"sw{i}" for i in range(hops)]
    for name in names:
        topo.add_switch(name)
    for a, b in zip(names, names[1:]):
        topo.connect_switches(a, b)
    topo.add_endpoint("host")
    topo.connect_endpoint(names[0], "host", role=PortRole.UPSTREAM)
    topo.add_endpoint("dev")
    topo.connect_endpoint(names[-1], "dev")
    FabricManager(topo).configure()
    dev = topo.port_of("dev")

    def echo(request):
        yield env.timeout(0)
        return request.make_response()

    dev.serve(echo)
    return env, topo


def measure_rtt(ctx, hops: int = 1, pings: int = 10) -> float:
    env, topo = build_rtt_path(ctx, hops)
    host = topo.port_of("host")
    rtts = []

    def go():
        for _ in range(pings):
            packet = Packet(kind=PacketKind.MEM_RD,
                            channel=Channel.CXL_MEM,
                            src=host.port_id,
                            dst=topo.endpoints["dev"].global_id,
                            nbytes=0)
            start = env.now
            yield from host.request(packet)
            rtts.append(env.now - start)
            yield env.timeout(1_000)   # unloaded: strictly one at a time

    run_proc(env, go())
    return sum(rtts) / len(rtts)


def unloaded_rtt_near_target(summary: Dict[str, Any],
                             _params: Dict[str, Any]) -> bool:
    """The 1-hop RTT sits within 25% of the paper's ~200 ns."""
    target = params.UNLOADED_FLIT_RTT_TARGET_NS
    return all(abs(r["rtt_ns"] - target) <= 0.25 * target
               for r in summary["rows"] if r["hops"] == 1)


def switch_crossing_below(summary: Dict[str, Any], bound_ns: float) \
        -> bool:
    """Per-switch crossing, from the 1- and 2-hop RTTs, under a bound."""
    rtt = {r["hops"]: r["rtt_ns"] for r in summary["rows"]}
    if 1 not in rtt or 2 not in rtt:
        return True
    # The extra hop adds two crossings (one each way) + two links.
    per_port = (rtt[2] - rtt[1]) / 2 - 2 * params.LINK_PROPAGATION_NS
    return per_port < bound_ns


def render_flit_rtt(summary: Dict[str, Any],
                    _params: Dict[str, Any]) -> None:
    rows = []
    for r in summary["rows"]:
        rows.append([f"{r['hops']} switch(es)", r["rtt_ns"],
                     params.UNLOADED_FLIT_RTT_TARGET_NS
                     if r["hops"] == 1 else "-"])
    print_table("C4: unloaded 64B flit RTT",
                ["path", "sim RTT ns", "paper target"], rows)


@experiment(
    "flit_rtt",
    "C4: unloaded 64B flit RTT across 1..N switch hops",
    params={"max_hops": Param(int, 3, "longest switch path measured"),
            "pings": Param(int, 10, "pings averaged per path")},
    render=render_flit_rtt,
    invariants=(
        ("c4_unloaded_rtt_near_200ns", unloaded_rtt_near_target),
        ("c4_switch_port_latency_below_100ns",
         lambda s, _p: switch_crossing_below(s, 100.0)),
    ))
def run_flit_rtt(ctx) -> Dict[str, Any]:
    rows = [{"hops": hops, "rtt_ns": measure_rtt(ctx, hops, ctx.pings)}
            for hops in range(1, ctx.max_hops + 1)]
    return {"rows": rows,
            "paper_target_ns": params.UNLOADED_FLIT_RTT_TARGET_NS}


# --------------------------------------------------------------------------
# C2: concurrent 64B PCIe writes add ~600 ns of latency
# --------------------------------------------------------------------------


def build_interference(ctx, hosts: int, device_service_ns: float):
    env = ctx.env(f"hosts{hosts}")
    # The remote chassis hangs off a narrow x4 downstream link (a
    # single FPGA card), while hosts bring x16 uplinks.
    topo = Topology(env)
    topo.add_switch("sw0")
    for h in range(hosts):
        topo.add_endpoint(f"host{h}")
        topo.connect_endpoint("sw0", f"host{h}", role=PortRole.UPSTREAM)
    topo.add_endpoint("fpga")
    topo.connect_endpoint("sw0", "fpga",
                          link_params=params.LinkParams(lanes=4))
    FabricManager(topo).configure()
    fpga = topo.port_of("fpga")

    def handler(request):
        yield env.timeout(device_service_ns)
        return request.make_response()

    fpga.serve(handler, concurrency=2)
    return env, topo


def one_way_latency(ctx, hosts: int, writes_per_host: int = 150,
                    device_service_ns: float = 250.0) -> float:
    """Mean request one-way latency (send -> device starts serving)."""
    env, topo = build_interference(ctx, hosts, device_service_ns)
    stats = StatSeries("oneway")
    dst = topo.endpoints["fpga"].global_id

    def client(h):
        port = topo.port_of(f"host{h}")
        for i in range(writes_per_host):
            packet = Packet(kind=PacketKind.MEM_WR,
                            channel=Channel.CXL_MEM,
                            src=port.port_id, dst=dst, nbytes=64)
            start = env.now
            yield from port.request(packet)
            rtt = env.now - start
            # One-way share: subtract the device service and halve.
            stats.add((rtt - device_service_ns) / 2, time=env.now)

    procs = [env.process(client(h)) for h in range(hosts)]

    def wait():
        yield env.all_of(procs)

    run_proc(env, wait())
    return stats.mean


def interference_adds_hundreds_of_ns(summary: Dict[str, Any],
                                     _params: Dict[str, Any]) -> bool:
    """Nothing added alone, growth with fan-in (2 hosts still fit the
    pipe), reaching the paper's ~600 ns scale at 16 hosts."""
    added = {r["hosts"]: r["added_ns"] for r in summary["rows"]}
    return ((1 not in added or added[1] == 0.0)
            and (4 not in added or 8 not in added
                 or added[8] > added[4] > 0)
            and (16 not in added or 300.0 <= added[16] <= 3_000.0))


def contention_monotonic(summary: Dict[str, Any],
                         _params: Dict[str, Any]) -> bool:
    """Added latency never shrinks as hosts are added."""
    added = [r["added_ns"]
             for r in sorted(summary["rows"], key=lambda r: r["hosts"])]
    return all(a <= b for a, b in zip(added, added[1:]))


def render_interference(summary: Dict[str, Any],
                        _params: Dict[str, Any]) -> None:
    rows = [[r["hosts"], r["oneway_ns"], r["added_ns"],
             params.PCIE_INTERFERENCE_TARGET_NS
             if r["hosts"] == 16 else "-"]
            for r in summary["rows"]]
    print_table("C2: concurrent 64B writes to one remote chassis",
                ["hosts", "one-way ns", "added ns", "paper scale"], rows)


@experiment(
    "pcie_interference",
    "C2: added one-way latency as hosts pile 64B writes on one chassis",
    params={"hosts_list": Param(list, [1, 2, 4, 8, 16],
                                "fan-in points measured"),
            "writes_per_host": Param(int, 150, "posted writes per host"),
            "device_service_ns": Param(float, 250.0,
                                       "FPGA-side service time")},
    render=render_interference,
    invariants=(
        ("c2_interference_adds_hundreds_of_ns",
         interference_adds_hundreds_of_ns),
        # One-way unloaded must sit near half the ~200 ns RTT.
        ("c2_unloaded_baseline_sane",
         lambda s, _p: all(50.0 <= r["oneway_ns"] <= 250.0
                           for r in s["rows"] if r["hosts"] == 1)),
        ("c2_contention_monotonic", contention_monotonic),
    ))
def run_interference(ctx) -> Dict[str, Any]:
    unloaded = one_way_latency(ctx, 1, ctx.writes_per_host,
                               ctx.device_service_ns)
    rows = []
    for hosts in ctx.hosts_list:
        latency = one_way_latency(ctx, hosts, ctx.writes_per_host,
                                  ctx.device_service_ns)
        rows.append({"hosts": hosts, "oneway_ns": latency,
                     "added_ns": latency - unloaded})
    return {"rows": rows}


# --------------------------------------------------------------------------
# C3: 64B latency degrades when interleaved with 16KB writes
# --------------------------------------------------------------------------


def run_interleave_case(ctx, scheduler: str, with_bulk: bool,
                        reads: int = 40,
                        bulk_writes: int = 80) -> StatSeries:
    env = ctx.env(f"{scheduler}.bulk" if with_bulk else f"{scheduler}.alone")
    topo = Topology(env, scheduler=scheduler)
    topo.add_switch("sw0")
    for name in ("reader", "writer"):
        topo.add_endpoint(name)
        topo.connect_endpoint("sw0", name, role=PortRole.UPSTREAM)
    topo.add_endpoint("dev")
    topo.connect_endpoint("sw0", "dev",
                          link_params=params.LinkParams(lanes=4))
    FabricManager(topo).configure()
    dev = topo.port_of("dev")

    def handler(request):
        yield env.timeout(params.FAM_ACCESS_NS)
        if request.kind is PacketKind.IO_WR:
            return None   # posted
        return request.make_response()

    dev.serve(handler, concurrency=8)
    dst = topo.endpoints["dev"].global_id
    stats = StatSeries("64B")

    def reader():
        port = topo.port_of("reader")
        for _ in range(reads):
            packet = Packet(kind=PacketKind.MEM_RD,
                            channel=Channel.CXL_MEM,
                            src=port.port_id, dst=dst, nbytes=64)
            start = env.now
            yield from port.request(packet)
            stats.add(env.now - start, time=env.now)
            yield env.timeout(300.0)

    def writer():
        port = topo.port_of("writer")
        for _ in range(bulk_writes):
            packet = Packet(kind=PacketKind.IO_WR,
                            channel=Channel.CXL_IO,
                            src=port.port_id, dst=dst, nbytes=16 * 1024)
            yield from port.post(packet)

    procs = [env.process(reader())]
    if with_bulk:
        procs.append(env.process(writer()))

    def wait():
        yield env.all_of(procs)

    run_proc(env, wait())
    return stats


PCIE_INTERLEAVE_CASES = (("alone", "fifo", False),
                         ("fifo+16KB", "fifo", True),
                         ("fair+16KB", "fair", True))


def render_pcie_interleave(summary: Dict[str, Any],
                           _params: Dict[str, Any]) -> None:
    cases = summary["cases"]
    alone = cases["alone"]["mean_ns"]
    rows = [[case, r["mean_ns"], r["p99_ns"], r["mean_ns"] / alone]
            for case, r in cases.items()]
    print_table("C3: 64B read latency vs 16KB write interleaving",
                ["case", "mean ns", "p99 ns", "vs alone"], rows)


@experiment(
    "pcie_interleave",
    "C3: 64B read latency under 16KB write interleaving, FIFO vs fair",
    params={"reads": Param(int, 40, "latency-sensitive 64B reads"),
            "bulk_writes": Param(int, 80, "posted 16KB writes")},
    render=render_pcie_interleave,
    invariants=(
        # "Degraded drastically": at least 2x the unloaded latency.
        ("c3_fifo_interleaving_degrades_small_reads",
         lambda s, _p: s["cases"]["fifo+16KB"]["mean_ns"]
         > 2.0 * s["cases"]["alone"]["mean_ns"]),
        # Fair queueing keeps the 64B mean within ~4x of unloaded.
        ("c3_fair_queueing_bounds_the_damage",
         lambda s, _p: s["cases"]["fair+16KB"]["mean_ns"]
         < min(s["cases"]["fifo+16KB"]["mean_ns"],
               4.0 * s["cases"]["alone"]["mean_ns"])),
    ))
def run_pcie_interleave(ctx) -> Dict[str, Any]:
    cases = {}
    for case, scheduler, with_bulk in PCIE_INTERLEAVE_CASES:
        stats = run_interleave_case(ctx, scheduler, with_bulk,
                                    ctx.reads, ctx.bulk_writes)
        cases[case] = {"mean_ns": stats.mean, "p99_ns": stats.p99}
    return {"cases": cases}


# --------------------------------------------------------------------------
# S1: synchronous loads vs async DMA
# --------------------------------------------------------------------------


def fabric_latency(ctx, nbytes: int) -> float:
    env = ctx.env(f"fabric.{nbytes}B")
    cluster = build_cluster(env, ClusterSpec(hosts=1))
    host = cluster.host(0)
    base = host.remote_base("fam0")

    def go():
        start = env.now
        yield from host.mem.access(base + 0x100000, False, nbytes)
        return env.now - start

    return run_proc(env, go())


def dma_latency(ctx, nbytes: int) -> float:
    from ...baselines import CommFabricChannel
    env = ctx.env(f"dma.{nbytes}B")
    nic = CommFabricChannel(env)

    def go():
        return (yield from nic.remote_read(nbytes))

    return run_proc(env, go())


def gap_closes_with_size(summary: Dict[str, Any],
                         _params: Dict[str, Any]) -> bool:
    """Monotone trend: the comm fabric catches up as size grows."""
    ratios = [r["ratio"]
              for r in sorted(summary["rows"], key=lambda r: r["size"])]
    return len(ratios) < 2 or ratios[-1] < ratios[0]


def render_sync_vs_async(summary: Dict[str, Any],
                         _params: Dict[str, Any]) -> None:
    rows = [[r["size"], r["fabric_ns"], r["dma_ns"], r["ratio"]]
            for r in summary["rows"]]
    print_table("S1: remote read latency, fabric load/store vs DMA",
                ["bytes", "fabric ns", "comm-fabric ns", "ratio"], rows)


@experiment(
    "sync_vs_async",
    "S1: remote read latency crossover, fabric load/store vs DMA",
    params={"sizes": Param(list, [64, 256, 1024, 4096, 16 * 1024,
                                  64 * 1024],
                           "transfer sizes swept (bytes)")},
    render=render_sync_vs_async,
    invariants=(
        # The fixed taxes dominate at 64B.
        ("s1_fabric_wins_small_transfers",
         lambda s, _p: all(r["ratio"] > 1.3
                           for r in s["rows"] if r["size"] == 64)),
        ("s1_gap_closes_with_size", gap_closes_with_size),
    ))
def run_sync_vs_async(ctx) -> Dict[str, Any]:
    rows = []
    for size in ctx.sizes:
        fabric = fabric_latency(ctx, size)
        dma = dma_latency(ctx, size)
        rows.append({"size": size, "fabric_ns": fabric, "dma_ns": dma,
                     "ratio": dma / fabric})
    return {"rows": rows}


# --------------------------------------------------------------------------
# E2: link-layer credit overcommitment
# --------------------------------------------------------------------------


def overcommit_throughput(ctx, overcommit: float, flits: int = 400,
                          pause_every: int = 16,
                          pause_ns: float = 120.0) -> Dict[str, float]:
    env = ctx.env(f"overcommit{overcommit}")
    link = LinkLayer(env, params.LinkParams(credits=8),
                     overcommit=overcommit, name="l0")
    consumed = []

    def producer():
        for i in range(flits):
            packet = Packet(kind=PacketKind.MEM_WR,
                            channel=Channel.CXL_MEM, src=0, dst=1,
                            nbytes=0)
            yield link.send(fragment(packet)[0])

    def consumer():
        count = 0
        while count < flits:
            flit = yield link.rx.get()
            link.consume(flit)
            count += 1
            consumed.append(env.now)
            if count % pause_every == 0:
                yield env.timeout(pause_ns)

    env.process(producer())
    proc = env.process(consumer())

    def wait():
        yield proc

    run_proc(env, wait())
    elapsed = consumed[-1] - consumed[0]
    return {"flits_per_us": (flits - 1) / elapsed * 1e3,
            "max_rx_occupancy": link.max_rx_occupancy}


def overcommit_improves_throughput(summary: Dict[str, Any],
                                   _params: Dict[str, Any]) -> bool:
    factors = summary["factors"]
    if "1.0x" not in factors or "2.0x" not in factors:
        return True
    return factors["2.0x"]["flits_per_us"] \
        > 1.2 * factors["1.0x"]["flits_per_us"]


def overcommit_costs_occupancy(summary: Dict[str, Any],
                               _params: Dict[str, Any]) -> bool:
    """3x overcommit fills more of the receive buffer, but stays
    bounded by the overcommitted grant."""
    factors = summary["factors"]
    if "1.0x" not in factors or "3.0x" not in factors:
        return True
    peak = factors["3.0x"]["max_rx_occupancy"]
    return factors["1.0x"]["max_rx_occupancy"] < peak <= 3 * 8 + 1


def render_overcommit(summary: Dict[str, Any],
                      run_params: Dict[str, Any]) -> None:
    rows = [[factor, r["flits_per_us"], r["max_rx_occupancy"]]
            for factor, r in summary["factors"].items()]
    print_table(
        "E2 (extension): credit overcommitment vs a bursty receiver "
        f"(8 credits, pause {run_params['pause_ns']:.0f}ns per "
        f"{run_params['pause_every']} flits)",
        ["overcommit", "flits/us", "peak rx occupancy"], rows)


@experiment(
    "overcommit",
    "E2: link credit overcommitment vs a bursty receiver",
    params={"factors": Param(list, [1.0, 1.5, 2.0, 3.0],
                             "overcommit factors swept"),
            "flits": Param(int, 400, "flits streamed per factor"),
            "pause_every": Param(int, 16, "receiver pause period"),
            "pause_ns": Param(float, 120.0, "receiver pause length")},
    render=render_overcommit,
    invariants=(
        ("e2_overcommit_improves_bursty_throughput",
         overcommit_improves_throughput),
        ("e2_overcommit_costs_buffer_occupancy", overcommit_costs_occupancy),
    ))
def run_overcommit(ctx) -> Dict[str, Any]:
    return {"factors": {f"{oc:.1f}x": overcommit_throughput(
        ctx, oc, ctx.flits, ctx.pause_every, ctx.pause_ns)
        for oc in ctx.factors}}


# --------------------------------------------------------------------------
# E3: HDM interleaving across FAM chassis
# --------------------------------------------------------------------------


def stream_striped(ctx, ways: int, scan_bytes: int = 256 * 1024,
                   chunk: int = 16 * 1024) -> float:
    """Scan ``scan_bytes`` through a ``ways``-way stripe; GB/s."""
    env = ctx.env(f"ways{ways}")
    cluster = build_cluster(env, ClusterSpec(
        hosts=1, map_all_fams=False,
        fams=[FamSpec(name=f"fam{i}", capacity_bytes=1 << 26)
              for i in range(4)]))
    host = cluster.host(0)
    targets = [(f"fam{i}", cluster.endpoint_id(f"fam{i}"))
               for i in range(ways)]
    region = host.map_interleaved("stripe", targets, size=32 << 20)

    def worker(slice_index, slices):
        offset = slice_index * chunk
        while offset < scan_bytes:
            yield from host.mem.access(region.start + offset, False,
                                       chunk)
            offset += slices * chunk

    def go():
        start = env.now
        slices = 8   # a pipelined stream: 8 chunks in flight
        workers = [env.process(worker(i, slices)) for i in range(slices)]
        yield env.all_of(workers)
        return env.now - start

    elapsed_ns = run_proc(env, go(), horizon=500_000_000_000)
    return scan_bytes / elapsed_ns   # bytes/ns == GB/s


def stripe_scaling_saturates(summary: Dict[str, Any],
                             _params: Dict[str, Any]) -> bool:
    """4-way is never worse than 2-way, but the marginal gain shrinks:
    the shared host link/port becomes the bottleneck."""
    ways = summary["ways"]
    if not {"1", "2", "4"} <= set(ways):
        return True
    return (ways["4"] >= ways["2"] * 0.95
            and ways["4"] / ways["2"] < ways["2"] / ways["1"])


def render_hdm_interleave(summary: Dict[str, Any],
                          run_params: Dict[str, Any]) -> None:
    results = summary["ways"]
    base = results[str(run_params["ways_list"][0])]
    rows = [[f"{ways}-way", gbps, gbps / base]
            for ways, gbps in ((int(k), v) for k, v in results.items())]
    print_table(
        f"E3 (extension): {run_params['scan_bytes'] >> 10}KiB stream "
        "over HDM interleaving",
        ["stripe", "GB/s", "vs 1-way"], rows)


@experiment(
    "hdm_interleave",
    "E3: streaming bandwidth over 1/2/4-way HDM stripes across FAMs",
    params={"ways_list": Param(list, [1, 2, 4], "stripe widths swept"),
            "scan_bytes": Param(int, 256 * 1024, "bytes streamed"),
            "chunk": Param(int, 16 * 1024, "access granularity")},
    render=render_hdm_interleave,
    invariants=(
        ("e3_two_way_beats_single_chassis",
         lambda s, _p: not {"1", "2"} <= set(s["ways"])
         or s["ways"]["2"] > 1.2 * s["ways"]["1"]),
        ("e3_scaling_saturates_at_host_port", stripe_scaling_saturates),
    ))
def run_hdm_interleave(ctx) -> Dict[str, Any]:
    return {"ways": {str(ways): stream_striped(ctx, ways, ctx.scan_bytes,
                                               ctx.chunk)
                     for ways in ctx.ways_list}}
