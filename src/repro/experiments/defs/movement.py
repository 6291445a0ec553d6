"""Data-placement ablations: A1/A2/A3, graph far memory, S3 launch."""

from __future__ import annotations

from typing import Any, Dict, List

from ...baselines import CommFabricChannel, StaticPlacementHeap
from ...core import (
    ETrans,
    FailureInjector,
    FunctionChassis,
    HandlerResult,
    MovementOrchestrator,
    ScalableFunction,
    SequentialPrefetcher,
    Task,
    TaskRuntime,
    UnifiedHeap,
)
from ...core.heap import HeapRuntime
from ...fabric import Channel, Packet, PacketKind
from ...infra import ClusterSpec, FaaSpec, build_cluster
from ...mem import CacheConfig
from ...pcie import FabricManager, PortRole, Topology
from ...sim import SimRng, StatSeries, run_proc
from ..format import print_table
from ..registry import Param, experiment

__all__ = [
    "run_movement_case", "run_heap_case", "make_task", "run_failure_case",
    "run_graph_mode", "comm_fabric_launch", "fabric_accelerator_launch",
    "scalable_function_launch", "HEAP_TINY_CACHES", "GRAPH_TINY_CACHES",
]

# --------------------------------------------------------------------------
# A1: DP#1 — data movement as a managed service
# --------------------------------------------------------------------------


def run_movement_case(ctx, mode: str, lines: int = 512,
                      scans: int = 4) -> float:
    env = ctx.env(mode)
    cluster = build_cluster(env, ClusterSpec(hosts=1))
    host = cluster.host(0)
    orchestrator = MovementOrchestrator(env)
    engine = orchestrator.attach_host(host)
    remote_base = host.remote_base("fam0")
    local_stage = 8 << 20   # staging buffer in local DRAM
    prefetcher = SequentialPrefetcher(env, host, depth=16) \
        if mode == "prefetch" else None

    def go():
        start = env.now
        base = remote_base
        if mode == "managed":
            # Stage the working set with one delegated transaction.
            trans = ETrans(
                src_list=[(remote_base, lines * 64)],
                dst_list=[(local_stage, lines * 64)],
                attributes={"priority": 0})
            handle = engine.submit(trans)
            yield handle.wait()
            base = local_stage
        for _ in range(scans):
            for i in range(lines):
                addr = base + i * 64
                if prefetcher is not None:
                    prefetcher.observe(addr)
                yield from host.mem.access(addr, False)
        return env.now - start

    return run_proc(env, go())


def render_dp1_movement(summary: Dict[str, Any],
                        run_params: Dict[str, Any]) -> None:
    results = summary["modes"]
    naive = results["naive-sync"]
    rows = [[mode, value / 1e3, naive / value]
            for mode, value in results.items()]
    print_table("A1 (DP#1): compute loop over a 32KB remote working "
                f"set, {run_params['scans']} scans",
                ["mode", "total us", "speedup"], rows)


@experiment(
    "dp1_movement",
    "A1: managed data movement vs naive-sync vs prefetch",
    params={"lines": Param(int, 512, "64B lines in the working set"),
            "scans": Param(int, 4, "compute-loop passes")},
    render=render_dp1_movement,
    invariants=(
        ("a1_prefetch_beats_naive_sync",
         lambda s, _p: s["modes"]["prefetch"] < s["modes"]["naive-sync"]),
        # With scans of reuse, staging via the migration agent beats
        # naive sync.
        ("a1_managed_movement_wins_on_reuse",
         lambda s, _p: s["modes"]["managed"] < s["modes"]["naive-sync"]),
    ))
def run_dp1_movement(ctx) -> Dict[str, Any]:
    return {"modes": {mode: run_movement_case(ctx, mode, ctx.lines, ctx.scans)
                      for mode in ("naive-sync", "prefetch", "managed")}}


# --------------------------------------------------------------------------
# A2: DP#2 — the node-type-conscious unified heap
# --------------------------------------------------------------------------

#: Deliberately small host caches so the hot set does not fit: the
#: experiment isolates *placement*, not the caching that difference #1
#: already provides (Table 2's L1 row covers that).
HEAP_TINY_CACHES = (
    CacheConfig(name="l1", size_bytes=4 * 1024, assoc=4,
                read_ns=5.4, write_ns=5.4),
    CacheConfig(name="l2", size_bytes=16 * 1024, assoc=8,
                read_ns=13.6, write_ns=12.5),
)


def run_heap_case(ctx, mode: str, objects: int = 64, object_bytes: int = 8192,
                  hot_objects: int = 6, accesses: int = 1500,
                  local_bin_bytes: int = 96 * 1024) -> StatSeries:
    env = ctx.env(mode)
    cluster = build_cluster(env, ClusterSpec(
        hosts=1, cache_configs=HEAP_TINY_CACHES))
    host = cluster.host(0)
    engine = MovementOrchestrator(env).attach_host(host)
    if mode == "unified":
        heap = UnifiedHeap(env, host, engine)
    else:
        placement = "first" if mode == "static-first" else "round-robin"
        heap = StaticPlacementHeap(env, host, engine, placement=placement)
    heap.add_bin("local", start=8 << 20, size=local_bin_bytes,
                 tier="local", is_remote=False)
    heap.add_bin("fam0", start=host.remote_base("fam0"), size=32 << 20,
                 tier="cpuless-numa", is_remote=True)
    if mode == "unified":
        runtime = HeapRuntime(env, heap, local_bin="local",
                              interval_ns=10_000.0,
                              promote_threshold=3.0,
                              demote_threshold=0.5)
        runtime.start()

    # Allocate cold objects first so "first" placement exiles the hot
    # ones (allocated last) to far memory — the adversarial-but-common
    # case static placement cannot fix.
    pointers = [heap.allocate(object_bytes) for _ in range(objects)]
    hot = pointers[-hot_objects:]
    cold = pointers[:-hot_objects]
    rng = SimRng(7)
    stats = StatSeries(mode)

    def go():
        for _ in range(accesses):
            if rng.bernoulli(0.9):
                target = rng.choice(hot)
            else:
                target = rng.choice(cold)
            start = env.now
            yield from target.read(rng.randint(0, 7) * 1024, nbytes=1024)
            stats.add(env.now - start, time=env.now)
            yield env.timeout(50.0)
        return stats

    return run_proc(env, go(), horizon=50_000_000_000)


def render_dp2_heap(summary: Dict[str, Any],
                    run_params: Dict[str, Any]) -> None:
    rows = [[mode, r["mean_ns"], r["p99_ns"]]
            for mode, r in summary["modes"].items()]
    print_table(
        f"A2 (DP#2): {run_params['objects']} objects, "
        f"{run_params['hot_objects']} hot (90% of "
        "accesses), local bin fits ~12",
        ["heap", "mean access ns", "p99 ns"], rows)


@experiment(
    "dp2_heap",
    "A2: unified node-type-conscious heap vs static placement",
    params={"objects": Param(int, 64, "allocated objects"),
            "object_bytes": Param(int, 8192, "bytes per object"),
            "hot_objects": Param(int, 6, "objects taking 90% of accesses"),
            "accesses": Param(int, 1500, "measured accesses"),
            "local_bin_bytes": Param(int, 96 * 1024,
                                     "local-bin capacity")},
    render=render_dp2_heap,
    invariants=(
        ("a2_unified_heap_beats_static_placement",
         lambda s, _p: s["modes"]["unified"]["mean_ns"]
         < s["modes"]["static-first"]["mean_ns"] / 1.5),
        # The last third of accesses: migration has converged.
        ("a2_unified_tail_converges_to_local",
         lambda s, _p: s["modes"]["unified"]["tail_mean_ns"] < 400.0),
    ))
def run_dp2_heap(ctx) -> Dict[str, Any]:
    modes = {}
    for mode in ("static-first", "static-rr", "unified"):
        stats = run_heap_case(ctx, mode, ctx.objects, ctx.object_bytes,
                              ctx.hot_objects, ctx.accesses,
                              ctx.local_bin_bytes)
        tail = StatSeries("tail")
        # The last third of accesses: migration has converged.
        for sample in stats.samples[-ctx.accesses // 3:]:
            tail.add(sample)
        modes[mode] = {"mean_ns": stats.mean, "p99_ns": stats.p99,
                       "tail_mean_ns": tail.mean}
    return {"modes": modes}


# --------------------------------------------------------------------------
# A3: DP#3 — idempotent tasks vs full restart
# --------------------------------------------------------------------------


def make_task(regions: int = 24, ops_per_region: int = 8) -> Task:
    task = Task("pipeline")
    for region in range(regions):
        base = region * 0x2000
        for i in range(ops_per_region - 2):
            task.read(base + i * 64)
        task.compute(200.0)
        task.write(base)            # clobbers the region's first read
    return task


def run_failure_case(ctx, recovery: str, rate: float, seed: int = 5,
                     regions: int = 24,
                     ops_per_region: int = 8) -> dict:
    env = ctx.env(f"{recovery}@{rate}")
    cluster = build_cluster(env, ClusterSpec(hosts=1))
    injector = FailureInjector(rate=rate, rng=SimRng(seed))
    runtime = TaskRuntime(env, cluster.host(0), injector=injector,
                          recovery=recovery)
    task = make_task(regions, ops_per_region)

    def go():
        return (yield from runtime.execute(task))

    result = run_proc(env, go(), horizon=500_000_000_000)
    return {"completion_us": result.completion_ns / 1e3,
            "replayed_ops": result.replayed_ops,
            "waste": result.waste_fraction,
            "failures": result.failures}


def failing_rates(summary: Dict[str, Any]) -> List[Dict[str, dict]]:
    """Per-recovery rows at every failure rate > 0, lowest rate first."""
    rates = sorted(summary["rates"].items(),
                   key=lambda item: float(item[0]))
    return [by_mode for rate, by_mode in rates if float(rate) > 0]


def idempotent_wastes_less(summary: Dict[str, Any],
                           _params: Dict[str, Any]) -> bool:
    """Replays no more ops than restart at every rate > 0, and wastes
    less at the top rate."""
    rows = failing_rates(summary)
    return not rows or (
        all(r["idempotent"]["replayed_ops"] <= r["restart"]["replayed_ops"]
            for r in rows)
        and rows[-1]["idempotent"]["waste"] < rows[-1]["restart"]["waste"])


def restart_gap_widens(summary: Dict[str, Any],
                       _params: Dict[str, Any]) -> bool:
    """Restart's slowdown over idempotent replay grows with the rate."""
    gaps = [r["restart"]["completion_us"] / r["idempotent"]["completion_us"]
            for r in failing_rates(summary)]
    return len(gaps) < 2 or gaps[-1] > gaps[0]


def render_dp3_idempotent(summary: Dict[str, Any],
                          run_params: Dict[str, Any]) -> None:
    rows: List[list] = []
    for rate, by_mode in summary["rates"].items():
        for mode, r in by_mode.items():
            rows.append([f"{float(rate):.2f}", mode, r["completion_us"],
                         r["replayed_ops"], f"{r['waste']:.1%}",
                         r["failures"]])
    print_table(
        f"A3 (DP#3): {run_params['regions']}x"
        f"{run_params['ops_per_region']}-op task under failure "
        "injection",
        ["rate", "recovery", "time us", "replayed", "waste", "failures"],
        rows)


@experiment(
    "dp3_idempotent",
    "A3: idempotent-region replay vs whole-task restart, rate sweep",
    params={"regions": Param(int, 24, "regions per task"),
            "ops_per_region": Param(int, 8, "ops per region"),
            "rates": Param(list, [0.0, 0.01, 0.02, 0.05],
                           "failure rates swept"),
            "failure_seed": Param(int, 5, "failure-injector seed")},
    render=render_dp3_idempotent,
    invariants=(
        ("a3_idempotent_wastes_less_at_every_rate", idempotent_wastes_less),
        ("a3_gap_widens_with_failure_rate", restart_gap_widens),
        ("a3_zero_failures_costs_nothing_extra",
         lambda s, _p: all(r["replayed_ops"] == 0
                           for rate, by_mode in s["rates"].items()
                           if float(rate) == 0.0
                           for r in by_mode.values())),
    ))
def run_dp3_idempotent(ctx) -> Dict[str, Any]:
    rates = {}
    for rate in ctx.rates:
        rates[str(rate)] = {
            recovery: run_failure_case(ctx, recovery, rate, ctx.failure_seed,
                                       ctx.regions, ctx.ops_per_region)
            for recovery in ("idempotent", "restart")}
    return {"rates": rates}


# --------------------------------------------------------------------------
# E5: graph traversal over fabric memory
# --------------------------------------------------------------------------

#: small caches: the graph must not fit (placement is the variable)
GRAPH_TINY_CACHES = (
    CacheConfig(name="l1", size_bytes=2 * 1024, assoc=2,
                read_ns=5.4, write_ns=5.4),
    CacheConfig(name="l2", size_bytes=8 * 1024, assoc=4,
                read_ns=13.6, write_ns=12.5),
)


def run_graph_mode(ctx, mode: str, vertices: int = 96,
                   avg_degree: float = 3.0,
                   traversals: int = 4) -> List[float]:
    from ...workloads import CsrGraph, random_graph
    env = ctx.env(mode)
    cluster = build_cluster(env, ClusterSpec(
        hosts=1, cache_configs=GRAPH_TINY_CACHES))
    host = cluster.host(0)
    engine = MovementOrchestrator(env).attach_host(host)
    heap = UnifiedHeap(env, host, engine)
    heap.add_bin("local", start=8 << 20, size=1 << 20, tier="local",
                 is_remote=False)
    heap.add_bin("fam0", start=host.remote_base("fam0"), size=8 << 20,
                 tier="cpuless-numa", is_remote=True)
    if mode == "unified+runtime":
        runtime = HeapRuntime(env, heap, local_bin="local",
                              interval_ns=20_000.0,
                              promote_threshold=3.0)
        runtime.start()
    tier = "local" if mode == "local" else "cpuless-numa"
    graph = CsrGraph(env, heap, random_graph(vertices, avg_degree,
                                             SimRng(17)),
                     prefer_tier=tier)
    times: List[float] = []

    def go():
        for _ in range(traversals):
            start = env.now
            yield from graph.bfs(0)
            times.append(env.now - start)
            yield env.timeout(30_000.0)   # let the runtime react

    run_proc(env, go(), horizon=500_000_000_000)
    return times


def render_graph_far_memory(summary: Dict[str, Any],
                            run_params: Dict[str, Any]) -> None:
    rows = []
    for mode, times in summary["modes"].items():
        rows.append([mode] + [t / 1e3 for t in times])
    print_table(
        f"E5 (extension): BFS over a {run_params['vertices']}-vertex "
        f"CSR graph, {run_params['traversals']} traversals (us each)",
        ["placement"] + [f"pass {i}"
                         for i in range(run_params["traversals"])],
        rows)


@experiment(
    "graph_far_memory",
    "E5: BFS over far memory — local vs remote vs unified heap",
    params={"vertices": Param(int, 96, "graph vertices"),
            "avg_degree": Param(float, 3.0, "average out-degree"),
            "traversals": Param(int, 4, "BFS passes")},
    render=render_graph_far_memory,
    invariants=(
        ("e5_first_remote_traversal_pays_fabric_latency",
         lambda s, _p: s["modes"]["remote"][0]
         > 2 * s["modes"]["local"][0]),
        ("e5_unified_heap_converges_toward_local",
         lambda s, _p: s["modes"]["unified+runtime"][-1]
         < min(s["modes"]["remote"][-1], 3 * s["modes"]["local"][-1])),
    ))
def run_graph_far_memory(ctx) -> Dict[str, Any]:
    return {"modes": {mode: run_graph_mode(ctx, mode, ctx.vertices,
                                           ctx.avg_degree,
                                           ctx.traversals)
                      for mode in ("local", "remote",
                                   "unified+runtime")}}


# --------------------------------------------------------------------------
# S3: difference #4 — fast context switching to FAAs
# --------------------------------------------------------------------------


def comm_fabric_launch(ctx, context_bytes: int = 4096, launches: int = 20,
                       kernel_ns: float = 0.0) -> float:
    env = ctx.env("comm-fabric")
    nic = CommFabricChannel(env)

    def go():
        total = 0.0
        for _ in range(launches):
            total += yield from nic.kernel_launch(context_bytes,
                                                  kernel_ns)
        return total / launches

    return run_proc(env, go())


def fabric_accelerator_launch(ctx, context_bytes: int = 4096,
                              launches: int = 20,
                              kernel_ns: float = 0.0) -> float:
    env = ctx.env("fabric-accelerator")
    cluster = build_cluster(env, ClusterSpec(
        hosts=1, faas=[FaaSpec(name="faa0")]))
    accel = next(iter(cluster.faa("faa0").accelerators.values()))
    accel.register("kernel", lambda req: (kernel_ns, None))
    host = cluster.host(0)
    dst = cluster.endpoint_id("faa0")

    def go():
        start = env.now
        for _ in range(launches):
            # The context rides as the packet payload: plain stores.
            packet = Packet(kind=PacketKind.IO_WR, channel=Channel.CXL_IO,
                            src=host.port.port_id, dst=dst,
                            nbytes=context_bytes,
                            meta={"kernel": "kernel"})
            yield from host.port.request(packet)
        return (env.now - start) / launches

    return run_proc(env, go())


def scalable_function_launch(ctx, context_bytes: int = 4096,
                             launches: int = 20,
                             kernel_ns: float = 0.0) -> float:
    env = ctx.env("scalable-function")
    topo = Topology(env)
    topo.add_switch("sw0")
    topo.add_endpoint("host0")
    host_port = topo.connect_endpoint("sw0", "host0",
                                      role=PortRole.UPSTREAM)
    topo.add_endpoint("faa0")
    faa_port = topo.connect_endpoint("sw0", "faa0")
    FabricManager(topo).configure()
    function = ScalableFunction("kernel").on(
        "call", lambda state, msg: HandlerResult(compute_ns=kernel_ns))
    FunctionChassis(env, faa_port, [function])
    dst = topo.endpoints["faa0"].global_id

    def go():
        start = env.now
        for _ in range(launches):
            packet = Packet(kind=PacketKind.IO_WR, channel=Channel.CXL_IO,
                            src=host_port.port_id, dst=dst,
                            nbytes=context_bytes,
                            meta={"function": "kernel"})
            yield from host_port.request(packet)
        return (env.now - start) / launches

    return run_proc(env, go())


def render_context_switch(summary: Dict[str, Any],
                          run_params: Dict[str, Any]) -> None:
    results = summary["paths"]
    nic = results["comm-fabric (NIC)"]
    rows = [[mode, value, nic / value]
            for mode, value in results.items()]
    print_table(
        f"S3: kernel launch latency ({run_params['context_bytes']}B "
        "context, kernel excluded)",
        ["path", "launch ns", "speedup"], rows)


@experiment(
    "context_switch",
    "S3: FAA kernel-launch latency, NIC vs fabric vs scalable fn",
    params={"context_bytes": Param(int, 4096, "context per launch"),
            "launches": Param(int, 20, "measured launches"),
            "kernel_ns": Param(float, 0.0, "kernel compute time")},
    render=render_context_switch,
    invariants=(
        ("s3_fabric_launch_much_cheaper",
         lambda s, _p: s["paths"]["fabric (FAA call)"]
         < s["paths"]["comm-fabric (NIC)"] / 2),
        ("s3_scalable_function_comparable_to_raw_call",
         lambda s, _p: s["paths"]["fabric (scalable fn)"]
         < 2 * s["paths"]["fabric (FAA call)"]),
    ))
def run_context_switch(ctx) -> Dict[str, Any]:
    args = (ctx.context_bytes, ctx.launches, ctx.kernel_ns)
    return {"paths": {
        "comm-fabric (NIC)": comm_fabric_launch(ctx, *args),
        "fabric (FAA call)": fabric_accelerator_launch(ctx, *args),
        "fabric (scalable fn)": scalable_function_launch(ctx, *args),
    }}
