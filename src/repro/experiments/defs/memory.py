"""Memory-node experiments: S2 node types, E1 reliability, E4 NR."""

from __future__ import annotations

from typing import Any, Dict

from ...core import CentralMemoryManager, NodeReplicatedObject, UniFabric
from ...fabric import Channel, Packet, PacketKind
from ...infra import ClusterSpec, FamSpec, build_cluster
from ...mem import ComaCluster, NodeKind
from ...sim import SimRng, StatSeries, run_proc
from ..format import print_table
from ..registry import Param, experiment

__all__ = ["fabric_node_case", "coma_case", "measure_parity", "run_nr_mode"]

# --------------------------------------------------------------------------
# S2: difference #2 — the eclectic memory node types
# --------------------------------------------------------------------------


def fabric_node_case(ctx, kind: NodeKind, rounds: int = 30,
                     shared_lines: int = 8) -> Dict[str, float]:
    """Two hosts ping-pong writes + reads over a shared region.

    Issued as uncached fabric requests: sharing semantics live at the
    device, and a write-back host cache would otherwise absorb the
    traffic after the first round (difference #1 at work).
    """
    env = ctx.env(kind.value)
    cluster = build_cluster(env, ClusterSpec(
        hosts=2, fams=[FamSpec(name="fam", kind=kind,
                               capacity_bytes=1 << 26)]))
    host0 = cluster.host(0)
    host1 = cluster.hosts["host1"]
    dst = cluster.endpoint_id("fam")
    stats = StatSeries(kind.value)

    def op(host, addr, is_write):
        packet = Packet(
            kind=PacketKind.MEM_WR if is_write else PacketKind.MEM_RD,
            channel=Channel.CXL_MEM, src=host.port.port_id, dst=dst,
            addr=addr, nbytes=64)
        yield from host.port.request(packet)

    def go():
        for round_index in range(rounds):
            for line in range(shared_lines):
                addr = line * 64
                writer, reader = (host0, host1) if round_index % 2 \
                    else (host1, host0)
                start = env.now
                yield from op(writer, addr, True)
                yield from op(reader, addr, False)
                stats.add(env.now - start, time=env.now)
        return stats

    run_proc(env, go(), horizon=500_000_000_000)
    module = cluster.fam("fam").modules[0]
    snoops = getattr(module, "snoops_issued", 0)
    conflicts = getattr(module, "cross_host_conflicts", 0)
    return {"mean_ns": stats.mean, "snoops": snoops,
            "conflicts": conflicts}


def coma_case(ctx, rounds: int = 30,
              shared_lines: int = 8) -> Dict[str, float]:
    """The same ping-pong over a 2-node COMA cluster."""
    env = ctx.env("coma")
    coma = ComaCluster(env, nodes=2, am_capacity_lines=64)
    stats = StatSeries("coma")

    def go():
        for round_index in range(rounds):
            for line in range(shared_lines):
                addr = line * 64
                writer, reader = (0, 1) if round_index % 2 else (1, 0)
                start = env.now
                yield from coma.access(writer, addr, is_write=True)
                yield from coma.access(reader, addr, is_write=False)
                stats.add(env.now - start, time=env.now)
        return stats

    run_proc(env, go())
    return {"mean_ns": stats.mean,
            "invalidations": coma.stats.invalidations,
            "replications": coma.stats.replications}


def render_node_types(summary: Dict[str, Any],
                      _params: Dict[str, Any]) -> None:
    rows = []
    for kind, r in summary["kinds"].items():
        extra = ", ".join(f"{k}={v}" for k, v in r.items()
                          if k != "mean_ns")
        rows.append([kind, r["mean_ns"], extra])
    print_table("S2: write->read sharing round over each node type",
                ["node type", "mean round ns", "notes"],
                rows, widths=[14, 14, 44])


@experiment(
    "node_types",
    "S2: sharing round over CPU-less / CC / non-CC NUMA and COMA",
    params={"rounds": Param(int, 30, "write->read rounds"),
            "shared_lines": Param(int, 8, "contended lines")},
    render=render_node_types,
    invariants=(
        # CC-NUMA pays snoop round trips the non-coherent nodes skip.
        ("s2_coherence_costs_latency",
         lambda s, _p: s["kinds"]["cc-numa"]["mean_ns"]
         > s["kinds"]["noncc-numa"]["mean_ns"]
         and s["kinds"]["cc-numa"]["snoops"] > 0
         and s["kinds"]["cpuless-numa"]["snoops"] == 0),
        ("s2_noncc_surfaces_conflicts_to_software",
         lambda s, _p: s["kinds"]["noncc-numa"]["conflicts"] > 0),
        # Ownership ping-pongs: replica writes take mastership and
        # invalidate the other node, and reads replicate toward their
        # users.
        ("s2_coma_attracts_data",
         lambda s, _p: s["kinds"]["coma"]["invalidations"] > 0
         and s["kinds"]["coma"]["replications"] > 0),
    ))
def run_node_types(ctx) -> Dict[str, Any]:
    args = (ctx.rounds, ctx.shared_lines)
    return {"kinds": {
        "cpuless-numa": fabric_node_case(ctx, NodeKind.CPULESS_NUMA, *args),
        "cc-numa": fabric_node_case(ctx, NodeKind.CC_NUMA, *args),
        "noncc-numa": fabric_node_case(ctx, NodeKind.NONCC_NUMA, *args),
        "coma": coma_case(ctx, *args),
    }}


# --------------------------------------------------------------------------
# E1: resource-frugal fault tolerance for FAM
# --------------------------------------------------------------------------


def _build_parity_region(ctx, parity: int, shard_bytes: int):
    env = ctx.env(f"parity{parity}")
    fams = [FamSpec(name=f"fam{i}", capacity_bytes=1 << 26)
            for i in range(5)]
    cluster = build_cluster(env, ClusterSpec(hosts=1, fams=fams))
    host = cluster.host(0)
    manager = CentralMemoryManager(env)
    for i in range(5):
        manager.register_chassis(
            f"fam{i}",
            spare_bases=[host.remote_base(f"fam{i}") + (8 << 20)])
    shards = [(f"fam{i}", host.remote_base(f"fam{i}"))
              for i in range(2 + parity)]
    region = manager.create_region(host, "r0", shards,
                                   shard_bytes=shard_bytes,
                                   parity=parity)
    return env, host, manager, region


def measure_parity(ctx, parity: int, ops: int = 30,
                   shard_bytes: int = 64 * 1024) -> Dict[str, float]:
    env, host, manager, region = _build_parity_region(ctx, parity,
                                                      shard_bytes)
    healthy_reads = StatSeries("healthy")
    writes = StatSeries("writes")
    degraded_reads = StatSeries("degraded")

    def go():
        for i in range(ops):
            addr = (i * 640) % shard_bytes
            start = env.now
            yield from region.write(addr)
            writes.add(env.now - start)
            start = env.now
            yield from region.read(addr)
            healthy_reads.add(env.now - start)
        result = {"write_ns": writes.mean,
                  "read_ns": healthy_reads.mean}
        if parity > 0:
            manager.chassis_failed("fam0")
            for i in range(ops):
                addr = (i * 640) % shard_bytes
                start = env.now
                yield from region.read(addr)
                degraded_reads.add(env.now - start)
            result["degraded_read_ns"] = degraded_reads.mean
            start = env.now
            yield from manager.reconstruct("r0")
            result["rebuild_us"] = (env.now - start) / 1e3
            start = env.now
            yield from region.read(0)
            result["post_rebuild_read_ns"] = env.now - start
        return result

    return run_proc(env, go(), horizon=500_000_000_000)


def parity_write_amplification_bounded(summary: Dict[str, Any],
                                       _params: Dict[str, Any]) -> bool:
    """Each parity shard adds one RMW: roughly linear, not explosive."""
    writes = [summary["parity"][p]["write_ns"] for p in ("0", "1", "2")]
    return writes[0] < writes[1] < writes[2] < 4.0 * writes[0]


def degraded_reads_pay_reconstruction(summary: Dict[str, Any],
                                      _params: Dict[str, Any]) -> bool:
    """Degraded reads cost more; reconstruction restores the fast
    path."""
    protected = summary["parity"]["1"]
    return (protected["degraded_read_ns"] > protected["read_ns"]
            and protected["post_rebuild_read_ns"]
            < protected["degraded_read_ns"])


def render_reliability(summary: Dict[str, Any],
                       run_params: Dict[str, Any]) -> None:
    rows = []
    for parity, r in summary["parity"].items():
        rows.append([f"2+{parity}", r["write_ns"], r["read_ns"],
                     r.get("degraded_read_ns", "-"),
                     r.get("rebuild_us", "-")])
    print_table("E1 (extension): erasure-coded FAM regions "
                f"({run_params['shard_bytes'] >> 10}KiB shards)",
                ["shards", "write ns", "read ns", "degraded ns",
                 "rebuild us"], rows)


@experiment(
    "reliability",
    "E1: erasure-coded FAM — write amp, degraded reads, rebuild",
    params={"ops": Param(int, 30, "measured writes/reads"),
            "shard_bytes": Param(int, 64 * 1024, "bytes per shard")},
    render=render_reliability,
    invariants=(
        ("e1_parity_write_amplification_bounded",
         parity_write_amplification_bounded),
        # The frugal part: healthy reads cost the same regardless of
        # the code.
        ("e1_reads_unaffected_by_protection",
         lambda s, _p: s["parity"]["1"]["read_ns"]
         < 1.2 * s["parity"]["0"]["read_ns"]),
        ("e1_degraded_reads_pay_reconstruction",
         degraded_reads_pay_reconstruction),
    ))
def run_reliability(ctx) -> Dict[str, Any]:
    return {"parity": {str(parity): measure_parity(ctx, parity, ctx.ops,
                                                   ctx.shard_bytes)
                       for parity in (0, 1, 2)}}


# --------------------------------------------------------------------------
# E4: node replication vs direct shared access
# --------------------------------------------------------------------------


def _apply_counter(state, operation):
    state["value"] = state.get("value", 0) + operation


def run_nr_mode(ctx, mode: str, read_fraction: float, ops: int = 120,
                structure_lines: int = 8) -> float:
    env = ctx.env(f"{mode}@{read_fraction}")
    cluster = build_cluster(env, ClusterSpec(hosts=2))
    uni = UniFabric(env, cluster)
    rng = SimRng(int(read_fraction * 100))
    nr = NodeReplicatedObject(env, _apply_counter,
                              initial_state={"value": 0})
    handles = {name: nr.attach(uni.heap(name),
                               shared_tier="cpuless-numa")
               for name in ("host0", "host1")}
    regions = {name: cluster.hosts[name].address_map.resolve(
        cluster.hosts[name].remote_base("fam0"))
        for name in ("host0", "host1")}

    def actor(name):
        handle = handles[name]
        region = regions[name]
        for _ in range(ops):
            is_read = rng.bernoulli(read_fraction)
            if mode == "replicated":
                if is_read:
                    yield from handle.read(lambda s: s["value"])
                else:
                    yield from handle.write(1)
            else:
                # Direct: walk the shared structure line by line.
                for step in range(structure_lines):
                    yield from region.backend(0x100000 + step * 64,
                                              64, False)
                if not is_read:
                    yield from region.backend(0x100000, 64, True)

    def go():
        start = env.now
        workers = [env.process(actor(name))
                   for name in ("host0", "host1")]
        yield env.all_of(workers)
        return (env.now - start) / (2 * ops)

    return run_proc(env, go(), horizon=500_000_000_000)


def advantage_grows(summary: Dict[str, Any],
                    _params: Dict[str, Any]) -> bool:
    """Direct / replicated grows from the lowest read fraction to the
    highest."""
    fractions = sorted(summary["fractions"].items(),
                       key=lambda item: float(item[0]))
    speedups = [by_mode["direct"] / by_mode["replicated"]
                for _fraction, by_mode in fractions]
    return len(speedups) < 2 or speedups[-1] > speedups[0]


def render_replication(summary: Dict[str, Any],
                       _params: Dict[str, Any]) -> None:
    rows = []
    for fraction, by_mode in summary["fractions"].items():
        rows.append([f"{float(fraction):.0%}", by_mode["direct"],
                     by_mode["replicated"],
                     by_mode["direct"] / by_mode["replicated"]])
    print_table(
        "E4 (extension): shared counter, 2 hosts — direct fabric access "
        "vs node replication",
        ["reads", "direct ns/op", "replicated ns/op", "speedup"], rows)


@experiment(
    "replication",
    "E4: node-replicated object vs direct fabric access, read sweep",
    params={"ops": Param(int, 120, "operations per host"),
            "structure_lines": Param(int, 8,
                                     "lines per direct traversal"),
            "read_fractions": Param(list, [0.5, 0.9, 0.99],
                                    "read fractions swept")},
    render=render_replication,
    invariants=(
        ("e4_replication_wins_read_mostly",
         lambda s, _p: all(by_mode["replicated"] < by_mode["direct"]
                           for fraction, by_mode
                           in s["fractions"].items()
                           if float(fraction) == 0.99)),
        ("e4_advantage_grows_with_read_fraction", advantage_grows),
    ))
def run_replication(ctx) -> Dict[str, Any]:
    return {"fractions": {
        str(fraction): {mode: run_nr_mode(ctx, mode, fraction, ctx.ops,
                                          ctx.structure_lines)
                        for mode in ("direct", "replicated")}
        for fraction in ctx.read_fractions}}
