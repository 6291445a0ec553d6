"""Experiments T1/T2/F1: the paper's tables and Figure 1 rack."""

from __future__ import annotations

from typing import Any, Dict

from ... import params
from ...fabric import CATALOG, Channel, Packet, PacketKind, format_table1
from ...infra import ClusterSpec, FaaSpec, FamSpec, build_cluster
from ...sim import run_proc
from ..format import print_table
from ..registry import ExperimentError, Param, experiment

#: outstanding-op window per measured level (fitted; see EXPERIMENTS.md)
WINDOWS = {"l1": 2, "l2": 2, "local": 3, "local_wr": 2, "remote": 4}

TABLE2_ROWS = [("l1", False), ("l1", True), ("l2", False), ("l2", True),
               ("local", False), ("local", True), ("remote", False),
               ("remote", True)]


def measure_level(ctx, level: str, is_write: bool, ops: int = 400) -> dict:
    """One Table 2 row: stream 64B ops pinned to a hierarchy level."""
    env = ctx.env(f"{level}.{'write' if is_write else 'read'}")
    cluster = build_cluster(env, ClusterSpec(hosts=1))
    host = cluster.host(0)
    core = host.core(0)
    base = host.remote_base("fam0") if level == "remote" else 1 << 20
    window = WINDOWS["local_wr"] if (level == "local" and is_write) \
        else WINDOWS[level]

    if level in ("l1", "l2"):
        if level == "l1":
            warm = [(base, is_write)]
            trace = [(base, is_write)] * ops
        else:
            # Cyclic scan of 64KB: thrashes the 32KB L1, fits the 1MB
            # L2.
            lines = [(base + i * 64, is_write) for i in range(1024)]
            warm = lines
            scans = -(-ops // len(lines))
            trace = (lines * scans)[:ops]
    else:
        # Distinct far-apart lines: every access is a DRAM-cold miss.
        warm = []
        trace = [(base + i * 4096, is_write) for i in range(ops)]

    def go():
        if warm:
            yield from core.run(warm, window=window)
        stats = yield from core.run(trace, window=window)
        return stats

    stats = run_proc(env, go())
    return {"level": level, "op": "write" if is_write else "read",
            "latency_ns": stats.mean, "mops": stats.mops(),
            "window": window}


def _paper_latency(level: str, op: str) -> float:
    return {
        ("l1", "read"): params.L1_READ_NS,
        ("l1", "write"): params.L1_WRITE_NS,
        ("l2", "read"): params.L2_READ_NS,
        ("l2", "write"): params.L2_WRITE_NS,
        ("local", "read"): params.LOCAL_MEM_READ_NS,
        ("local", "write"): params.LOCAL_MEM_WRITE_NS,
        ("remote", "read"): params.REMOTE_MEM_READ_NS,
        ("remote", "write"): params.REMOTE_MEM_WRITE_NS,
    }[(level, op)]


def table2_rows(summary: Dict[str, Any]) -> Dict[tuple, dict]:
    return {(r["level"], r["op"]): r for r in summary["rows"]}


def read_latencies_match_paper(summary: Dict[str, Any],
                               _params: Dict[str, Any]) -> bool:
    """Every read row within 5% of the paper's latency."""
    return all(abs(r["latency_ns"] - r["paper_latency_ns"])
               <= 0.05 * r["paper_latency_ns"]
               for r in summary["rows"] if r["op"] == "read")


def remote_local_ratio(summary: Dict[str, Any],
                       _params: Dict[str, Any]) -> bool:
    """C1: remote ~10x slower than local, latency and throughput."""
    rows = table2_rows(summary)
    local, remote = rows["local", "read"], rows["remote", "read"]
    return (10.0 <= remote["latency_ns"] / local["latency_ns"] <= 20.0
            and 8.0 <= local["mops"] / remote["mops"] <= 15.0)


def l1_fastest(summary: Dict[str, Any],
               _params: Dict[str, Any]) -> bool:
    rows = table2_rows(summary)
    return rows["l1", "read"]["latency_ns"] \
        < rows["local", "read"]["latency_ns"]


def render_table2(summary: Dict[str, Any],
                  _params: Dict[str, Any]) -> None:
    rows = []
    for r in summary["rows"]:
        rows.append([f"{r['level']} {r['op']}", r["paper_latency_ns"],
                     r["latency_ns"], r["paper_mops"], r["mops"],
                     r["window"]])
    print_table(
        "Table 2: cacheline (64B) performance, paper vs simulated",
        ["level/op", "paper ns", "sim ns", "paper MOPS", "sim MOPS",
         "window"],
        rows)


@experiment(
    "table2_hierarchy",
    "Table 2 (+C1): hierarchy latency/MOPS, one core streaming 64B ops",
    params={"ops": Param(int, 400, "measured ops per level")},
    render=render_table2,
    invariants=(
        ("table2_read_latencies", read_latencies_match_paper),
        ("table2_mops_within_15pct_of_paper",
         lambda s, _p: all(abs(r["mops"] - r["paper_mops"])
                           / r["paper_mops"] < 0.15 for r in s["rows"])),
        ("c1_remote_local_ratio", remote_local_ratio),
        ("t2_l1_fastest", l1_fastest),
    ))
def run_table2(ctx) -> Dict[str, Any]:
    if ctx.ops < 2:
        # MOPS is a rate between completions: one op has none.
        raise ExperimentError(
            f"parameter 'ops' must be >= 2 for a MOPS rate, "
            f"got {ctx.ops}")
    rows = []
    for level, is_write in TABLE2_ROWS:
        measured = measure_level(ctx, level, is_write, ops=ctx.ops)
        key = (level, measured["op"])
        measured["paper_latency_ns"] = _paper_latency(*key)
        measured["paper_mops"] = params.PAPER_MOPS[key]
        rows.append(measured)
    return {"rows": rows}


def render_table1(summary: Dict[str, Any],
                  _params: Dict[str, Any]) -> None:
    print(summary["table"])


@experiment(
    "table1_catalog",
    "Table 1: the commodity memory-fabric catalog, as structured data",
    render=render_table1)
def run_table1(_ctx) -> Dict[str, Any]:
    merged = sorted(spec.interconnect for spec in CATALOG
                    if spec.merged_into_cxl)
    return {"table": format_table1(),
            "fabrics": len(CATALOG),
            "merged_into_cxl": merged}


def build_fig1(env: Environment, hosts: int = 2, fam_modules: int = 6,
               faa_accelerators: int = 8):
    """The Figure 1(b) rack: hosts + FAM chassis + FAA chassis."""
    return build_cluster(env, ClusterSpec(
        hosts=hosts,
        fams=[FamSpec(name="fam0", capacity_bytes=1 << 28,
                      modules=fam_modules)],
        faas=[FaaSpec(name="faa0", accelerators=faa_accelerators)]))


def render_fig1(summary: Dict[str, Any],
                _params: Dict[str, Any]) -> None:
    print(summary["describe"])


@experiment(
    "fig1_composition",
    "Figure 1: composable rack inventory + all-hosts-reach-all check",
    params={"hosts": Param(int, 2, "host servers in the rack"),
            "fam_modules": Param(int, 6, "rDIMM modules in the FAM"),
            "faa_accelerators": Param(int, 8, "accelerators in the FAA")},
    render=render_fig1,
    invariants=(
        ("fig1_all_hosts_reach_all_devices",
         lambda s, _p: s["all_hosts_reach_fam"]),
    ))
def run_fig1(ctx) -> Dict[str, Any]:
    env = ctx.env("fig1")
    cluster = build_fig1(env, hosts=ctx.hosts,
                         fam_modules=ctx.fam_modules,
                         faa_accelerators=ctx.faa_accelerators)
    # Snapshot the inventory before the probes touch port counters.
    described = cluster.describe()

    def one(host, dst_name):
        packet = Packet(kind=PacketKind.MEM_RD,
                        channel=Channel.CXL_MEM,
                        src=host.port.port_id,
                        dst=cluster.endpoint_id(dst_name), nbytes=64)
        response = yield from host.port.request(packet)
        return response.kind

    reached = []
    for host in cluster.hosts.values():
        kind = run_proc(env, one(host, "fam0"))
        reached.append(kind is PacketKind.MEM_RD_DATA)
    switch = cluster.topology.switches["sw0"]
    return {"describe": described,
            "hosts": len(cluster.hosts),
            "switch_ports": switch.port_count(),
            "all_hosts_reach_fam": all(reached)}
