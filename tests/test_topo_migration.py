"""Bit-identity pins for the descriptor migration of the scenarios.

The hand-wired t2 and interleave builders were replaced by committed
descriptor shapes compiled through :func:`repro.topo.compile_topology`.
These tests keep verbatim copies of the *legacy* wiring code and assert
the migrated scenarios produce byte-identical output documents —
summary, Chrome trace, metrics snapshot, and the ``why``
attribution report — so the migration is provably a pure refactor.

The starvation scenario never had a fabric topology (it exercises a
bare :class:`CreditDomain`), so there was nothing to migrate; its pin
is a run-twice determinism check.
"""

from __future__ import annotations

import json
from typing import Any, Dict

from repro import params
from repro.fabric import Channel, Packet, PacketKind
from repro.infra.chassis import FamChassis
from repro.infra.host import HostServer
from repro.mem.dram import DramDevice
from repro.mem.nodes import CpulessExpander
from repro.pcie import FabricManager, PortRole, Topology
from repro.experiments import RunContext, get
from repro.sim import Environment, run_proc
from repro.telemetry.core import span


# --------------------------------------------------------------------------
# Legacy builders: verbatim copies of the pre-descriptor wiring
# --------------------------------------------------------------------------


def _legacy_build_t2(env: Environment) -> Dict[str, Any]:
    # Pre-descriptor build_cluster(ClusterSpec(hosts=1)), inlined.
    topology = Topology(env, link_params=None, scheduler="fair")
    topology.add_switch("sw0")
    topology.add_endpoint("host0")
    host_port = topology.connect_endpoint(
        "sw0", "host0", role=PortRole.UPSTREAM, control_lane=False)
    host = HostServer(env, "host0", host_port, local_bytes=1 << 30,
                      cores=1, cache_configs=None)
    topology.add_endpoint("fam0")
    fam_port = topology.connect_endpoint("sw0", "fam0",
                                         control_lane=False)
    media = DramDevice(env, name="fam0.mod0.media")
    module = CpulessExpander(env, 1 << 30, media=media,
                             read_extra_ns=params.FAM_MEDIA_READ_NS,
                             write_extra_ns=params.FAM_MEDIA_WRITE_NS,
                             name="fam0.mod0")
    fam = FamChassis(env, fam_port, [module], name="fam0")
    FabricManager(topology).configure()
    host.map_remote("fam0", topology.endpoints["fam0"].global_id,
                    fam.capacity_bytes)

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

    l2_lines = [(3 << 20) + i * 64 for i in range(1024)]

    def walk():
        yield from host.mem.access(hot_line, False)
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


def _legacy_build_interleave(env: Environment) -> Dict[str, Any]:
    topo = Topology(env, scheduler="fifo")
    topo.add_switch("sw0")
    for name in ("reader", "writer"):
        topo.add_endpoint(name)
        topo.connect_endpoint("sw0", name, role=PortRole.UPSTREAM)
    topo.add_endpoint("dev")
    topo.connect_endpoint("sw0", "dev",
                          link_params=params.LinkParams(lanes=4))
    FabricManager(topo).configure()

    def handler(request):
        yield env.timeout(params.FAM_ACCESS_NS)
        if request.kind is PacketKind.IO_WR:
            return None
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


# --------------------------------------------------------------------------
# The pins
# --------------------------------------------------------------------------


def _documents(name, run) -> Dict[str, str]:
    """Every output document of one scenario run, as canonical JSON."""
    ctx = RunContext(get(name).defaults(), observe=("why",))
    (result,) = ctx.finish(run(ctx))
    return {
        "summary": json.dumps(result.summary, sort_keys=True),
        "chrome_trace": json.dumps(result.chrome_trace(),
                                   sort_keys=True),
        "metrics": json.dumps(result.metrics_snapshot(),
                              sort_keys=True),
        "attribution": json.dumps(result.attribution_report(),
                                  sort_keys=True),
    }


def _assert_identical(name, legacy_build):
    migrated = _documents(name, get(name).run)
    legacy = _documents(name, lambda ctx: legacy_build(ctx.env(name)))
    for document in ("summary", "chrome_trace", "metrics",
                     "attribution"):
        assert migrated[document] == legacy[document], \
            f"{name}: {document} diverged from the hand-wired builder"


def test_t2_scenario_bit_identical_to_hand_wired_builder():
    _assert_identical("t2", _legacy_build_t2)


def test_interleave_scenario_bit_identical_to_hand_wired_builder():
    _assert_identical("interleave", _legacy_build_interleave)


def test_starvation_scenario_is_run_stable():
    # No fabric topology to migrate; pin determinism run-to-run.
    one = _documents("starvation", get("starvation").run)
    two = _documents("starvation", get("starvation").run)
    assert one == two
