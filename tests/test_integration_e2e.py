"""Cross-module end-to-end scenarios.

These tests exercise realistic combinations — lossy links under real
traffic, causal tracing through the whole stack, the full UniFabric facade
with memkind + futures + tasks together, and a multi-host contention
scenario — the kind of integration coverage unit tests cannot give.
"""

import pytest

from repro import params
from repro.core import (
    MEMKIND_FABRIC,
    MEMKIND_LOCAL,
    FutureExecutor,
    MemkindAllocator,
    Task,
    UniFabric,
    gather,
)
from repro.fabric import Channel, Packet, PacketKind
from repro.infra import ClusterSpec, FamSpec, build_cluster
from repro.pcie import FabricManager, PortRole, Topology
from repro.experiments import RunContext
from repro.sim import Environment, SimRng
from repro.telemetry.attribution import collect_transactions


def run(env, gen, horizon=100_000_000_000):
    proc = env.process(gen)
    env.run(until=env.now + horizon, until_event=proc)
    assert proc.triggered, "process did not finish"
    if not proc.ok:
        raise proc.value
    return proc.value


class TestLossyLinks:
    def test_traffic_survives_link_errors(self):
        """Retry/ack reliability keeps the fabric correct when lossy."""
        env = Environment()
        topo = Topology(env)
        topo.add_switch("sw0")
        topo.add_endpoint("host")
        topo.add_endpoint("dev")
        # Wire manually with error-injecting links.
        from repro.fabric import LinkLayer, TransactionPort
        lossy = dict(error_rate=0.05, rng=SimRng(13))
        up = LinkLayer(env, name="h->s", **lossy)
        down = LinkLayer(env, name="s->h", **lossy)
        topo.switches["sw0"].attach(in_link=up, out_link=down,
                                    role=PortRole.UPSTREAM, peer="host")
        host_port = TransactionPort(env, tx_link=up, rx_link=down,
                                    port_id=0, name="host")
        topo.endpoints["host"].port = host_port
        topo._adjacency["sw0"].append(("host", 0))
        topo._adjacency["host"].append(("sw0", -1))
        dev_port = topo.connect_endpoint("sw0", "dev")
        FabricManager(topo).configure()

        def echo(request):
            yield env.timeout(10.0)
            return request.make_response()

        dev_port.serve(echo)
        completed = []

        def client():
            for i in range(50):
                packet = Packet(kind=PacketKind.MEM_RD,
                                channel=Channel.CXL_MEM, src=0,
                                dst=topo.endpoints["dev"].global_id,
                                addr=i * 64, nbytes=64)
                response = yield from host_port.request(packet)
                completed.append(response.addr)

        run(env, client())
        assert sorted(completed) == [i * 64 for i in range(50)]
        assert up.retransmissions > 0


def _remote_read_spans():
    """One remote read under causal tracing: its spans by start time,
    and the switch's grant marks."""
    ctx = RunContext({}, observe=("why",))
    env = ctx.env("e2e")
    host = build_cluster(env, ClusterSpec(hosts=1)).host(0)

    def go():
        yield from host.mem.access(host.remote_base("fam0"), False)

    run(env, go())
    (txn,) = collect_transactions(env.telemetry)
    return sorted(txn.spans, key=lambda span: span.t0), txn.marks


class TestTracingThroughTheStack:
    def test_tracer_sees_all_layers(self):
        spans, marks = _remote_read_spans()
        sites = {span.site for span in spans}
        categories = {span.category for span in spans}
        assert "link.host0->sw0.txq" in sites        # the port's queue
        assert "link.host0->sw0.serialize" in sites   # the link
        assert "link.sw0->fam0.wire" in sites         # the phys wire
        assert "pcie.sw0.p1.egress" in sites          # the switch
        assert {"queueing", "serialization", "wire"} <= categories
        assert [site for _t, _kind, site in marks] \
            == ["pcie.sw0.p1.egress"]

    def test_trace_reconstructs_request_path(self):
        spans, _marks = _remote_read_spans()
        # The request leaves the host port before the switch forwards
        # it, and the switch forwards it before the device receives it.
        tx_times = [s.t0 for s in spans if s.site.startswith(
            "link.host0->sw0")]
        fwd_times = [s.t0 for s in spans if s.site.startswith("pcie.sw0")]
        rx_times = [s.t1 for s in spans if s.site.startswith(
            "link.sw0->fam0")]
        assert tx_times and fwd_times and rx_times
        assert min(tx_times) < min(fwd_times) < max(rx_times)


class TestFullStackScenario:
    def test_unifabric_memkind_futures_tasks_together(self):
        env = Environment()
        cluster = build_cluster(env, ClusterSpec(hosts=2,
                                                 control_lane=True))
        uni = UniFabric(env, cluster, with_arbiter=True)
        allocator = MemkindAllocator(uni.heap("host0"))
        executor = FutureExecutor(env, "host0")
        runtime = uni.task_runtime("host0")

        buffers = [allocator.kind_malloc(MEMKIND_LOCAL, 4096),
                   allocator.kind_malloc(MEMKIND_FABRIC, 4096)]

        def stage(buffer):
            def work():
                yield from buffer.write(0, 1024)
                task = (Task(f"t{buffer.oid}")
                        .read(0x1000).compute(100.0).write(0x2000))
                result = yield from runtime.execute(task)
                return result.useful_ops

            return executor.submit(work())

        futures = [stage(b) for b in buffers]
        joined = gather(env, futures)
        env.run(until=10_000_000_000, until_event=joined.wait())
        assert joined.value == [3, 3]
        assert runtime.tasks_completed == 2
        stats = allocator.stats()
        assert stats["memkind_local"] == 4096
        assert stats["memkind_fabric"] == 4096

    def test_two_hosts_share_one_fam_without_interference_bugs(self):
        env = Environment()
        cluster = build_cluster(env, ClusterSpec(hosts=4))
        done = []

        def client(index):
            host = cluster.hosts[f"host{index}"]
            base = host.remote_base("fam0")
            for i in range(20):
                addr = base + (index * (1 << 20)) + i * 4096
                yield from host.mem.access(addr, i % 2 == 0)
            done.append(index)

        procs = [env.process(client(i)) for i in range(4)]

        def wait():
            yield env.all_of(procs)

        run(env, wait())
        assert sorted(done) == [0, 1, 2, 3]
        # All traffic flowed through one switch without drops.
        switch = cluster.topology.switches["sw0"]
        assert switch.flits_forwarded > 0


class TestBifurcatedTopology:
    def test_narrow_links_still_correct_just_slower(self):
        def latency(lanes):
            env = Environment()
            cluster = build_cluster(env, ClusterSpec(
                hosts=1, link_params=params.LinkParams(lanes=lanes)))
            host = cluster.host(0)

            def go():
                start = env.now
                yield from host.mem.access(
                    host.remote_base("fam0") + 0x1000, False, 4096)
                return env.now - start

            return run(env, go())

        assert latency(4) > latency(16)


class TestScaleOutRack:
    """The scaleout_rack example topology, pinned as a test."""

    def _build(self):
        from repro.infra import HostServer
        from repro.infra.chassis import FamChassis
        from repro.mem import CpulessExpander
        env = Environment()
        topo = Topology(env)
        for name, domain in (("leaf0", 0), ("spineA", 0), ("spineB", 0),
                             ("leaf1", 0), ("gw1", 1)):
            switch = topo.add_switch(name, domain=domain)
            switch.adaptive_routing = True
        topo.connect_switches("leaf0", "spineA")
        topo.connect_switches("leaf0", "spineB")
        topo.connect_switches("spineA", "leaf1")
        topo.connect_switches("spineB", "leaf1")
        topo.connect_switches("leaf1", "gw1")
        topo.add_endpoint("host0", domain=0)
        host_port = topo.connect_endpoint("leaf0", "host0",
                                          role=PortRole.UPSTREAM)
        fams = {}
        for name, leaf, domain in (("famA", "leaf1", 0),
                                   ("famFar", "gw1", 1)):
            topo.add_endpoint(name, domain=domain)
            port = topo.connect_endpoint(leaf, name)
            fams[name] = FamChassis(
                env, port,
                [CpulessExpander(
                    env, 1 << 26, name=f"{name}.mod0",
                    read_extra_ns=params.FAM_MEDIA_READ_NS,
                    write_extra_ns=params.FAM_MEDIA_WRITE_NS)],
                name=name)
        FabricManager(topo).configure()
        host = HostServer(env, "host0", host_port,
                          local_bytes=1 << 30)
        for name, fam in fams.items():
            host.map_remote(name, topo.endpoints[name].global_id,
                            fam.capacity_bytes)
        return env, topo, host

    def test_cross_domain_costs_one_more_switch(self):
        env, topo, host = self._build()

        def go():
            start = env.now
            yield from host.mem.access(host.remote_base("famA")
                                       + 0x1000, False)
            same = env.now - start
            start = env.now
            yield from host.mem.access(host.remote_base("famFar")
                                       + 0x1000, False)
            far = env.now - start
            return same, far

        same, far = run(env, go())
        # famFar sits one switch (gw1) deeper: ~2 crossings more RTT.
        assert far > same + params.SWITCH_PORT_LATENCY_NS
        assert far < same + 6 * params.SWITCH_PORT_LATENCY_NS

    def test_adaptive_spines_share_bulk_traffic(self):
        env, topo, host = self._build()

        def worker(index, count):
            for i in range(count):
                offset = (index * count + i) * 32768
                yield from host.mem.access(
                    host.remote_base("famA") + 0x100000 + offset,
                    False, 16 * 1024)

        procs = [env.process(worker(w, 6)) for w in range(6)]

        def wait():
            yield env.all_of(procs)

        run(env, wait())
        spine_a = topo.switches["spineA"].flits_forwarded
        spine_b = topo.switches["spineB"].flits_forwarded
        assert spine_a > 0 and spine_b > 0
        assert min(spine_a, spine_b) > max(spine_a, spine_b) / 3
