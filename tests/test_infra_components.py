"""Focused unit tests for infra components and misc edge paths."""

import pytest

from repro import params
from repro.fabric import Channel, LinkLayer, Packet, PacketKind, TransactionPort
from repro.infra import (
    Accelerator,
    ClusterSpec,
    FaaSpec,
    FamSpec,
    HostServer,
    build_cluster,
    flat_dram_backend,
)
from repro.pcie import Topology
from repro.sim import Environment, PriorityStore, Store


def run(env, gen, horizon=100_000_000):
    proc = env.process(gen)
    env.run(until=env.now + horizon, until_event=proc)
    assert proc.triggered
    if not proc.ok:
        raise proc.value
    return proc.value


class TestHostAdapter:
    def test_snoop_translates_device_address(self):
        env = Environment()
        cluster = build_cluster(env, ClusterSpec(hosts=1))
        host = cluster.host(0)
        base = host.remote_base("fam0")
        fam_id = cluster.endpoint_id("fam0")

        def go():
            # Cache a remote line, then snoop it by device offset.
            yield from host.mem.access(base + 0x4000, True)
            assert host.mem.levels[0].probe(base + 0x4000)
            snoop = Packet(kind=PacketKind.SNP_INV,
                           channel=Channel.CXL_CACHE,
                           src=fam_id, dst=host.port.port_id,
                           addr=0x4000)
            fam_port = cluster.fam("fam0").port
            response = yield from fam_port.request(snoop)
            return response

        response = run(env, go())
        assert response.meta["was_dirty"] is True
        assert not host.mem.levels[0].probe(base + 0x4000)
        assert host.fha.snoops_served == 1

    def test_memory_request_to_host_faults_politely(self):
        env = Environment()
        cluster = build_cluster(env, ClusterSpec(hosts=1))
        host = cluster.host(0)
        fam_port = cluster.fam("fam0").port

        def go():
            bogus = Packet(kind=PacketKind.MEM_RD,
                           channel=Channel.CXL_MEM,
                           src=fam_port.port_id, dst=host.port.port_id,
                           addr=0, nbytes=64)
            response = yield from fam_port.request(bogus)
            return response.meta

        assert run(env, go()).get("fault") is True

    def test_evict_notice_reaches_cc_directory(self):
        from repro.mem import LineState, NodeKind
        env = Environment()
        cluster = build_cluster(env, ClusterSpec(
            hosts=1, fams=[FamSpec(name="cc", kind=NodeKind.CC_NUMA,
                                   capacity_bytes=1 << 26)]))
        host = cluster.host(0)
        module = cluster.fam("cc").modules[0]
        device_id = cluster.endpoint_id("cc")

        def go():
            yield from host.mem.access(host.remote_base("cc"), True)
            assert module.directory.state_of(0) is LineState.EXCLUSIVE
            yield from host.fha.evict_notice(device_id, 0)

        run(env, go())
        assert module.directory.state_of(0) is LineState.UNCACHED


class TestFamChassis:
    def test_out_of_range_address_faults(self):
        env = Environment()
        cluster = build_cluster(env, ClusterSpec(
            hosts=1, fams=[FamSpec(name="fam0",
                                   capacity_bytes=1 << 20)]))
        host = cluster.host(0)
        fam_id = cluster.endpoint_id("fam0")

        def go():
            packet = Packet(kind=PacketKind.MEM_RD,
                            channel=Channel.CXL_MEM,
                            src=host.port.port_id, dst=fam_id,
                            addr=1 << 30, nbytes=64)
            response = yield from host.port.request(packet)
            return response.meta

        assert run(env, go()).get("fault") is True

    def test_capacity_is_module_sum(self):
        env = Environment()
        cluster = build_cluster(env, ClusterSpec(
            hosts=1, fams=[FamSpec(name="fam0",
                                   capacity_bytes=1 << 24, modules=4)]))
        fam = cluster.fam("fam0")
        assert fam.capacity_bytes == 1 << 24
        assert fam.module_of(0) is fam.modules[0]
        assert fam.module_of((1 << 24) - 1) is fam.modules[3]
        with pytest.raises(IndexError):
            fam.module_of(1 << 24)

    def test_unequal_modules_rejected(self):
        from repro.infra.chassis import FamChassis
        from repro.mem import CpulessExpander
        env = Environment()
        topo = Topology(env)
        topo.add_switch("sw0")
        topo.add_endpoint("fam")
        port = topo.connect_endpoint("sw0", "fam")
        modules = [CpulessExpander(env, 1 << 20),
                   CpulessExpander(env, 1 << 21)]
        with pytest.raises(ValueError):
            FamChassis(env, port, modules)

    def test_empty_chassis_rejected(self):
        from repro.infra.chassis import FamChassis
        env = Environment()
        topo = Topology(env)
        topo.add_switch("sw0")
        topo.add_endpoint("fam")
        port = topo.connect_endpoint("sw0", "fam")
        with pytest.raises(ValueError):
            FamChassis(env, port, [])


class TestAccelerator:
    def test_setup_time_charged(self):
        env = Environment()
        cluster = build_cluster(env, ClusterSpec(
            hosts=1, faas=[FaaSpec(name="faa0", setup_ns=500.0)]))
        accel = next(iter(cluster.faa("faa0").accelerators.values()))
        accel.register("noop", lambda req: (0.0, None))
        host = cluster.host(0)

        def go():
            packet = Packet(kind=PacketKind.IO_WR,
                            channel=Channel.CXL_IO,
                            src=host.port.port_id,
                            dst=cluster.endpoint_id("faa0"), nbytes=64,
                            meta={"kernel": "noop"})
            start = env.now
            yield from host.port.request(packet)
            return env.now - start

        assert run(env, go()) > 500.0

    def test_kernel_listing(self):
        env = Environment()
        accel = Accelerator(env, "a")
        accel.register("fft", lambda r: (0, None))
        accel.register("abs", lambda r: (0, None))
        assert accel.kernels() == ["abs", "fft"]


class TestHostServer:
    def test_duplicate_remote_mapping_rejected(self):
        env = Environment()
        cluster = build_cluster(env, ClusterSpec(hosts=1))
        host = cluster.host(0)
        with pytest.raises(ValueError):
            host.map_remote("fam0", 99, 4096)

    def test_remote_region_lookup(self):
        env = Environment()
        cluster = build_cluster(env, ClusterSpec(hosts=1))
        host = cluster.host(0)
        region = host.remote_region("fam0")
        assert region.is_remote
        assert region.start == host.local_bytes

    def test_describe_lists_regions(self):
        env = Environment()
        cluster = build_cluster(env, ClusterSpec(hosts=1))
        text = cluster.host(0).describe()
        assert "local" in text and "remote" in text

    def test_invalid_core_count(self):
        env = Environment()
        topo = Topology(env)
        topo.add_switch("sw0")
        topo.add_endpoint("h")
        port = topo.connect_endpoint("sw0", "h")
        with pytest.raises(ValueError):
            HostServer(env, "h", port, cores=0)

    def test_flat_dram_backend_streams_extra_lines(self):
        env = Environment()
        backend = flat_dram_backend(env)

        def go():
            start = env.now
            yield from backend(0, 64, False)
            one_line = env.now - start
            start = env.now
            yield from backend(0, 64 * 8, False)
            eight_lines = env.now - start
            return one_line, eight_lines

        one_line, eight_lines = run(env, go())
        assert eight_lines == pytest.approx(
            one_line + 7 * params.DRAM_BUS_NS_PER_CACHELINE)


class TestClusterAccessors:
    def test_indexed_accessors(self):
        env = Environment()
        cluster = build_cluster(env, ClusterSpec(
            hosts=1, faas=[FaaSpec(name="faa0")]))
        assert cluster.fam(0) is cluster.fams["fam0"]
        assert cluster.faa(0) is cluster.faas["faa0"]
        assert cluster.fam("fam0") is cluster.fams["fam0"]
        assert cluster.endpoint_id("host0") == \
            cluster.topology.endpoints["host0"].global_id


class TestTopologyValidation:
    def test_duplicate_names_rejected(self):
        env = Environment()
        topo = Topology(env)
        topo.add_switch("x")
        with pytest.raises(ValueError):
            topo.add_endpoint("x")

    def test_double_connect_endpoint_rejected(self):
        env = Environment()
        topo = Topology(env)
        topo.add_switch("sw0")
        topo.add_switch("sw1")
        topo.add_endpoint("e")
        topo.connect_endpoint("sw0", "e")
        with pytest.raises(ValueError):
            topo.connect_endpoint("sw1", "e")

    def test_port_of_unconnected_raises(self):
        env = Environment()
        topo = Topology(env)
        topo.add_endpoint("e")
        with pytest.raises(ValueError):
            topo.port_of("e")

    def test_switch_attach_duplicate_index_rejected(self):
        env = Environment()
        topo = Topology(env)
        switch = topo.add_switch("sw0")
        link_a = LinkLayer(env, name="a")
        link_b = LinkLayer(env, name="b")
        switch.attach(in_link=link_a, out_link=link_b, index=0)
        with pytest.raises(ValueError):
            switch.attach(in_link=link_b, out_link=link_a, index=0)


class TestStoreEdges:
    def test_priority_store_filtered_get(self):
        env = Environment()
        store = PriorityStore(env)
        got = []

        def go():
            yield store.put((2, "b"))
            yield store.put((1, "a"))
            yield store.put((3, "c"))
            item = yield store.get(lambda it: it[1] == "c")
            got.append(item)
            item = yield store.get()
            got.append(item)

        run(env, go())
        assert got == [(3, "c"), (1, "a")]

    def test_store_filter_blocks_until_match(self):
        env = Environment()
        store = Store(env)
        got = []

        def consumer():
            item = yield store.get(lambda it: it == "wanted")
            got.append((item, env.now))

        def producer():
            yield store.put("other")
            yield env.timeout(10)
            yield store.put("wanted")

        env.process(consumer())
        env.process(producer())
        env.run(until=100)
        assert got == [("wanted", 10)]
        assert list(store.items) == ["other"]


class TestHdmInterleaving:
    def _cluster(self, env):
        cluster = build_cluster(env, ClusterSpec(
            hosts=1, map_all_fams=False,
            fams=[FamSpec(name=f"fam{i}", capacity_bytes=1 << 26)
                  for i in range(4)]))
        return cluster

    def test_stripe_spreads_traffic_across_chassis(self):
        env = Environment()
        cluster = self._cluster(env)
        host = cluster.host(0)
        targets = [(f"fam{i}", cluster.endpoint_id(f"fam{i}"))
                   for i in range(4)]
        region = host.map_interleaved("stripe", targets, size=32 << 20,
                                      granularity=4096)

        def go():
            # Touch 8 distinct 4KB chunks: two per chassis.
            for i in range(8):
                yield from host.mem.access(
                    region.start + i * 4096, True, 4096)

        run(env, go())
        writes = [cluster.fam(f"fam{i}").modules[0].writes
                  for i in range(4)]
        assert all(w >= 2 for w in writes)

    def test_interleaved_scan_faster_than_single_chassis(self):
        def scan_time(ways):
            env = Environment()
            cluster = self._cluster(env)
            host = cluster.host(0)
            targets = [(f"fam{i}", cluster.endpoint_id(f"fam{i}"))
                       for i in range(ways)]
            region = host.map_interleaved("stripe", targets,
                                          size=32 << 20)

            def go():
                start = env.now
                yield from host.mem.access(region.start + (1 << 20),
                                           False, 64 * 1024)
                return env.now - start

            return run(env, go())

        assert scan_time(2) < scan_time(1)

    def test_single_piece_access_stays_synchronous(self):
        env = Environment()
        cluster = self._cluster(env)
        host = cluster.host(0)
        targets = [(f"fam{i}", cluster.endpoint_id(f"fam{i}"))
                   for i in range(2)]
        region = host.map_interleaved("stripe", targets, size=32 << 20)

        def go():
            yield from host.mem.access(region.start + 100, False, 64)

        run(env, go())
        reads = [cluster.fam(f"fam{i}").modules[0].reads
                 for i in range(2)]
        assert sorted(reads) == [0, 1]   # exactly one chassis touched

    def test_validation(self):
        env = Environment()
        cluster = self._cluster(env)
        host = cluster.host(0)
        with pytest.raises(ValueError):
            host.map_interleaved("x", [], size=1 << 20)
        with pytest.raises(ValueError):
            host.map_interleaved("x", [("fam0", 1)], size=1 << 20,
                                 granularity=32)
