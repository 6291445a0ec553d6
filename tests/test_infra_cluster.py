"""Integration tests for hosts, adapters, chassis, and the cluster."""

import pytest

from repro import params
from repro.infra import (
    Accelerator,
    ClusterSpec,
    CpuCore,
    FaaSpec,
    FamSpec,
    build_cluster,
)
from repro.fabric import Channel, Packet, PacketKind
from repro.mem import NodeKind
from repro.sim import Environment


def run_proc(env, gen, horizon=100_000_000):
    proc = env.process(gen)
    env.run(until=env.now + horizon)
    assert proc.triggered, "process did not finish"
    if not proc.ok:
        raise proc.value
    return proc.value


class TestClusterBuild:
    def test_default_cluster_shape(self):
        env = Environment()
        cluster = build_cluster(env, ClusterSpec(hosts=2))
        assert len(cluster.hosts) == 2
        assert len(cluster.fams) == 1
        assert cluster.host(0).remote_base("fam0") == cluster.host(0).local_bytes

    def test_describe_renders(self):
        env = Environment()
        cluster = build_cluster(env, ClusterSpec(
            hosts=1, faas=[FaaSpec(name="faa0", accelerators=2)]))
        text = cluster.describe()
        assert "host0" in text and "fam0" in text and "faa0" in text

    def test_fig1_inventory(self):
        from repro.experiments.defs.tables import build_fig1
        cluster = build_fig1(Environment())
        # Figure 1(b): hosts with FHAs and local DIMMs...
        assert len(cluster.hosts) == 2
        for host in cluster.hosts.values():
            assert host.fha is not None
            assert not host.address_map.regions()[0].is_remote
        # ...a FAM chassis modelled after Omega's six E3.S modules...
        assert len(cluster.fam("fam0").modules) == 6
        # ...an FAA chassis modelled after Fabrex's eight accelerators...
        assert len(cluster.faa("faa0").accelerators) == 8
        # ...one switch whose ports cover every endpoint.
        assert cluster.topology.switches["sw0"].port_count() == 4

    def test_invalid_hosts(self):
        env = Environment()
        with pytest.raises(ValueError):
            build_cluster(env, ClusterSpec(hosts=0))


class TestTable2Latencies:
    @pytest.mark.parametrize("remote,is_write,warm,target", [
        (False, False, True, params.L1_READ_NS),
        (False, False, False, params.LOCAL_MEM_READ_NS),
        (False, True, False, params.LOCAL_MEM_WRITE_NS),
        (True, False, False, params.REMOTE_MEM_READ_NS),
        (True, True, False, params.REMOTE_MEM_WRITE_NS),
    ], ids=["l1_hit", "local_read", "local_write", "remote_read",
            "remote_write"])
    def test_row_matches_paper(self, remote, is_write, warm, target):
        """Each Table 2 row lands within 2% of its `repro.params` value."""
        env = Environment()
        cluster = build_cluster(env, ClusterSpec(hosts=1))
        host = cluster.host(0)
        addr = 0x40000 + (host.remote_base("fam0") if remote else 0)

        def go():
            if warm:
                yield from host.mem.access(addr, False)
            start = env.now
            yield from host.mem.access(addr, is_write)
            return env.now - start

        latency = run_proc(env, go())
        assert latency == pytest.approx(target, rel=0.02)

    def test_remote_roughly_10x_slower_than_local(self):
        """Section 3: 'nearly 10x slower than its local complex'."""
        env = Environment()
        cluster = build_cluster(env, ClusterSpec(hosts=1))
        host = cluster.host(0)
        base = host.remote_base("fam0")

        def go():
            start = env.now
            yield from host.mem.access(0x40000, False)
            local = env.now - start
            start = env.now
            yield from host.mem.access(base + 0x40000, False)
            remote = env.now - start
            return remote / local

        ratio = run_proc(env, go())
        assert 8.0 <= ratio <= 20.0

    def test_host_cache_hides_remote_latency(self):
        env = Environment()
        cluster = build_cluster(env, ClusterSpec(hosts=1))
        host = cluster.host(0)
        base = host.remote_base("fam0")

        def go():
            yield from host.mem.access(base, False)
            start = env.now
            level = yield from host.mem.access(base, False)
            return level, env.now - start

        level, latency = run_proc(env, go())
        assert level == "l1"
        assert latency == pytest.approx(params.L1_READ_NS)


class TestCpuCoreMlp:
    def _stream_mops(self, window, level_addrs):
        env = Environment()
        cluster = build_cluster(env, ClusterSpec(hosts=1))
        host = cluster.host(0)
        core = host.core(0)
        trace = [(addr, False) for addr in level_addrs]

        def go():
            stats = yield from core.run(trace, window=window)
            return stats

        stats = run_proc(env, go())
        return stats.mops()

    def test_more_window_more_local_throughput(self):
        # Distinct lines far apart: every access goes to local DRAM
        # (cold misses), so throughput scales with the window.
        addrs = [0x100000 + i * 4096 for i in range(300)]
        w1 = self._stream_mops(1, addrs)
        w4 = self._stream_mops(4, addrs)
        assert w4 > 1.5 * w1

    def test_issue_rate_caps_l1_throughput(self):
        env = Environment()
        cluster = build_cluster(env, ClusterSpec(hosts=1))
        host = cluster.host(0)
        core = host.core(0)
        # Warm one line, then hammer it: every access is an L1 hit.
        trace = [(0x0, False)] * 500

        def go():
            stats = yield from core.run(trace, window=2)
            return stats

        stats = run_proc(env, go())
        # Table 2: L1 read = 357.4 MOPS; issue pacing reproduces it.
        assert stats.mops() == pytest.approx(357.4, rel=0.05)

    def test_validation(self):
        env = Environment()
        with pytest.raises(ValueError):
            CpuCore(env, None, issue_ns=0)
        with pytest.raises(ValueError):
            CpuCore(env, None, window=0)


class TestExpanderPartitioning:
    def test_foreign_partition_faults(self):
        env = Environment()
        cluster = build_cluster(env, ClusterSpec(hosts=2))
        fam = cluster.fam("fam0")
        module = fam.modules[0]
        host0 = cluster.host(0)
        host1 = cluster.hosts["host1"]
        half = module.capacity_bytes // 2
        module.partition(host0.port.port_id, 0, half)
        module.partition(host1.port.port_id, half, module.capacity_bytes)
        base = host0.remote_base("fam0")

        def good():
            yield from host0.mem.access(base + 0x1000, True)

        run_proc(env, good())

        def bad():
            # host0 touches host1's half: device must fault.
            yield from host0.mem.access(base + half + 0x1000, True)

        with pytest.raises(PermissionError):
            run_proc(env, bad())
        assert module.faults == 1

    def test_overlapping_partitions_rejected(self):
        env = Environment()
        cluster = build_cluster(env, ClusterSpec(hosts=2))
        module = cluster.fam("fam0").modules[0]
        module.partition(1, 0, 1000)
        with pytest.raises(ValueError):
            module.partition(2, 500, 2000)


class TestCcNumaCoherence:
    def _cc_cluster(self):
        env = Environment()
        cluster = build_cluster(env, ClusterSpec(
            hosts=2,
            fams=[FamSpec(name="ccfam", kind=NodeKind.CC_NUMA,
                          capacity_bytes=1 << 26)]))
        return env, cluster

    def test_write_invalidates_remote_caches(self):
        env, cluster = self._cc_cluster()
        host0, host1 = cluster.host(0), cluster.hosts["host1"]
        base0 = host0.remote_base("ccfam")
        base1 = host1.remote_base("ccfam")
        addr = 0x4000

        def go():
            # host0 reads: line cached at host0, directory says SHARED.
            yield from host0.mem.access(base0 + addr, False)
            assert host0.mem.levels[0].probe(base0 + addr)
            # host1 writes the same line: host0's copy must die.
            yield from host1.mem.access(base1 + addr, True)

        run_proc(env, go())
        module = cluster.fam("ccfam").modules[0]
        assert module.snoops_issued >= 1
        assert host0.fha.snoops_served >= 1
        assert not host0.mem.levels[0].probe(base0 + addr)

    def test_read_read_no_snoops(self):
        env, cluster = self._cc_cluster()
        host0, host1 = cluster.host(0), cluster.hosts["host1"]

        def go():
            yield from host0.mem.access(host0.remote_base("ccfam"), False)
            yield from host1.mem.access(host1.remote_base("ccfam"), False)

        run_proc(env, go())
        assert cluster.fam("ccfam").modules[0].snoops_issued == 0

    def test_coherent_write_costs_more_than_private_write(self):
        env, cluster = self._cc_cluster()
        host0, host1 = cluster.host(0), cluster.hosts["host1"]
        base0 = host0.remote_base("ccfam")
        base1 = host1.remote_base("ccfam")

        def go():
            # Private line: no sharers.
            start = env.now
            yield from host1.mem.access(base1 + 0x10000, True)
            private = env.now - start
            # Contended line: host0 caches it first.
            yield from host0.mem.access(base0 + 0x20000, False)
            start = env.now
            yield from host1.mem.access(base1 + 0x20000, True)
            contended = env.now - start
            return private, contended

        private, contended = run_proc(env, go())
        assert contended > private + 150  # snoop round-trip is visible


class TestNonCcConflictTracking:
    def test_cross_host_conflicts_counted(self):
        env = Environment()
        cluster = build_cluster(env, ClusterSpec(
            hosts=2,
            fams=[FamSpec(name="nfam", kind=NodeKind.NONCC_NUMA,
                          capacity_bytes=1 << 26)]))
        host0, host1 = cluster.host(0), cluster.hosts["host1"]

        def go():
            yield from host0.mem.access(host0.remote_base("nfam"), True)
            yield from host1.mem.access(host1.remote_base("nfam"), True)

        run_proc(env, go())
        module = cluster.fam("nfam").modules[0]
        assert module.cross_host_conflicts == 1
        assert module.snoops_issued if hasattr(module, "snoops_issued") \
            else True  # non-CC never snoops


class TestAccelerators:
    def test_kernel_invocation_roundtrip(self):
        env = Environment()
        cluster = build_cluster(env, ClusterSpec(
            hosts=1, faas=[FaaSpec(name="faa0", accelerators=1)]))
        accel = next(iter(cluster.faa("faa0").accelerators.values()))
        accel.register("double", lambda req: (100.0, req.meta["x"] * 2))
        host = cluster.host(0)
        faa_id = cluster.endpoint_id("faa0")

        def go():
            packet = Packet(kind=PacketKind.IO_WR, channel=Channel.CXL_IO,
                            src=host.port.port_id, dst=faa_id,
                            nbytes=64, meta={"kernel": "double", "x": 21})
            response = yield from host.port.request(packet)
            return response.meta["result"]

        assert run_proc(env, go()) == 42
        assert accel.invocations == 1

    def test_unknown_kernel_faults(self):
        env = Environment()
        cluster = build_cluster(env, ClusterSpec(
            hosts=1, faas=[FaaSpec(name="faa0")]))
        host = cluster.host(0)

        def go():
            packet = Packet(kind=PacketKind.IO_WR, channel=Channel.CXL_IO,
                            src=host.port.port_id,
                            dst=cluster.endpoint_id("faa0"),
                            nbytes=64, meta={"kernel": "nope"})
            response = yield from host.port.request(packet)
            return response.meta

        meta = run_proc(env, go())
        assert meta.get("fault") is True

    def test_duplicate_kernel_rejected(self):
        env = Environment()
        accel = Accelerator(env, "a")
        accel.register("k", lambda req: (0, None))
        with pytest.raises(ValueError):
            accel.register("k", lambda req: (0, None))


class TestMultiModuleChassis:
    def test_addresses_steered_across_modules(self):
        env = Environment()
        cluster = build_cluster(env, ClusterSpec(
            hosts=1,
            fams=[FamSpec(name="fam0", capacity_bytes=1 << 26, modules=4)]))
        fam = cluster.fam("fam0")
        host = cluster.host(0)
        base = host.remote_base("fam0")
        module_size = fam.modules[0].capacity_bytes

        def go():
            for i in range(4):
                yield from host.mem.access(base + i * module_size + 64, True)

        run_proc(env, go())
        assert all(m.writes == 1 for m in fam.modules)

    def test_cc_numa_multi_module_rejected(self):
        env = Environment()
        with pytest.raises(ValueError):
            build_cluster(env, ClusterSpec(
                hosts=1,
                fams=[FamSpec(name="bad", kind=NodeKind.CC_NUMA,
                              modules=2)]))
