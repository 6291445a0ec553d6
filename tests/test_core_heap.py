"""Tests for the unified heap (DP#2), incl. allocator property tests."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import FreeList, HeapError, MovementOrchestrator, UnifiedHeap
from repro.core.heap import AccessProfiler, HeapRuntime
from repro.infra import ClusterSpec, build_cluster
from repro.sim import Environment


def make_heap(env, local_size=1 << 20, remote_size=1 << 20):
    cluster = build_cluster(env, ClusterSpec(hosts=1))
    host = cluster.host(0)
    orch = MovementOrchestrator(env)
    engine = orch.attach_host(host)
    heap = UnifiedHeap(env, host, engine)
    heap.add_bin("local", start=1 << 20, size=local_size, tier="local",
                 is_remote=False)
    base = host.remote_base("fam0")
    heap.add_bin("fam0", start=base, size=remote_size,
                 tier="cpuless-numa", is_remote=True)
    return cluster, host, heap


def run(env, gen, horizon=500_000_000):
    proc = env.process(gen)
    env.run(until=env.now + horizon)
    assert proc.triggered
    if not proc.ok:
        raise proc.value
    return proc.value


class TestFreeList:
    def test_allocate_and_free_roundtrip(self):
        fl = FreeList(0, 4096)
        addr = fl.allocate(100)
        assert addr == 0
        assert fl.allocated_bytes == 128  # rounded to cacheline
        fl.free(addr, 100)
        assert fl.free_bytes == 4096

    def test_first_fit_reuses_freed_block(self):
        fl = FreeList(0, 4096)
        a = fl.allocate(64)
        fl.allocate(64)
        fl.free(a, 64)
        assert fl.allocate(64) == a

    def test_exhaustion_raises(self):
        fl = FreeList(0, 128)
        fl.allocate(128)
        with pytest.raises(HeapError):
            fl.allocate(64)

    def test_coalescing_merges_neighbours(self):
        fl = FreeList(0, 4096)
        blocks = [fl.allocate(64) for _ in range(64)]
        for addr in blocks:
            fl.free(addr, 64)
        assert fl.largest_free_block() == 4096

    def test_double_free_detected(self):
        fl = FreeList(0, 4096)
        addr = fl.allocate(64)
        fl.free(addr, 64)
        with pytest.raises(HeapError):
            fl.free(addr, 64)

    def test_foreign_address_rejected(self):
        fl = FreeList(0x1000, 4096)
        with pytest.raises(HeapError):
            fl.free(0x100, 64)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(min_value=1, max_value=512),
                    min_size=1, max_size=40))
    def test_property_alloc_free_all_restores_capacity(self, sizes):
        fl = FreeList(0, 64 * 1024)
        allocated = []
        for size in sizes:
            try:
                allocated.append((fl.allocate(size), size))
            except HeapError:
                break
        for addr, size in allocated:
            fl.free(addr, size)
        assert fl.free_bytes == 64 * 1024
        assert fl.largest_free_block() == 64 * 1024

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(min_value=1, max_value=256),
                    min_size=2, max_size=30))
    def test_property_no_overlapping_allocations(self, sizes):
        fl = FreeList(0, 32 * 1024)
        spans = []
        for size in sizes:
            try:
                addr = fl.allocate(size)
            except HeapError:
                break
            rounded = -(-size // 64) * 64
            for start, end in spans:
                assert not (addr < end and start < addr + rounded)
            spans.append((addr, addr + rounded))


class TestTelemetryProbes:
    def test_two_hosts_heaps_probe_the_same_bin_name(self):
        # Every host's heap has a fam0 bin; each gets its own series.
        env = Environment(telemetry=True)
        cluster = build_cluster(env, ClusterSpec(hosts=2))
        orch = MovementOrchestrator(env)
        for host in cluster.hosts.values():
            heap = UnifiedHeap(env, host, orch.attach_host(host))
            heap.add_bin("fam0", start=host.remote_base("fam0"),
                         size=1 << 20, tier="cpuless-numa",
                         is_remote=True)
        probes = [name for name, _track, _fn in env.telemetry.probes
                  if name.startswith("heap.")]
        assert probes == ["heap.host0.bin.fam0.allocated_bytes",
                          "heap.host1.bin.fam0.allocated_bytes"]


class TestAllocation:
    def test_prefers_local_tier(self):
        env = Environment()
        _, _, heap = make_heap(env)
        pointer = heap.allocate(4096)
        assert pointer.tier == "local"

    def test_spills_to_remote_when_local_full(self):
        env = Environment()
        _, _, heap = make_heap(env, local_size=8192)
        first = heap.allocate(8192)
        second = heap.allocate(8192)
        assert first.tier == "local"
        assert second.tier == "cpuless-numa"

    def test_prefer_tier_hint(self):
        env = Environment()
        _, _, heap = make_heap(env)
        pointer = heap.allocate(4096, prefer_tier="cpuless-numa")
        assert pointer.tier == "cpuless-numa"

    def test_exhaustion_raises(self):
        env = Environment()
        _, _, heap = make_heap(env, local_size=8192, remote_size=8192)
        heap.allocate(8192)
        heap.allocate(8192)
        with pytest.raises(HeapError):
            heap.allocate(64)
        assert heap.failed_allocations == 1

    def test_free_makes_space(self):
        env = Environment()
        _, _, heap = make_heap(env, local_size=8192)
        pointer = heap.allocate(8192)
        heap.free(pointer)
        assert not pointer.valid
        replacement = heap.allocate(8192)
        assert replacement.tier == "local"

    def test_use_after_free_raises(self):
        env = Environment()
        _, _, heap = make_heap(env)
        pointer = heap.allocate(64)
        heap.free(pointer)

        def go():
            yield from pointer.read()

        with pytest.raises(HeapError):
            run(env, go())


class TestSmartPointerAccess:
    def test_remote_object_costs_more_than_local(self):
        env = Environment()
        _, _, heap = make_heap(env)
        local = heap.allocate(4096, prefer_tier="local")
        remote = heap.allocate(4096, prefer_tier="cpuless-numa")

        def go():
            start = env.now
            yield from local.read(0)
            local_cost = env.now - start
            start = env.now
            yield from remote.read(0)
            remote_cost = env.now - start
            return local_cost, remote_cost

        local_cost, remote_cost = run(env, go())
        assert remote_cost > 5 * local_cost

    def test_out_of_bounds_access_rejected(self):
        env = Environment()
        _, _, heap = make_heap(env)
        pointer = heap.allocate(128)

        def go():
            yield from pointer.read(offset=100, nbytes=64)

        with pytest.raises(HeapError):
            run(env, go())

    def test_access_records_temperature(self):
        env = Environment()
        _, _, heap = make_heap(env)
        pointer = heap.allocate(64)

        def go():
            for _ in range(5):
                yield from pointer.read()
            # Read immediately: the decay loop keeps cooling afterwards.
            return heap.profiler.temperature(pointer.oid)

        temperature = run(env, go())
        # Five accesses, minus whatever the decay epochs cooled off.
        assert temperature > 1.0


class TestMigration:
    def test_migrate_moves_object_and_pointer_follows(self):
        env = Environment()
        _, _, heap = make_heap(env)
        pointer = heap.allocate(4096, prefer_tier="cpuless-numa")

        def go():
            moved = yield from heap.migrate(pointer.oid,
                                            heap.bins["local"])
            assert moved
            start = env.now
            yield from pointer.read()
            return env.now - start

        latency = run(env, go())
        assert pointer.tier == "local"
        # A fresh local access is far below the remote 1575ns even cold.
        assert latency < 300

    def test_pinned_object_never_migrates(self):
        env = Environment()
        _, _, heap = make_heap(env)
        pointer = heap.allocate(64, prefer_tier="cpuless-numa",
                                pinned=True)

        def go():
            moved = yield from heap.migrate(pointer.oid,
                                            heap.bins["local"])
            return moved

        assert run(env, go()) is False

    def test_migrate_to_full_bin_fails_gracefully(self):
        env = Environment()
        _, _, heap = make_heap(env, local_size=8192)
        heap.allocate(8192, prefer_tier="local")
        remote = heap.allocate(8192, prefer_tier="cpuless-numa")

        def go():
            moved = yield from heap.migrate(remote.oid,
                                            heap.bins["local"])
            return moved

        assert run(env, go()) is False


class TestProfilerDecay:
    def test_temperature_decays_over_time(self):
        env = Environment()
        profiler = AccessProfiler(env, epoch_ns=1_000.0, decay=0.5)
        profiler.record(7, weight=8.0)
        env.run(until=3_500)
        assert profiler.temperature(7) == pytest.approx(1.0)

    def test_cold_entries_garbage_collected(self):
        env = Environment()
        profiler = AccessProfiler(env, epoch_ns=100.0, decay=0.1)
        profiler.record(7)
        env.run(until=1_000)
        assert profiler.temperature(7) == 0.0

    def test_validation(self):
        env = Environment()
        with pytest.raises(ValueError):
            AccessProfiler(env, decay=1.5)


class TestHeapRuntime:
    def test_hot_remote_object_promoted(self):
        env = Environment()
        _, _, heap = make_heap(env)
        runtime = HeapRuntime(env, heap, local_bin="local",
                              interval_ns=5_000.0, promote_threshold=4.0)
        runtime.start()
        hot = heap.allocate(4096, prefer_tier="cpuless-numa")

        def go():
            for _ in range(100):
                yield from hot.read()
                yield env.timeout(500.0)

        run(env, go())
        assert hot.tier == "local"
        assert runtime.promotions >= 1

    def test_cold_objects_demoted_to_make_room(self):
        env = Environment()
        _, _, heap = make_heap(env, local_size=8192)
        runtime = HeapRuntime(env, heap, local_bin="local",
                              interval_ns=5_000.0,
                              promote_threshold=4.0,
                              demote_threshold=1.0)
        runtime.start()
        cold = heap.allocate(8192, prefer_tier="local")   # fills local
        hot = heap.allocate(4096, prefer_tier="cpuless-numa")

        def go():
            for _ in range(200):
                yield from hot.read()
                yield env.timeout(300.0)

        run(env, go())
        assert hot.tier == "local"
        assert cold.tier == "cpuless-numa"
        assert runtime.demotions >= 1

    def test_threshold_validation(self):
        env = Environment()
        _, _, heap = make_heap(env)
        with pytest.raises(ValueError):
            HeapRuntime(env, heap, local_bin="local",
                        promote_threshold=1.0, demote_threshold=2.0)
