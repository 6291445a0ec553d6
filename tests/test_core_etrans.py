"""Tests for elastic transactions and the movement service (DP#1)."""

import pytest

from repro.core import ETrans, MovementOrchestrator, SequentialPrefetcher
from repro.core.etrans import _paired_extents
from repro.infra import ClusterSpec, build_cluster
from repro.sim import Environment


def setup_host(env, **orch_kw):
    cluster = build_cluster(env, ClusterSpec(hosts=1))
    orchestrator = MovementOrchestrator(env, **orch_kw)
    host = cluster.host(0)
    engine = orchestrator.attach_host(host)
    return cluster, host, engine, orchestrator


def run(env, gen, horizon=500_000_000):
    proc = env.process(gen)
    env.run(until=env.now + horizon)
    assert proc.triggered
    if not proc.ok:
        raise proc.value
    return proc.value


class TestETransValidation:
    def test_byte_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ETrans(src_list=[(0, 128)], dst_list=[(0x1000, 64)])

    def test_empty_lists_rejected(self):
        with pytest.raises(ValueError):
            ETrans(src_list=[], dst_list=[(0, 64)])

    def test_bad_ownership_rejected(self):
        with pytest.raises(ValueError):
            ETrans(src_list=[(0, 64)], dst_list=[(64, 64)],
                   ownership="nobody")

    def test_empty_extent_rejected(self):
        with pytest.raises(ValueError):
            ETrans(src_list=[(0, 0)], dst_list=[(0, 0)])

    def test_priority_from_attributes(self):
        trans = ETrans(src_list=[(0, 64)], dst_list=[(64, 64)],
                       attributes={"priority": 1})
        assert trans.priority == 1


class TestPairedExtents:
    def test_equal_extents(self):
        pairs = _paired_extents([(0, 128)], [(0x1000, 128)])
        assert pairs == [(0, 0x1000, 128)]

    def test_scatter_to_gather(self):
        pairs = _paired_extents([(0, 64), (0x200, 64)], [(0x1000, 128)])
        assert pairs == [(0, 0x1000, 64), (0x200, 0x1040, 64)]

    def test_mismatched_boundaries(self):
        pairs = _paired_extents([(0, 100), (0x200, 28)],
                                [(0x1000, 64), (0x2000, 64)])
        assert sum(n for _, _, n in pairs) == 128
        assert pairs[0] == (0, 0x1000, 64)


class TestImmediateExecution:
    def test_local_to_remote_copy_completes(self):
        env = Environment()
        cluster, host, engine, orch = setup_host(env)
        base = host.remote_base("fam0")
        trans = ETrans(src_list=[(0x10000, 4096)],
                       dst_list=[(base + 0x0, 4096)],
                       immediate=True)

        def go():
            handle = engine.submit(trans)
            yield handle.wait()
            return handle

        handle = run(env, go())
        assert handle.completed
        assert handle.latency_ns > 0
        assert orch.bytes_moved == 4096
        assert engine.immediate_count == 1

    def test_silent_ownership_returns_no_handle(self):
        env = Environment()
        _, host, engine, orch = setup_host(env)
        trans = ETrans(src_list=[(0, 64)], dst_list=[(0x5000, 64)],
                       immediate=True, ownership="silent")
        handle = engine.submit(trans)
        assert handle is None
        env.run(until=1_000_000)
        assert orch.bytes_moved == 64

    def test_agent_ownership_fires_callback(self):
        env = Environment()
        _, host, engine, _ = setup_host(env)
        fired = []
        trans = ETrans(src_list=[(0, 64)], dst_list=[(0x5000, 64)],
                       immediate=True, ownership="agent",
                       callback=fired.append)
        engine.submit(trans)
        env.run(until=1_000_000)
        assert fired and fired[0] is trans


class TestDelegatedExecution:
    def test_delegated_runs_on_agent(self):
        env = Environment()
        _, host, engine, orch = setup_host(env)
        trans = ETrans(src_list=[(0, 1024)], dst_list=[(0x8000, 1024)])

        def go():
            handle = engine.submit(trans)
            yield handle.wait()

        run(env, go())
        assert engine.delegated_count == 1
        assert orch.agent(host.name).executed == 1

    def test_priority_ordering_on_agent(self):
        env = Environment()
        _, host, engine, orch = setup_host(env)
        order = []

        def make(name, priority):
            return ETrans(src_list=[(0, 64 * 1024)],
                          dst_list=[(0x100000, 64 * 1024)],
                          ownership="agent",
                          attributes={"priority": priority},
                          callback=lambda t, n=name: order.append(n))

        # Submit a bulk transfer, then while it runs, queue a low- and
        # a high-priority one; the high-priority must run first.
        engine.submit(make("first", 5))
        engine.submit(make("bulk", 9))
        engine.submit(make("urgent", 0))
        env.run(until=500_000_000)
        # All three are queued before the agent starts: strict
        # priority order wins regardless of submission order.
        assert order == ["urgent", "first", "bulk"]

    def test_traffic_matrix_records_src_dst_regions(self):
        env = Environment()
        _, host, engine, orch = setup_host(env)
        base = host.remote_base("fam0")
        trans = ETrans(src_list=[(0x10000, 256)],
                       dst_list=[(base, 256)], immediate=True)

        def go():
            handle = engine.submit(trans)
            yield handle.wait()

        run(env, go())
        assert orch.traffic_matrix == {("host0.dram", "fam0"): 256}
        assert "host0.dram" in orch.format_traffic_matrix()


def transfer_ns(bw, nbytes=256 * 1024):
    """Sim time one immediate ``nbytes`` copy takes under budget ``bw``."""
    env = Environment()
    _, host, engine, _ = setup_host(env, remote_bw_bytes_per_us=bw)
    trans = ETrans(src_list=[(0, nbytes)],
                   dst_list=[(0x100000, nbytes)], immediate=True)

    def go():
        start = env.now
        handle = engine.submit(trans)
        yield handle.wait()
        return env.now - start

    return run(env, go())


class TestThrottling:
    def test_bandwidth_cap_slows_transfer(self):
        fast = transfer_ns(1_000_000.0)
        slow = transfer_ns(1_000.0)
        assert slow > 2 * fast

    @pytest.mark.parametrize("bw", [1_000.0, 100.0])
    def test_transfer_time_bounded_by_bucket(self, bw):
        # The bucket starts with burst_bytes of tokens, so the rest of
        # the transfer must wait for refill; the copy itself overlaps
        # the waits, so the total is at most refill time + unthrottled.
        nbytes = 256 * 1024
        refill_ns = (nbytes - 64 * 1024) / (bw / 1000.0)
        elapsed = transfer_ns(bw, nbytes)
        assert refill_ns <= elapsed <= refill_ns + transfer_ns(None, nbytes)

    def test_idle_budget_schedules_no_events(self):
        env = Environment()
        setup_host(env, remote_bw_bytes_per_us=1_000.0)
        env.run(until=1.0)   # start-up processes reach their first wait
        settled = env.stats["events_processed"]
        env.run(until=1.0 + 1e9)
        assert env.stats["events_processed"] == settled

    def test_same_instant_chunks_admit_in_call_order(self):
        env = Environment()
        _, host, _, orch = setup_host(env, remote_bw_bytes_per_us=1_000.0,
                                      burst_bytes=4096)
        admitted = []

        def chunk(label, nbytes):
            yield from orch.admit(host, nbytes)
            admitted.append((label, env.now))

        def go():
            yield from orch.admit(host, 4096)   # drain the bucket
            first = env.process(chunk("big", 4096))
            second = env.process(chunk("small", 64))
            yield first
            yield second

        run(env, go())
        assert [label for label, _ in admitted] == ["big", "small"]

    def test_duplicate_host_attach_rejected(self):
        env = Environment()
        cluster = build_cluster(env, ClusterSpec(hosts=1))
        orch = MovementOrchestrator(env)
        orch.attach_host(cluster.host(0))
        with pytest.raises(ValueError):
            orch.attach_host(cluster.host(0))


class TestPrefetcher:
    def test_strided_stream_gets_prefetched(self):
        env = Environment()
        cluster = build_cluster(env, ClusterSpec(hosts=1))
        host = cluster.host(0)
        prefetcher = SequentialPrefetcher(env, host, depth=8)
        base = host.remote_base("fam0")
        latencies = []

        def go():
            for i in range(64):
                addr = base + i * 64
                prefetcher.observe(addr)
                start = env.now
                yield from host.mem.access(addr, False)
                latencies.append(env.now - start)

        run(env, go())
        assert prefetcher.prefetches_issued > 0
        # The tail of the stream should mostly hit in cache.
        tail = latencies[16:]
        hits = sum(1 for latency in tail if latency < 50)
        assert hits > len(tail) // 2

    def test_random_stream_not_prefetched(self):
        env = Environment()
        cluster = build_cluster(env, ClusterSpec(hosts=1))
        host = cluster.host(0)
        prefetcher = SequentialPrefetcher(env, host)
        import random        # fcc: allow[seeded-rng]
        rng = random.Random(7)   # fcc: allow[seeded-rng]  (explicit seed)
        for _ in range(50):
            prefetcher.observe(rng.randrange(0, 1 << 20, 64))
        assert prefetcher.prefetches_issued == 0

    def test_validation(self):
        env = Environment()
        with pytest.raises(ValueError):
            SequentialPrefetcher(env, None, depth=0)
