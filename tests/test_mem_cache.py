"""Tests for the set-associative cache and victim buffer."""

import pytest

from repro.mem import (AddressMap, CacheConfig, HostMemorySystem, Region,
                       SetAssociativeCache, VictimBuffer)
from repro.sim import Environment


def small_cache(assoc=2, sets=4, line=64):
    return SetAssociativeCache(CacheConfig(
        name="test", size_bytes=assoc * sets * line, assoc=assoc,
        line_bytes=line))


class TestConfig:
    def test_num_sets(self):
        config = CacheConfig(name="c", size_bytes=32 * 1024, assoc=8)
        assert config.num_sets == 64

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            CacheConfig(name="c", size_bytes=100, assoc=3)
        with pytest.raises(ValueError):
            CacheConfig(name="c", size_bytes=0, assoc=1)
        with pytest.raises(ValueError):
            CacheConfig(name="c", size_bytes=3 * 64 * 3, assoc=3)

    @pytest.mark.parametrize("field, value", [
        ("line_bytes", 0), ("line_bytes", -64),
        ("size_bytes", 0), ("assoc", -2)])
    def test_non_positive_field_named(self, field, value):
        kwargs = dict(name="l9", size_bytes=1024, assoc=2, line_bytes=64)
        kwargs[field] = value
        with pytest.raises(ValueError,
                           match=f"^l9: {field} must be positive, got "
                                 f"{value}$"):
            CacheConfig(**kwargs)


class TestLookup:
    def test_miss_then_hit(self):
        cache = small_cache()
        assert not cache.access(0x1000, False).hit
        assert cache.access(0x1000, False).hit
        assert cache.hits == 1 and cache.misses == 1

    def test_same_line_different_offset_hits(self):
        cache = small_cache()
        cache.access(0x1000, False)
        assert cache.access(0x1020, False).hit  # same 64B line

    def test_lru_eviction_order(self):
        cache = small_cache(assoc=2, sets=1)
        a, b, c = 0x000, 0x040, 0x080
        cache.access(a, False)
        cache.access(b, False)
        cache.access(a, False)      # a becomes MRU
        cache.access(c, False)      # evicts b (LRU)
        assert cache.probe(a)
        assert not cache.probe(b)
        assert cache.probe(c)

    def test_clean_eviction_reports_nothing(self):
        cache = small_cache(assoc=1, sets=1)
        cache.access(0x000, False)
        result = cache.access(0x040, False)
        assert result.evicted_dirty_line is None

    def test_dirty_eviction_reports_line_address(self):
        cache = small_cache(assoc=1, sets=1)
        cache.access(0x000, True)
        result = cache.access(0x040, False)
        assert result.evicted_dirty_line == 0x000
        assert cache.writebacks == 1

    def test_eviction_address_reconstruction_multi_set(self):
        cache = small_cache(assoc=1, sets=4)
        addr = 0x040 * 7  # set 3, tag 1
        cache.access(addr, True)
        conflicting = addr + 4 * 0x040 * 4
        result = cache.access(conflicting, False)
        assert result.evicted_dirty_line == (addr // 64) * 64

    def test_write_marks_dirty_on_hit(self):
        cache = small_cache(assoc=1, sets=1)
        cache.access(0x000, False)   # clean fill
        cache.access(0x000, True)    # dirty via hit
        result = cache.access(0x040, False)
        assert result.evicted_dirty_line == 0x000


class TestInvalidate:
    def test_invalidate_removes_line(self):
        cache = small_cache()
        cache.access(0x1000, False)
        assert cache.invalidate(0x1000) is False  # was clean
        assert not cache.probe(0x1000)

    def test_invalidate_dirty_returns_true(self):
        cache = small_cache()
        cache.access(0x1000, True)
        assert cache.invalidate(0x1000) is True

    def test_invalidate_absent_is_noop(self):
        cache = small_cache()
        assert cache.invalidate(0x9999) is False

    def test_flush_all_returns_dirty_lines(self):
        cache = small_cache(assoc=2, sets=2)
        cache.access(0x000, True)
        cache.access(0x040, False)
        cache.access(0x080, True)
        dirty = cache.flush_all()
        assert sorted(dirty) == [0x000, 0x080]
        assert cache.occupancy() == 0


class TestStats:
    def test_hit_rate(self):
        cache = small_cache()
        cache.access(0, False)
        cache.access(0, False)
        cache.access(0, False)
        assert cache.hit_rate == pytest.approx(2 / 3)

    def test_empty_hit_rate_zero(self):
        assert small_cache().hit_rate == 0.0


class TestVictimBuffer:
    def test_push_within_capacity(self):
        vb = VictimBuffer(entries=2)
        assert vb.push(0x40) is None
        assert vb.push(0x80) is None
        assert len(vb) == 2

    def test_overflow_returns_oldest(self):
        vb = VictimBuffer(entries=2)
        vb.push(0x40)
        vb.push(0x80)
        assert vb.push(0xC0) == 0x40
        assert vb.overflows == 1

    def test_drain_fifo(self):
        vb = VictimBuffer(entries=4)
        vb.push(1)
        vb.push(2)
        assert vb.drain_one() == 1
        assert vb.drain_one() == 2
        assert vb.drain_one() is None

    def test_invalid_entries(self):
        with pytest.raises(ValueError):
            VictimBuffer(entries=0)


class TestWayPartitioning:
    def test_partitioned_class_cannot_thrash_others(self):
        cache = small_cache(assoc=4, sets=1)
        cache.set_partition("stream", 1)
        # Resident working set: 3 lines of the unconstrained class.
        for addr in (0x000, 0x040, 0x080):
            cache.access(addr, False)
        # A long stream through the partitioned class...
        for i in range(20):
            cache.access(0x1000 + i * 64, False, way_class="stream")
        # ...must leave the resident lines untouched.
        assert cache.probe(0x000)
        assert cache.probe(0x040)
        assert cache.probe(0x080)

    def test_partition_evicts_own_class_lru(self):
        cache = small_cache(assoc=4, sets=1)
        cache.set_partition("s", 2)
        cache.access(0x000, False, way_class="s")
        cache.access(0x040, False, way_class="s")
        cache.access(0x080, False, way_class="s")   # evicts 0x000
        assert not cache.probe(0x000)
        assert cache.probe(0x040) and cache.probe(0x080)

    def test_unpartitioned_class_uses_global_lru(self):
        cache = small_cache(assoc=2, sets=1)
        cache.set_partition("s", 1)
        cache.access(0x000, False)                   # unconstrained
        cache.access(0x040, False)                   # unconstrained
        cache.access(0x080, False)                   # evicts 0x000
        assert not cache.probe(0x000)

    def test_partition_validation(self):
        cache = small_cache(assoc=2, sets=1)
        with pytest.raises(ValueError,
                           match=r"^test: ways must be in \[1, 2\], got 0$"):
            cache.set_partition("s", 0)
        with pytest.raises(ValueError, match=r"^test: .*got 3$"):
            cache.set_partition("s", 3)

    def test_dirty_partition_victim_reports_writeback(self):
        cache = small_cache(assoc=4, sets=1)
        cache.set_partition("s", 1)
        cache.access(0x000, True, way_class="s")
        result = cache.access(0x040, False, way_class="s")
        assert result.evicted_dirty_line == 0x000


class TestLazySets:
    """The tag array allocates a set on its first fill, never before."""

    @staticmethod
    def allocated(cache):
        return len(cache._sets)

    def default_host(self):
        env = Environment()

        def backend(addr, nbytes, is_write):
            yield env.timeout(1)

        amap = AddressMap()
        amap.add(Region(start=0, size=1 << 30, name="dram", backend=backend))
        return HostMemorySystem(env, amap)

    def test_fresh_default_hierarchy_allocates_no_sets(self):
        mem = self.default_host()
        assert [c.config.num_sets for c in mem.levels] == [64, 1024, 32768]
        assert [self.allocated(c) for c in mem.levels] == [0, 0, 0]

    def test_read_only_operations_allocate_nothing(self):
        mem = self.default_host()
        for addr in range(0, 1 << 22, 4096 + 64):
            assert mem.invalidate(addr) is False
            for cache in mem.levels:
                assert not cache.probe(addr)
        assert mem.flush() == []
        for cache in mem.levels:
            assert self.allocated(cache) == 0
            assert cache.occupancy() == 0
            assert cache.hits == cache.misses == 0

    @pytest.mark.parametrize("stride", [64, 64 * 64, 64 * 1024 + 64])
    def test_fills_allocate_at_most_one_set_each(self, stride):
        cache = small_cache(assoc=4, sets=1024)
        for n in range(1, 300):
            cache.access(n * stride, n % 3 == 0)
            assert self.allocated(cache) <= n
        assert cache.occupancy() <= self.allocated(cache) * 4
        cache.flush_all()
        assert self.allocated(cache) == 0
