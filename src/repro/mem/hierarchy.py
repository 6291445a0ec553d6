"""The host memory system: cache hierarchy over local + fabric memory.

Ties together section 3's difference #1 (synchronous execution: a
load stalls until the hierarchy answers) and the paper's observation
that "the host-side caching structure ... transparently accelerates
memory fabric performance": remote FAM lines are cached in the same
L1/L2/LLC as local lines, so locality hides fabric latency.

Latency calibration: a hit at level X charges Table 2's *total* latency
for X (the calibrated numbers subsume lookup costs of the levels above).
Backends are pluggable callables so the same hierarchy runs over a flat
latency model, a contended DRAM device, or the full flit-level fabric.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Generator, List, Optional, Tuple

from .. import params
from ..sim import Environment, Event
from .cache import CacheConfig, SetAssociativeCache, VictimBuffer

__all__ = ["AddressMap", "Region", "HostMemorySystem", "default_cache_configs"]

#: backend signature: (addr, nbytes, is_write) -> generator charging time
#: (backends may additionally accept a keyword-only ``trace`` causal
#: context; plain three-argument backends keep working unchanged)
Backend = Callable[[int, int, bool], Generator[Event, None, None]]


@dataclasses.dataclass(frozen=True)
class Region:
    """One range of the host physical address space."""

    start: int
    size: int
    name: str
    backend: Backend
    is_remote: bool = False

    @property
    def end(self) -> int:
        return self.start + self.size

    def contains(self, addr: int) -> bool:
        return self.start <= addr < self.end


class AddressMap:
    """Sorted, non-overlapping regions of the physical address space."""

    def __init__(self) -> None:
        self._regions: List[Region] = []

    def add(self, region: Region) -> None:
        for existing in self._regions:
            if region.start < existing.end and existing.start < region.end:
                raise ValueError(
                    f"region {region.name!r} overlaps {existing.name!r}")
        self._regions.append(region)
        self._regions.sort(key=lambda r: r.start)

    def resolve(self, addr: int) -> Region:
        for region in self._regions:
            if region.contains(addr):
                return region
        raise KeyError(f"address {addr:#x} unmapped")

    def regions(self) -> List[Region]:
        return list(self._regions)

    @property
    def span(self) -> int:
        return self._regions[-1].end if self._regions else 0


def default_cache_configs() -> Tuple[CacheConfig, CacheConfig, CacheConfig]:
    """L1/L2/LLC geometry + Table 2 hit latencies."""
    l1 = CacheConfig(name="l1", size_bytes=params.L1_SIZE_BYTES,
                     assoc=params.L1_ASSOC,
                     read_ns=params.L1_READ_NS, write_ns=params.L1_WRITE_NS)
    l2 = CacheConfig(name="l2", size_bytes=params.L2_SIZE_BYTES,
                     assoc=params.L2_ASSOC,
                     read_ns=params.L2_READ_NS, write_ns=params.L2_WRITE_NS)
    llc = CacheConfig(name="llc", size_bytes=params.LLC_SIZE_BYTES,
                      assoc=params.LLC_ASSOC,
                      read_ns=params.LLC_HIT_NS, write_ns=params.LLC_HIT_NS)
    return l1, l2, llc


class HostMemorySystem:
    """L1 -> L2 -> LLC -> {local DRAM | fabric} with write-back evictions."""

    def __init__(self, env: Environment,
                 address_map: AddressMap,
                 cache_configs: Optional[Tuple[CacheConfig, ...]] = None,
                 victim_entries: int = params.VICTIM_BUFFER_ENTRIES,
                 name: str = "host-mem") -> None:
        self.env = env
        self.name = name
        self.address_map = address_map
        configs = cache_configs or default_cache_configs()
        self.levels: List[SetAssociativeCache] = [
            SetAssociativeCache(config) for config in configs]
        self.victim_buffer = VictimBuffer(victim_entries)
        self.accesses = 0
        self.remote_accesses = 0
        self.level_hits = {cache.config.name: 0 for cache in self.levels}
        self.backend_hits = {"local": 0, "remote": 0}
        self._partitioned_regions: set = set()

    # -- cache partitioning (DP#1) -----------------------------------------

    def partition_region(self, region_name: str, ways: int) -> None:
        """Cap one region's cache footprint to ``ways`` ways per set.

        The DP#1 optimization: a streaming region (e.g. a bulk-scanned
        FAM range) is confined so it cannot thrash the working set of
        everything else.
        """
        for cache in self.levels:
            cache.set_partition(region_name,
                                min(ways, cache.config.assoc))
        self._partitioned_regions.add(region_name)

    # -- the access path -----------------------------------------------------

    def access(self, addr: int, is_write: bool = False,
               nbytes: int = params.CACHELINE_BYTES,
               trace=None) -> Generator[Event, None, str]:
        """One load/store; returns the level that served it.

        ``trace`` is an optional causal trace context; it is forwarded
        to trace-aware backends so a heap-rooted transaction keeps its
        identity down into the fabric.
        """
        self.accesses += 1
        way_class = None
        if self._partitioned_regions:
            try:
                region_name = self.address_map.resolve(addr).name
            except KeyError:
                region_name = None
            if region_name in self._partitioned_regions:
                way_class = region_name
        for cache in self.levels:
            result = cache.access(addr, is_write, way_class=way_class)
            if result.hit:
                self.level_hits[cache.config.name] += 1
                config = cache.config
                yield self.env.timeout(
                    config.write_ns if is_write else config.read_ns)
                return config.name
            self._handle_eviction(result.evicted_dirty_line)
        # Miss everywhere: go to the backend region.
        region = self.address_map.resolve(addr)
        if region.is_remote:
            self.remote_accesses += 1
            self.backend_hits["remote"] += 1
        else:
            self.backend_hits["local"] += 1
        if trace is None:
            yield from region.backend(addr - region.start, nbytes, is_write)
        else:
            try:
                chain = region.backend(addr - region.start, nbytes,
                                       is_write, trace=trace)
            except TypeError:
                # A plain three-argument backend (flat latency models,
                # test doubles): run it untraced.
                chain = region.backend(addr - region.start, nbytes,
                                       is_write)
            yield from chain
        return "remote" if region.is_remote else "local"

    def _handle_eviction(self, line_addr: Optional[int]) -> None:
        """Queue a dirty eviction; drain asynchronously via the backend."""
        if line_addr is None:
            return
        overflow = self.victim_buffer.push(line_addr)
        drained = overflow if overflow is not None \
            else self.victim_buffer.drain_one()
        if drained is not None:
            self.env.process(self._writeback(drained),
                             name=f"{self.name}.wb")

    def _writeback(self, line_addr: int) -> Generator[Event, None, None]:
        try:
            region = self.address_map.resolve(line_addr)
        except KeyError:
            return  # line from a region that was since unmapped
        yield from region.backend(line_addr - region.start,
                                  params.CACHELINE_BYTES, True)

    # -- coherence hooks (used by the host adapter on snoops) ------------------

    def invalidate(self, addr: int) -> bool:
        """Snoop-invalidate ``addr`` in every level; True if dirty."""
        dirty = False
        for cache in self.levels:
            dirty |= cache.invalidate(addr)
        return dirty

    def flush(self) -> List[int]:
        """Drop all cached lines; returns dirty line addresses."""
        dirty: List[int] = []
        for cache in self.levels:
            dirty.extend(cache.flush_all())
        return sorted(set(dirty))

    # -- stats -----------------------------------------------------------------

    def hit_rate(self, level: str) -> float:
        return self.level_hits[level] / self.accesses if self.accesses else 0.0
