"""The host-assisted, node-type-conscious unified heap (DP#2).

UniFabric "instantiates memory regions/segments from different
fabric-attached memory nodes as a series of various-sized memory bins,
and then uses a heap manager for object allocation and reclamation"
(section 4).  Under the hood a runtime system profiles object access
characteristics and migrates objects across memory nodes by
temperature; developers only ever hold backward-compatible
smart pointers, so migration is transparent.

Pieces:

* :class:`FreeList` — a first-fit allocator with coalescing, one per bin;
* :class:`MemoryBin` — a segment of one memory node (a *tier*);
* :class:`UnifiedHeap` — allocation/reclamation + the object table that
  makes smart pointers stable across migration;
* :class:`SmartPointer` — the application-facing handle;
* :class:`AccessProfiler` — per-object temperature with periodic decay;
* :class:`HeapRuntime` — the migration policy loop (promote hot remote
  objects into local memory, demote cold local ones to make room),
  executing moves as delegated elastic transactions.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Dict, Generator, List, Optional, Tuple

from .. import params
from ..sim import Environment, Event, Resource
from ..telemetry import span
from ..telemetry.core import QUEUEING, ROOT
from .etrans import ETrans

__all__ = ["FreeList", "MemoryBin", "HeapObject", "SmartPointer",
           "AccessProfiler", "UnifiedHeap", "HeapRuntime", "HeapError"]


class HeapError(Exception):
    """Allocation/reclamation misuse or exhaustion."""


class FreeList:
    """First-fit allocator with address-ordered coalescing."""

    def __init__(self, start: int, size: int,
                 align: int = params.CACHELINE_BYTES) -> None:
        if size <= 0:
            raise ValueError(f"size must be > 0, got {size}")
        if align <= 0 or (align & (align - 1)):
            raise ValueError(f"align must be a power of two, got {align}")
        self.start = start
        self.size = size
        self.align = align
        self._free: List[Tuple[int, int]] = [(start, size)]  # (addr, size)
        self.allocated_bytes = 0

    def _round(self, nbytes: int) -> int:
        return -(-nbytes // self.align) * self.align

    def allocate(self, nbytes: int) -> int:
        """Return the address of a block or raise :class:`HeapError`."""
        if nbytes <= 0:
            raise ValueError(f"nbytes must be > 0, got {nbytes}")
        need = self._round(nbytes)
        for index, (addr, size) in enumerate(self._free):
            if size >= need:
                if size == need:
                    self._free.pop(index)
                else:
                    self._free[index] = (addr + need, size - need)
                self.allocated_bytes += need
                return addr
        raise HeapError(f"no block of {need} bytes free "
                        f"({self.free_bytes} fragmented bytes left)")

    def free(self, addr: int, nbytes: int) -> None:
        """Release a block; coalesces with neighbours."""
        need = self._round(nbytes)
        if not self.start <= addr < self.start + self.size:
            raise HeapError(f"address {addr:#x} outside this free list")
        for existing_addr, existing_size in self._free:
            if addr < existing_addr + existing_size \
                    and existing_addr < addr + need:
                raise HeapError(f"double free at {addr:#x}")
        self._free.append((addr, need))
        self._free.sort()
        merged: List[Tuple[int, int]] = []
        for block_addr, block_size in self._free:
            if merged and merged[-1][0] + merged[-1][1] == block_addr:
                merged[-1] = (merged[-1][0], merged[-1][1] + block_size)
            else:
                merged.append((block_addr, block_size))
        self._free = merged
        self.allocated_bytes -= need

    @property
    def free_bytes(self) -> int:
        return sum(size for _, size in self._free)

    def largest_free_block(self) -> int:
        return max((size for _, size in self._free), default=0)


@dataclasses.dataclass
class MemoryBin:
    """A segment of one memory node, exposed to the heap as a tier."""

    name: str
    tier: str                 # "local", "cpuless-numa", "cc-numa", ...
    freelist: FreeList
    is_remote: bool

    @property
    def free_bytes(self) -> int:
        return self.freelist.free_bytes


_oids = itertools.count()


@dataclasses.dataclass
class HeapObject:
    """Heap-internal record; applications hold SmartPointers instead."""

    oid: int
    size: int
    bin: MemoryBin
    addr: int
    pinned: bool = False
    migrations: int = 0


class SmartPointer:
    """A stable handle to a heap object; survives migration.

    ``read``/``write`` are process-style generators charging the real
    access cost of wherever the object currently lives.
    """

    def __init__(self, heap: "UnifiedHeap", oid: int) -> None:
        self._heap = heap
        self.oid = oid

    @property
    def valid(self) -> bool:
        return self.oid in self._heap._objects

    @property
    def tier(self) -> str:
        return self._heap._lookup(self.oid).bin.tier

    @property
    def size(self) -> int:
        return self._heap._lookup(self.oid).size

    def read(self, offset: int = 0,
             nbytes: int = params.CACHELINE_BYTES
             ) -> Generator[Event, None, None]:
        yield from self._heap.access(self.oid, offset, nbytes, False)

    def write(self, offset: int = 0,
              nbytes: int = params.CACHELINE_BYTES
              ) -> Generator[Event, None, None]:
        yield from self._heap.access(self.oid, offset, nbytes, True)

    def __repr__(self) -> str:
        where = self.tier if self.valid else "freed"
        return f"<SmartPointer oid={self.oid} {where}>"


class AccessProfiler:
    """Per-object temperature: access counts with periodic decay."""

    def __init__(self, env: Environment, epoch_ns: float = 10_000.0,
                 decay: float = 0.5) -> None:
        if not 0.0 <= decay < 1.0:
            raise ValueError(f"decay must be in [0, 1), got {decay}")
        self.env = env
        self.epoch_ns = epoch_ns
        self.decay = decay
        self._temperature: Dict[int, float] = {}
        env.process(self._decay_loop(), name="profiler.decay", daemon=True)

    def record(self, oid: int, weight: float = 1.0) -> None:
        self._temperature[oid] = self._temperature.get(oid, 0.0) + weight

    def temperature(self, oid: int) -> float:
        return self._temperature.get(oid, 0.0)

    def forget(self, oid: int) -> None:
        self._temperature.pop(oid, None)

    def _decay_loop(self) -> Generator[Event, None, None]:
        while True:
            yield self.env.timeout(self.epoch_ns)
            for oid in list(self._temperature):
                cooled = self._temperature[oid] * self.decay
                if cooled < 0.01:
                    del self._temperature[oid]
                else:
                    self._temperature[oid] = cooled


class UnifiedHeap:
    """Object allocation over bins carved from every memory node."""

    def __init__(self, env: Environment, host, engine,
                 profiler: Optional[AccessProfiler] = None) -> None:
        self.env = env
        self.host = host
        self.engine = engine
        self.profiler = profiler or AccessProfiler(env)
        self.bins: Dict[str, MemoryBin] = {}
        self._objects: Dict[int, HeapObject] = {}
        self._locks: Dict[int, Resource] = {}
        self.allocations = 0
        self.failed_allocations = 0
        # Telemetry: per-bin placement mix is probed by the sampler;
        # access/migration counts update on the data path behind one
        # is-None branch.
        self._tel = tel = env.telemetry
        if tel is not None:
            registry = tel.registry
            self._m_allocations = registry.counter("heap.allocations")
            self._m_accesses = registry.counter("heap.accesses")
            self._m_migrations = registry.counter("heap.migrations")

    # -- bins -----------------------------------------------------------------

    def add_bin(self, name: str, start: int, size: int, tier: str,
                is_remote: bool) -> MemoryBin:
        if name in self.bins:
            raise HeapError(f"bin {name!r} already exists")
        memory_bin = MemoryBin(name=name, tier=tier,
                               freelist=FreeList(start, size),
                               is_remote=is_remote)
        self.bins[name] = memory_bin
        if self._tel is not None:
            # The placement mix: bytes resident per bin over time,
            # one series per host (every host's heap has a fam0 bin).
            self._tel.add_probe(
                f"heap.{self.host.name}.bin.{name}.allocated_bytes",
                lambda b=memory_bin: b.freelist.allocated_bytes,
                track="heap")
        return memory_bin

    def bins_by_preference(self, prefer_tier: Optional[str]) -> List[MemoryBin]:
        """Preferred tier first, then local, then remote bins."""
        ordered = sorted(self.bins.values(),
                         key=lambda b: (b.tier != prefer_tier, b.is_remote,
                                        b.name))
        return ordered

    # -- allocation --------------------------------------------------------------

    def allocate(self, size: int,
                 prefer_tier: Optional[str] = None,
                 pinned: bool = False) -> SmartPointer:
        for memory_bin in self.bins_by_preference(prefer_tier):
            try:
                addr = memory_bin.freelist.allocate(size)
            except HeapError:
                continue
            oid = next(_oids)
            self._objects[oid] = HeapObject(oid=oid, size=size,
                                            bin=memory_bin, addr=addr,
                                            pinned=pinned)
            self._locks[oid] = Resource(self.env)
            self.allocations += 1
            if self._tel is not None:
                self._m_allocations.inc(time=self.env.now)
            return SmartPointer(self, oid)
        self.failed_allocations += 1
        raise HeapError(f"no bin can hold {size} bytes")

    def free(self, pointer: SmartPointer) -> None:
        obj = self._lookup(pointer.oid)
        obj.bin.freelist.free(obj.addr, obj.size)
        del self._objects[obj.oid]
        del self._locks[obj.oid]
        self.profiler.forget(obj.oid)

    def _lookup(self, oid: int) -> HeapObject:
        try:
            return self._objects[oid]
        except KeyError:
            raise HeapError(f"object {oid} is not live") from None

    def object_of(self, pointer: SmartPointer) -> HeapObject:
        return self._lookup(pointer.oid)

    def live_objects(self) -> List[HeapObject]:
        return list(self._objects.values())

    # -- access ---------------------------------------------------------------

    def access(self, oid: int, offset: int, nbytes: int,
               is_write: bool) -> Generator[Event, None, None]:
        obj = self._lookup(oid)
        if offset < 0 or offset + nbytes > obj.size:
            raise HeapError(
                f"access [{offset}, {offset + nbytes}) outside object "
                f"of {obj.size} bytes")
        if self._tel is not None:
            self._m_accesses.inc(time=self.env.now)
        # Heap accesses and migrations are transaction roots (sampled);
        # the context then rides down through the memory hierarchy
        # into the fabric.
        tel = self._tel
        context = tel.sample_root() if tel is not None else None
        if context is not None:
            route = f"heap:{obj.bin.name}"
            tel.begin("heap.write" if is_write else "heap.read", context,
                      track=route)
        with self._locks[oid].request() as grant:
            if context is not None:
                tel.wait("heap.lock", context, QUEUEING, grant)
            yield grant
            self.profiler.record(oid)
            yield from self.host.mem.access(obj.addr + offset, is_write,
                                            nbytes, trace=context)
        if context is not None:
            tel.end(ROOT, context)

    # -- migration -------------------------------------------------------------

    def migrate(self, oid: int,
                target_bin: MemoryBin) -> Generator[Event, None, bool]:
        """Move one object; returns False if it could not move."""
        obj = self._lookup(oid)
        if obj.pinned or obj.bin is target_bin:
            return False
        try:
            new_addr = target_bin.freelist.allocate(obj.size)
        except HeapError:
            return False
        tel = self._tel
        context = tel.sample_root() if tel is not None else None
        if context is not None:
            route = f"heap:{obj.bin.name}->{target_bin.name}"
            tel.begin("heap.migrate", context, track=route)
        with span(self.env, "heap.migrate", track="heap", oid=oid,
                  nbytes=obj.size, dst=target_bin.name):
            with self._locks[oid].request() as grant:
                if context is not None:
                    tel.wait("heap.lock", context, QUEUEING, grant)
                yield grant
                attributes = {"reason": "heap-migration"}
                if context is not None:
                    attributes["trace"] = context
                trans = ETrans(src_list=[(obj.addr, obj.size)],
                               dst_list=[(new_addr, obj.size)],
                               immediate=True, ownership="caller",
                               attributes=attributes)
                handle = self.engine.submit(trans)
                yield handle.wait()
                obj.bin.freelist.free(obj.addr, obj.size)
                obj.bin = target_bin
                obj.addr = new_addr
                obj.migrations += 1
            if self._tel is not None:
                self._m_migrations.inc(time=self.env.now)
        if context is not None:
            tel.end(ROOT, context)
        return True


class HeapRuntime:
    """The periodic promote/demote policy loop over a unified heap."""

    def __init__(self, env: Environment, heap: UnifiedHeap,
                 local_bin: str,
                 interval_ns: float = 20_000.0,
                 promote_threshold: float = 4.0,
                 demote_threshold: float = 0.5) -> None:
        if promote_threshold <= demote_threshold:
            raise ValueError("promote threshold must exceed demote")
        self.env = env
        self.heap = heap
        self.local_bin_name = local_bin
        self.interval_ns = interval_ns
        self.promote_threshold = promote_threshold
        self.demote_threshold = demote_threshold
        self.promotions = 0
        self.demotions = 0
        self._running = False

    def start(self) -> None:
        if not self._running:
            self._running = True
            self.env.process(self._loop(), name="heap-runtime", daemon=True)

    def _loop(self) -> Generator[Event, None, None]:
        while True:
            yield self.env.timeout(self.interval_ns)
            yield from self.rebalance_once()

    def rebalance_once(self) -> Generator[Event, None, None]:
        """One promote/demote pass."""
        with span(self.env, "heap.rebalance", track="heap"):
            local = self.heap.bins[self.local_bin_name]
            temperature = self.heap.profiler.temperature
            hot_remote = sorted(
                (obj for obj in self.heap.live_objects()
                 if obj.bin is not local and not obj.pinned
                 and temperature(obj.oid) >= self.promote_threshold),
                key=lambda o: -temperature(o.oid))
            for obj in hot_remote:
                if local.freelist.largest_free_block() < obj.size:
                    yield from self._make_room(local, obj.size)
                moved = yield from self.heap.migrate(obj.oid, local)
                if moved:
                    self.promotions += 1

    def _make_room(self, local: MemoryBin,
                   needed: int) -> Generator[Event, None, None]:
        temperature = self.heap.profiler.temperature
        cold_local = sorted(
            (obj for obj in self.heap.live_objects()
             if obj.bin is local and not obj.pinned
             and temperature(obj.oid) <= self.demote_threshold),
            key=lambda o: temperature(o.oid))
        for victim in cold_local:
            if local.freelist.largest_free_block() >= needed:
                return
            target = next(
                (b for b in self.heap.bins.values()
                 if b is not local
                 and b.freelist.largest_free_block() >= victim.size),
                None)
            if target is None:
                return
            moved = yield from self.heap.migrate(victim.oid, target)
            if moved:
                self.demotions += 1
