"""Set-associative cache model with LRU replacement and a victim buffer.

The host-side caching structure matters to the paper in two ways:
(1) it transparently accelerates memory-fabric accesses (difference #1),
and (2) its victim buffer generates the write-back traffic that makes
fabric writes visible to the application only as back-pressure.

The model is tag-only (no data is stored — the simulator moves latency,
not bytes) but otherwise behaves like hardware: write-back,
write-allocate, per-set LRU, and a finite victim buffer whose overflow
stalls the allocating access.

The tag array is sparse: a set is created on its first fill, so memory
follows the lines touched, not the geometry.  LRU order within a set is
dict order: a hit re-inserts its line last and the victim is the first key.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

from .. import params

__all__ = ["CacheConfig", "SetAssociativeCache", "AccessResult", "VictimBuffer"]


def _is_pow2(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


@dataclasses.dataclass(frozen=True)
class CacheConfig:
    """Geometry and timing of one cache level."""

    name: str
    size_bytes: int
    assoc: int
    line_bytes: int = params.CACHELINE_BYTES
    read_ns: float = 1.0
    write_ns: float = 1.0

    def __post_init__(self) -> None:
        for field in ("size_bytes", "assoc", "line_bytes"):
            if getattr(self, field) <= 0:
                raise ValueError(f"{self.name}: {field} must be positive, "
                                 f"got {getattr(self, field)}")
        if self.size_bytes % (self.assoc * self.line_bytes) != 0:
            raise ValueError(
                f"{self.name}: size {self.size_bytes} not divisible by "
                f"assoc*line ({self.assoc}*{self.line_bytes})")
        if not _is_pow2(self.num_sets):
            raise ValueError(f"{self.name}: set count must be a power of two")

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.assoc * self.line_bytes)


@dataclasses.dataclass(frozen=True)
class AccessResult:
    """Outcome of a cache lookup-and-fill."""

    hit: bool
    evicted_dirty_line: Optional[int] = None   # line address written back


_HIT, _CLEAN_MISS = AccessResult(hit=True), AccessResult(hit=False)


class SetAssociativeCache:
    """Tag array with per-set LRU, write-back + write-allocate.

    Supports *way partitioning* (the DP#1 optimization: "partitioning
    the cache based on memory access analyses"): a named class of
    accesses can be capped to a number of ways per set, so a streaming
    class cannot thrash the rest of the cache.
    """

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self._line_bytes = config.line_bytes
        self._num_sets = config.num_sets
        # set index -> {tag: (dirty, way_class)}, LRU first; filled sets only.
        self._sets: Dict[int, Dict[int, Tuple[bool, Optional[str]]]] = {}
        self._partitions: Dict[str, int] = {}
        self.hits = 0
        self.misses = 0
        self.writebacks = 0

    def set_partition(self, way_class: str, ways: int) -> None:
        """Cap ``way_class`` to ``ways`` ways of every set."""
        if not 1 <= ways <= self.config.assoc:
            raise ValueError(
                f"{self.config.name}: ways must be in "
                f"[1, {self.config.assoc}], got {ways}")
        self._partitions[way_class] = ways

    # -- address helpers ---------------------------------------------------

    def _line_addr(self, set_index: int, tag: int) -> int:
        return (tag * self._num_sets + set_index) * self._line_bytes

    # -- operations -----------------------------------------------------------

    def access(self, addr: int, is_write: bool,
               way_class: Optional[str] = None) -> AccessResult:
        """Look up ``addr``; on miss, allocate (possibly evicting).

        ``way_class`` names the partition this access belongs to; when
        the class is at its way quota in the set, the victim is the
        class's own LRU line instead of the global one.
        """
        tag, set_index = divmod(addr // self._line_bytes, self._num_sets)
        ways = self._sets.get(set_index)
        if ways is None:
            ways = self._sets[set_index] = {}
        elif tag in ways:
            self.hits += 1
            entry = ways.pop(tag)            # re-insert: now MRU
            ways[tag] = (True, entry[1]) if is_write else entry
            return _HIT
        self.misses += 1
        evicted = self._make_room(ways, set_index, way_class)
        ways[tag] = (is_write, way_class)
        return _CLEAN_MISS if evicted is None else AccessResult(False, evicted)

    def _make_room(self, ways: Dict[int, Tuple[bool, Optional[str]]],
                   set_index: int, way_class: Optional[str]) -> Optional[int]:
        """Evict from ``ways`` if needed; returns the dirty victim's line."""
        victim_tag = None
        quota = self._partitions.get(way_class) if way_class else None
        if quota is not None:
            class_tags = [t for t, (_, c) in ways.items() if c == way_class]
            if len(class_tags) >= quota:
                victim_tag = class_tags[0]   # class LRU (dict order)
        if victim_tag is None and len(ways) >= self.config.assoc:
            victim_tag = next(iter(ways))    # global LRU
        if victim_tag is None:
            return None
        victim_dirty, _ = ways.pop(victim_tag)
        if victim_dirty:
            self.writebacks += 1
            return self._line_addr(set_index, victim_tag)
        return None

    def probe(self, addr: int) -> bool:
        """Non-destructive presence check (no LRU update)."""
        tag, set_index = divmod(addr // self._line_bytes, self._num_sets)
        return tag in self._sets.get(set_index, ())

    def invalidate(self, addr: int) -> bool:
        """Drop a line (snoop-invalidate); returns True if it was dirty."""
        tag, set_index = divmod(addr // self._line_bytes, self._num_sets)
        entry = self._sets.get(set_index, {}).pop(tag, None)
        return bool(entry and entry[0])

    def flush_all(self) -> List[int]:
        """Drop everything; returns the dirty line addresses."""
        dirty = [self._line_addr(set_index, tag)
                 for set_index in sorted(self._sets)
                 for tag, (is_dirty, _) in self._sets[set_index].items()
                 if is_dirty]
        self._sets.clear()
        self.writebacks += len(dirty)
        return dirty

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def occupancy(self) -> int:
        return sum(map(len, self._sets.values()))


class VictimBuffer:
    """A small FIFO of dirty lines awaiting write-back.

    ``push`` returns the line that must be drained *now* if the buffer
    is full (the caller stalls on that write), else ``None``.
    """

    def __init__(self, entries: int = params.VICTIM_BUFFER_ENTRIES) -> None:
        if entries < 1:
            raise ValueError(f"entries must be >= 1, got {entries}")
        self.entries = entries
        self._lines: List[int] = []
        self.overflows = 0

    def push(self, line_addr: int) -> Optional[int]:
        self._lines.append(line_addr)
        if len(self._lines) <= self.entries:
            return None
        self.overflows += 1
        return self._lines.pop(0)

    def drain_one(self) -> Optional[int]:
        return self._lines.pop(0) if self._lines else None

    def __len__(self) -> int:
        return len(self._lines)
