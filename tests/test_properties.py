"""Hypothesis property tests across the stack.

Complements the per-module suites with randomized invariants:
scheduler conservation and ordering, cache bounds, the sparse tag array
against an eager reference model, tag-space safety,
tag-window backpressure draining, routing reachability on random
topologies, and scatter/gather extent pairing.
"""

from collections import OrderedDict

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.etrans import _paired_extents
from repro.fabric import Channel, Packet, PacketKind, TagAllocator
from repro.fabric.flit import Flit
from repro.mem import CacheConfig, SetAssociativeCache
from repro.pcie import FabricManager, FairVcScheduler, FifoScheduler, Topology
from repro.sim import Environment
from tests.test_fabric_transaction import PAUSE, run_window


def make_flit(vc=0, size=68, uid_salt=0):
    packet = Packet(kind=PacketKind.MEM_WR, channel=Channel.CXL_MEM,
                    src=0, dst=1, nbytes=64)
    return Flit(packet=packet, index=0, total=1, size_bytes=size, vc=vc)


# -- scheduler conservation & ordering --------------------------------------

scheduler_plans = st.lists(
    st.tuples(st.integers(min_value=0, max_value=3),      # vc
              st.sampled_from([68, 256])),                 # size
    min_size=1, max_size=60)


@settings(max_examples=100, deadline=None)
@given(scheduler_plans)
def test_property_fifo_scheduler_conserves_and_orders(plan):
    env = Environment()
    scheduler = FifoScheduler(env, capacity=1000)
    flits = [make_flit(vc=vc, size=size) for vc, size in plan]

    def feed():
        for flit in flits:
            yield scheduler.push(flit)

    env.process(feed())
    env.run(until=1)
    out = []

    def drain():
        for _ in range(len(flits)):
            out.append((yield from scheduler.pop()))

    env.process(drain())
    env.run(until=2)
    assert out == flits          # exact conservation, arrival order


@settings(max_examples=100, deadline=None)
@given(scheduler_plans)
def test_property_fair_scheduler_conserves_and_keeps_vc_order(plan):
    env = Environment()
    scheduler = FairVcScheduler(env, capacity=1000)
    flits = [make_flit(vc=vc, size=size) for vc, size in plan]

    def feed():
        for flit in flits:
            yield scheduler.push(flit)

    env.process(feed())
    env.run(until=1)
    out = []

    def drain():
        for _ in range(len(flits)):
            out.append((yield from scheduler.pop()))

    env.process(drain())
    env.run(until=2)
    # Conservation: same multiset (by identity).
    assert sorted(map(id, out)) == sorted(map(id, flits))
    # Per-VC FIFO: within one VC, arrival order is preserved.
    for vc in {f.vc for f in flits}:   # fcc: allow[unordered-iter]
        arrived = [f for f in flits if f.vc == vc]
        served = [f for f in out if f.vc == vc]
        assert arrived == served


# -- cache invariants -------------------------------------------------------

cache_traces = st.lists(
    st.tuples(st.integers(min_value=0, max_value=63),     # line index
              st.booleans()),                              # is_write
    max_size=150)


@settings(max_examples=100, deadline=None)
@given(cache_traces)
def test_property_cache_never_exceeds_capacity_and_probe_holds(trace):
    cache = SetAssociativeCache(CacheConfig(
        name="p", size_bytes=8 * 64, assoc=2))
    for line, is_write in trace:
        addr = line * 64
        cache.access(addr, is_write)
        assert cache.probe(addr)                    # just-accessed present
        assert cache.occupancy() <= 8               # capacity bound
    assert cache.hits + cache.misses == len(trace)


@settings(max_examples=100, deadline=None)
@given(cache_traces)
def test_property_flush_empties_and_reports_only_writes(trace):
    cache = SetAssociativeCache(CacheConfig(
        name="p", size_bytes=16 * 64, assoc=4))
    written = set()
    for line, is_write in trace:
        result = cache.access(line * 64, is_write)
        if is_write:
            written.add(line * 64)
        if result.evicted_dirty_line is not None:
            written.discard(result.evicted_dirty_line)
    dirty = set(cache.flush_all())
    assert dirty == written
    assert cache.occupancy() == 0


class EagerLruCache:
    """Reference tag model: one ``OrderedDict`` per set, all built up front.

    The straightforward shape the sparse ``SetAssociativeCache`` must
    match access for access: ``move_to_end`` LRU, the class's own LRU
    line as victim when its way quota is full, else the set's LRU line.
    """

    def __init__(self, config):
        self.config = config
        self.sets = [OrderedDict() for _ in range(config.num_sets)]
        self.partitions = {}
        self.hits = self.misses = self.writebacks = 0

    def locate(self, addr):
        line = addr // self.config.line_bytes
        return line % self.config.num_sets, line // self.config.num_sets

    def line_addr(self, set_index, tag):
        return (tag * self.config.num_sets + set_index) \
            * self.config.line_bytes

    def access(self, addr, is_write, way_class=None):
        set_index, tag = self.locate(addr)
        ways = self.sets[set_index]
        if tag in ways:
            self.hits += 1
            dirty, owner = ways[tag]
            ways.move_to_end(tag)
            ways[tag] = (dirty or is_write, owner)
            return True, None
        self.misses += 1
        victim = None
        quota = self.partitions.get(way_class) if way_class else None
        if quota is not None:
            own = [t for t, (_, c) in ways.items() if c == way_class]
            if len(own) >= quota:
                victim = own[0]
        if victim is None and len(ways) >= self.config.assoc:
            victim = next(iter(ways))
        evicted = None
        if victim is not None and ways.pop(victim)[0]:
            self.writebacks += 1
            evicted = self.line_addr(set_index, victim)
        ways[tag] = (is_write, way_class)
        return False, evicted

    def probe(self, addr):
        set_index, tag = self.locate(addr)
        return tag in self.sets[set_index]

    def invalidate(self, addr):
        set_index, tag = self.locate(addr)
        entry = self.sets[set_index].pop(tag, None)
        return bool(entry and entry[0])

    def occupancy(self):
        return sum(len(ways) for ways in self.sets)

    def flush_all(self):
        dirty = [self.line_addr(set_index, tag)
                 for set_index, ways in enumerate(self.sets)
                 for tag, (is_dirty, _) in ways.items() if is_dirty]
        for ways in self.sets:
            ways.clear()
        self.writebacks += len(dirty)
        return dirty


READ, WRITE, INVALIDATE, FLUSH = range(4)

differential_plans = st.tuples(
    st.sampled_from([1, 2, 4]),                             # assoc
    st.sampled_from([1, 2, 8]),                             # sets
    st.dictionaries(st.sampled_from(["a", "b"]),            # way quotas
                    st.integers(min_value=1, max_value=4), max_size=2),
    st.lists(st.tuples(
        st.sampled_from([READ] * 5 + [WRITE] * 4 + [INVALIDATE, FLUSH]),
        st.integers(min_value=0, max_value=64 * 64 - 1),    # byte address
        st.sampled_from([None, "a", "b"])),                 # way class
        max_size=200))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(differential_plans)
def test_property_sparse_cache_matches_eager_reference(plan):
    assoc, sets, quotas, ops = plan
    config = CacheConfig(name="d", size_bytes=assoc * sets * 64, assoc=assoc)
    cache, reference = SetAssociativeCache(config), EagerLruCache(config)
    for way_class, ways in quotas.items():
        cache.set_partition(way_class, min(ways, assoc))
        reference.partitions[way_class] = min(ways, assoc)
    for kind, addr, way_class in ops:
        if kind == FLUSH:
            assert cache.flush_all() == reference.flush_all()
        elif kind == INVALIDATE:
            assert cache.invalidate(addr) == reference.invalidate(addr)
        else:
            result = cache.access(addr, kind == WRITE, way_class=way_class)
            assert (result.hit, result.evicted_dirty_line) \
                == reference.access(addr, kind == WRITE, way_class)
        assert cache.probe(addr) == reference.probe(addr)
        assert cache.occupancy() == reference.occupancy()
    assert (cache.hits, cache.misses, cache.writebacks) \
        == (reference.hits, reference.misses, reference.writebacks)
    assert cache.flush_all() == reference.flush_all()      # same order
    assert cache.writebacks == reference.writebacks
    assert cache.occupancy() == 0


# -- tag space safety --------------------------------------------------------

tag_plans = st.lists(st.booleans(), max_size=100)  # True=alloc, False=free


@settings(max_examples=100, deadline=None)
@given(tag_plans)
def test_property_tag_allocator_unique_and_bounded(plan):
    tags = TagAllocator(capacity=8)
    live = []
    for do_alloc in plan:
        if do_alloc:
            if tags.available:
                tag = tags.allocate()
                assert tag not in live
                live.append(tag)
            else:
                with pytest.raises(RuntimeError):
                    tags.allocate()
        elif live:
            tags.free(live.pop(0))
        assert tags.in_use == len(live) <= 8


# -- routing reachability on random topologies --------------------------------

topology_specs = st.tuples(
    st.integers(min_value=1, max_value=4),    # switches (chained)
    st.lists(st.integers(min_value=0, max_value=3),
             min_size=2, max_size=6),         # endpoint -> switch index
)


@settings(max_examples=50, deadline=None)
@given(topology_specs)
def test_property_manager_routes_every_endpoint_everywhere(spec):
    switches, placements = spec
    env = Environment()
    topo = Topology(env)
    for s in range(switches):
        topo.add_switch(f"sw{s}")
    for a, b in zip(range(switches), range(1, switches)):
        topo.connect_switches(f"sw{a}", f"sw{b}")
    for index, home in enumerate(placements):
        name = f"ep{index}"
        topo.add_endpoint(name)
        topo.connect_endpoint(f"sw{home % switches}", name)
    FabricManager(topo).configure()
    for switch in topo.switches.values():
        for endpoint in topo.endpoints.values():
            # Every switch can forward toward every endpoint.
            assert endpoint.pbr in switch.table


# -- scatter/gather extent pairing ---------------------------------------------

extent_lists = st.lists(st.integers(min_value=1, max_value=512),
                        min_size=1, max_size=8)


@settings(max_examples=150, deadline=None)
@given(extent_lists, extent_lists)
def test_property_paired_extents_cover_exactly(src_sizes, dst_sizes):
    total = min(sum(src_sizes), sum(dst_sizes))
    # Trim so the two sides carry equal bytes (ETrans validates this).
    src = [(i * 0x10000, n) for i, n in enumerate(src_sizes)]
    dst = [(0x900000 + i * 0x10000, n) for i, n in enumerate(dst_sizes)]
    pairs = _paired_extents(src, dst)
    moved = sum(n for _, _, n in pairs)
    assert moved == total
    # Source coverage is a prefix walk: consecutive, no overlap.
    seen_src = []
    for s, _, n in pairs:
        seen_src.append((s, n))
    for (a, n1), (b, _) in zip(seen_src, seen_src[1:]):
        assert b >= a  # monotone within/between extents


# -- tag-window backpressure ---------------------------------------------------

window_ops = st.lists(
    st.one_of(st.tuples(st.sampled_from([PacketKind.MEM_RD, PacketKind.MEM_WR,
                                         PacketKind.IO_RD, PacketKind.IO_WR]),
                        st.sampled_from([64, 256, 1024, 4096])),   # nbytes
              st.just(PAUSE)),                    # zero-delay continuation
    min_size=1, max_size=5)

window_plans = st.tuples(
    st.integers(min_value=1, max_value=4),                 # tag capacity
    st.lists(st.tuples(st.integers(min_value=0, max_value=200),  # start
                       window_ops),
             min_size=2, max_size=12))                     # clients


@settings(max_examples=60, deadline=None, derandomize=True)
@given(window_plans)
def test_property_tag_window_drains_and_is_deterministic(plan):
    capacity, plans = plan
    clients = {f"c{index}.": client for index, client in enumerate(plans)}
    port, log, events = run_window(capacity, clients)
    assert len(log) == sum(op != PAUSE for _, ops in plans for op in ops)
    assert port.tags.in_use == 0
    assert not port._waiters          # nobody left blocked at quiescence
    # The rerun takes the scalar loop under the sanitizers: same log and
    # events, and no process or event left waiting at drain.  (Clients
    # that start together race on the link's tx queue by design, so
    # write-race findings are expected.)
    rerun, log2, events2 = run_window(capacity, clients, batch=False,
                                      sanitize=True)
    assert (log2, events2) == (log, events)
    assert not [f for f in rerun.env.sanitizer.findings
                if f.kind != "write-race"]
