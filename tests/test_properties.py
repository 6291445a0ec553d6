"""Hypothesis property tests across the stack.

Complements the per-module suites with randomized invariants:
scheduler conservation and ordering, cache bounds, the sparse tag array
against an eager reference model, resource handoffs against the
round-based reference model, event-free puts against put events,
tag-space safety,
tag-window backpressure draining, routing reachability on random
topologies, and scatter/gather extent pairing.
"""

import heapq
from collections import OrderedDict

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.etrans import _paired_extents
from repro.fabric import Channel, Packet, PacketKind, TagAllocator
from repro.fabric.flit import Flit
from repro.mem import CacheConfig, SetAssociativeCache
from repro.pcie import FabricManager, FairVcScheduler, FifoScheduler, Topology
from repro.sim import (Container, Environment, PriorityResource,
                       PriorityStore, Resource, Store)
from repro.sim.engine import Event
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


def _serve(scheduler):
    """The next flit, taken the way an egress loop takes it."""
    while True:
        flit = scheduler.taken((yield scheduler.take()))
        if flit is not None:
            return flit


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
            out.append((yield from _serve(scheduler)))

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
            out.append((yield from _serve(scheduler)))

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
    # The rerun takes every scalar path under the sanitizers: same log and
    # events, and no process or event left waiting at drain.  (Clients
    # that start together race on the link's tx queue by design, so
    # write-race findings are expected.)
    rerun, log2, events2 = run_window(capacity, clients, sanitize=True)
    assert (log2, events2) == (log, events)
    assert not [f for f in rerun.env.sanitizer.findings
                if f.kind != "write-race"]


# -- resource handoffs against the round-based reference --------------------

class RefRequest(Event):
    """Reference ``Request``: always queued, then granted by the loop."""

    def __init__(self, resource, priority=0):
        super().__init__(resource.env)
        self.resource = resource
        self.priority = priority
        resource._seq += 1
        self.key = (priority, resource._seq)
        resource._queue_request(self)
        resource._trigger()

    def cancel(self):
        self.resource._cancel(self)


class RefResource:
    """The round-based ``Resource`` every handoff used to go through."""

    def __init__(self, env, capacity=1):
        self.env = env
        self.capacity = capacity
        self.users = []
        self._waiters = []
        self._seq = 0

    @property
    def queue_len(self):
        return len(self._waiters)

    def request(self, priority=0):
        return RefRequest(self, priority)

    def release(self, request):
        try:
            self.users.remove(request)
        except ValueError:
            self._cancel(request)
            return
        san = self.env._sanitizer
        if san is not None:
            san.on_write(self, "release")
        self._trigger()

    def _queue_request(self, request):
        self._waiters.append(request)

    def _next_waiter(self):
        return self._waiters.pop(0) if self._waiters else None

    def _cancel(self, request):
        try:
            self._waiters.remove(request)
        except ValueError:
            pass

    def _trigger(self):
        while len(self.users) < self.capacity:
            waiter = self._next_waiter()
            if waiter is None:
                return
            if waiter.triggered:
                continue
            self.users.append(waiter)
            waiter.succeed()


class RefPriorityResource(RefResource):
    def _queue_request(self, request):
        heapq.heappush(self._waiters, (request.key, request))

    def _next_waiter(self):
        while self._waiters:
            _, request = heapq.heappop(self._waiters)
            if not request.triggered:
                return request
        return None

    def _cancel(self, request):
        remaining = [(k, r) for (k, r) in self._waiters if r is not request]
        if len(remaining) != len(self._waiters):
            self._waiters[:] = remaining
            heapq.heapify(self._waiters)


class RefStorePut(Event):
    def __init__(self, store, item):
        super().__init__(store.env)
        self.item = item
        self.store = store
        store._put_waiters.append(self)
        store._trigger()


class RefStoreGet(Event):
    def __init__(self, store, filter=None):
        super().__init__(store.env)
        self.filter = filter
        self.store = store
        store._get_waiters.append(self)
        store._trigger()


_REF_NOTHING = object()


class RefStore:
    """The round-based ``Store``: every put and get runs full rounds."""

    def __init__(self, env, capacity=float("inf")):
        self.env = env
        self.capacity = capacity
        self.items = []
        self._put_waiters = []
        self._get_waiters = []

    def put(self, item):
        return RefStorePut(self, item)

    def get(self, filter=None):
        return RefStoreGet(self, filter)

    def _do_put(self, event):
        if len(self.items) < self.capacity:
            self._insert(event.item)
            san = self.env._sanitizer
            if san is not None:
                san.on_write(self, "put")
            event.succeed()
            return True
        return False

    def _insert(self, item):
        self.items.append(item)

    def _take(self, filter):
        if filter is None:
            if self.items:
                return self.items.pop(0)
            return _REF_NOTHING
        for i, item in enumerate(self.items):
            if filter(item):
                return self.items.pop(i)
        return _REF_NOTHING

    def _do_get(self, event):
        item = self._take(event.filter)
        if item is not _REF_NOTHING:
            event.succeed(item)
            return True
        return False

    def _trigger(self):
        progressed = True
        while progressed:
            progressed = False
            get_waiters = self._get_waiters
            if get_waiters:
                keep = [event for event in get_waiters
                        if not event.triggered and not self._do_get(event)]
                if len(keep) != len(get_waiters):
                    progressed = True
                    get_waiters[:] = keep
            put_waiters = self._put_waiters
            if put_waiters:
                served = 0
                for event in put_waiters:
                    if not event.triggered and not self._do_put(event):
                        break
                    served += 1
                if served:
                    progressed = True
                    del put_waiters[:served]


class RefPriorityStore(RefStore):
    def _insert(self, item):
        heapq.heappush(self.items, item)

    def _take(self, filter):
        if filter is None:
            if self.items:
                return heapq.heappop(self.items)
            return _REF_NOTHING
        for i, item in enumerate(self.items):
            if filter(item):
                self.items.pop(i)
                heapq.heapify(self.items)
                return item
        return _REF_NOTHING


class RefContainerPut(Event):
    def __init__(self, container, amount):
        super().__init__(container.env)
        self.amount = amount
        self.container = container
        container._put_waiters.append(self)
        container._trigger()


class RefContainerGet(Event):
    def __init__(self, container, amount):
        super().__init__(container.env)
        self.amount = amount
        self.container = container
        container._get_waiters.append(self)
        container._trigger()


class RefContainer:
    """The round-based ``Container``: serve gets, then puts, until idle."""

    def __init__(self, env, capacity=float("inf"), init=0.0):
        self.env = env
        self.capacity = capacity
        self.level = float(init)
        self._put_waiters = []
        self._get_waiters = []

    def put(self, amount):
        return RefContainerPut(self, amount)

    def get(self, amount):
        return RefContainerGet(self, amount)

    def _serve_gets(self):
        waiters = self._get_waiters
        progressed = False
        for i, event in enumerate(waiters):
            if event.triggered:
                continue
            if event.amount <= self.level:
                self.level -= event.amount
                event.succeed()
                progressed = True
            else:
                waiters[:] = waiters[i:]
                return progressed
        waiters.clear()
        return progressed

    def _serve_puts(self):
        waiters = self._put_waiters
        progressed = False
        for i, event in enumerate(waiters):
            if event.triggered:
                continue
            if self.level + event.amount <= self.capacity:
                self.level += event.amount
                event.succeed()
                progressed = True
            else:
                waiters[:] = waiters[i:]
                return progressed
        waiters.clear()
        return progressed

    def _trigger(self):
        progressed = True
        while progressed:
            progressed = False
            if self._get_waiters and self._serve_gets():
                progressed = True
            if self._put_waiters and self._serve_puts():
                progressed = True


NEW_KIT = (Store, PriorityStore, Container, Resource, PriorityResource)
REF_KIT = (RefStore, RefPriorityStore, RefContainer, RefResource,
           RefPriorityResource)
# Stores: 0 unbounded, 1 bounded at 1, 2 priority-ordered and bounded at 2.
# Resources: 0 capacity 2 FIFO, 1 capacity 1 by priority.  Store ops are
# listed twice so blocked puts and queued getters are common.
store_ops = st.one_of(
    st.tuples(st.just("put"), st.integers(0, 2), st.integers(0, 9),
              st.booleans()),                              # store, item, wait
    st.tuples(st.just("get"), st.integers(0, 2), st.integers(0, 3)),
    st.tuples(st.just("steal"), st.integers(0, 2)))  # external head removal
handoff_ops = st.one_of(
    store_ops, store_ops,
    st.tuples(st.just("cput"), st.integers(1, 6), st.booleans()),
    st.tuples(st.just("cget"), st.integers(1, 6), st.booleans()),
    st.tuples(st.just("req"), st.integers(0, 1), st.integers(0, 2)),
    st.tuples(st.just("rel"),),                  # release the oldest held
    st.tuples(st.just("cancel"), st.integers(0, 1), st.integers(0, 2)),
    st.tuples(st.just("relnever"), st.integers(0, 1)),
    st.tuples(st.just("wait"), st.sampled_from([0, 0, 1, 3])))

handoff_plans = st.lists(
    st.tuples(st.integers(0, 2),                             # start time
              st.lists(handoff_ops, min_size=1, max_size=8)),
    min_size=2, max_size=5)


def run_handoffs(kit, plan, sanitize=False):
    """Drive one resource kit with ``plan``; return log, events, state."""
    store_cls, pstore_cls, container_cls, res_cls, pres_cls = kit
    env = Environment(sanitize=sanitize)
    stores = [store_cls(env), store_cls(env, capacity=1),
              pstore_cls(env, capacity=2)]
    container = container_cls(env, capacity=6, init=3)
    resources = [res_cls(env, capacity=2), pres_cls(env, capacity=1)]
    log, labels = [], {}
    # The last filter is impure: it depends on the clock, so a getter it
    # rejected may match the same item at a later trigger.
    filters = (None, lambda item: item % 2 == 0, lambda item: item >= 5,
               lambda item: env.now >= 2)

    def note(label):
        return lambda event: log.append((env.now, label, event._value))

    def client(pid, start, ops):
        held = []
        yield env.timeout(start)
        for i, op in enumerate(ops):
            kind = op[0]
            label = (pid, i, kind)
            if kind in ("put", "cput", "cget"):
                if kind == "put":
                    event = stores[op[1]].put(op[2])
                else:
                    event = getattr(container, kind[1:])(op[1])
                if not op[-1]:
                    event.callbacks.append(note(label))
                    continue
            elif kind == "get":
                event = stores[op[1]].get(filters[op[2]])
            elif kind in ("req", "cancel"):
                event = resources[op[1]].request(priority=op[2])
                labels[event] = label
                if kind == "cancel":
                    yield env.timeout(0)
                    if event.triggered:
                        held.append(event)
                    else:
                        event.cancel()
                    log.append((env.now, label, event.triggered))
                    continue
                held.append(event)
            elif kind == "steal":
                # Remove the head item from outside the store, without
                # a trigger.
                items = stores[op[1]].items
                log.append((env.now, label, items.pop(0) if items else None))
                continue
            elif kind == "rel":
                if held:
                    request = held.pop(0)
                    request.resource.release(request)
                log.append((env.now, label, None))
                continue
            elif kind == "relnever":
                request = resources[op[1]].request()
                labels[request] = label
                resources[op[1]].release(request)
                log.append((env.now, label, request.triggered))
                continue
            else:
                event = env.timeout(op[1])
            value = yield event
            log.append((env.now, label, value))

    for pid, (start, ops) in enumerate(plan):
        env.process(client(pid, start, ops), name=f"client{pid}")
    env.run()
    state = ([(list(s.items), len(s._put_waiters), len(s._get_waiters))
              for s in stores],
             (container.level, len(container._put_waiters),
              len(container._get_waiters)),
             [([labels[u] for u in r.users], r.queue_len)
              for r in resources])
    return env, log, env.stats["events_processed"], state


@settings(max_examples=600, deadline=None, derandomize=True)
@given(handoff_plans)
def test_property_resource_handoffs_match_round_reference(plan):
    _, log, events, state = run_handoffs(NEW_KIT, plan)
    _, ref_log, ref_events, ref_state = run_handoffs(REF_KIT, plan)
    assert log == ref_log
    assert events == ref_events
    assert state == ref_state
    # The scalar loop under the sanitizers takes the same grant path:
    # same trigger order, and every finding is one the reference reports
    # at the same time.  Random scripts do race clients on one store,
    # leave clients blocked at drain and leave logged un-yielded requests
    # ungranted; no other kind of finding may appear.
    env, log2, events2, state2 = run_handoffs(NEW_KIT, plan, sanitize=True)
    ref_env, *_ = run_handoffs(REF_KIT, plan, sanitize=True)
    assert (log2, events2, state2) == (log, events, state)
    findings = [(f.kind, f.time) for f in env.sanitizer.findings]
    assert findings == [(f.kind, f.time) for f in ref_env.sanitizer.findings]
    assert {kind for kind, _ in findings} \
        <= {"write-race", "deadlock", "stale-event"}


# -- event-free puts against puts as events -----------------------------------

# Stores: 0 unbounded, 1 bounded at 1, 2 priority-ordered and bounded at 2;
# one Container of capacity 6.  "put"/"cput" with forget=True are the
# event-free puts under test; wait=True yields a put event in both runs.
forget_ops = st.one_of(
    st.tuples(st.just("put"), st.integers(0, 2), st.integers(0, 9),
              st.sampled_from(["forget", "forget", "wait"])),
    st.tuples(st.just("get"), st.integers(0, 2), st.integers(0, 2)),
    st.tuples(st.just("cput"), st.integers(1, 6),
              st.sampled_from(["forget", "forget", "wait"])),
    st.tuples(st.just("cget"), st.integers(1, 6)),
    st.tuples(st.just("wait"), st.sampled_from([0, 0, 1, 3])))

forget_plans = st.tuples(
    st.lists(st.tuples(st.integers(0, 2),                  # start time
                       st.lists(forget_ops, min_size=1, max_size=8)),
             min_size=1, max_size=4),
    # Where the first run stops: a horizon, the first client's end (if
    # it ends), or not at all; the queue is drained afterwards anyway.
    st.one_of(st.none(), st.just("client0"),
              st.sampled_from([0.0, 1.0, 2.5, 4.0])))


def run_forget_plan(plan, forget, sanitize=False):
    """Drive stores and a container with ``plan``; every ``forget`` put
    is event-free if ``forget``, else an event nobody looks at."""
    clients, cut = plan
    env = Environment(sanitize=sanitize)
    stores = [Store(env), Store(env, capacity=1), PriorityStore(env, capacity=2)]
    container = Container(env, capacity=6, init=3)
    filters = (None, lambda item: item % 2 == 0, lambda item: item >= 5)
    log = []

    def client(pid, start, ops):
        yield env.timeout(start)
        for i, op in enumerate(ops):
            kind = op[0]
            if kind in ("put", "cput"):
                target, arg = ((stores[op[1]], op[2]) if kind == "put"
                               else (container, op[1]))
                if op[-1] == "wait":
                    event = target.put(arg)
                else:
                    (target.put_forget if forget else target.put)(arg)
                    log.append((env.now, pid, i, kind, None))
                    continue
            elif kind == "get":
                event = stores[op[1]].get(filters[op[2]])
            elif kind == "cget":
                event = container.get(op[1])
            else:
                event = env.timeout(op[1])
            value = yield event
            log.append((env.now, pid, i, kind, value))

    procs = [env.process(client(pid, start, ops), name=f"client{pid}")
             for pid, (start, ops) in enumerate(clients)]
    if cut == "client0":
        env.run(until=50.0, until_event=procs[0])
    elif cut is not None:
        env.run(until=cut)
    cut_state = (env.now, len(log), env.stats["events_processed"])
    env.run()
    state = ([(list(s.items), len(s._put_waiters), len(s._get_waiters))
              for s in stores],
             (container.level, len(container._put_waiters),
              len(container._get_waiters)))
    return env, (log, cut_state, env.stats["events_processed"], state)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(forget_plans)
def test_property_event_free_puts_match_put_events(plan):
    # Grant order, the clock at every grant and the event count (at the
    # cut and after draining) are those of the same plan with every put
    # an event, in plain and sanitized runs; the sanitizers report the
    # same findings at the same times.
    _, result = run_forget_plan(plan, forget=True)
    _, reference = run_forget_plan(plan, forget=False)
    assert result == reference
    env, sanitized = run_forget_plan(plan, forget=True, sanitize=True)
    ref_env, ref_sanitized = run_forget_plan(plan, forget=False,
                                             sanitize=True)
    assert sanitized == ref_sanitized == result
    assert [(f.kind, f.time) for f in env.sanitizer.findings] \
        == [(f.kind, f.time) for f in ref_env.sanitizer.findings]
