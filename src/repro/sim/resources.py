"""Shared-resource primitives built on the event kernel.

These are the queueing building blocks the fabric models are made of:

* :class:`Resource` — a counted resource (e.g. a switch crossbar slot)
  with FIFO waiters.
* :class:`PriorityResource` — same, but waiters carry a priority.
* :class:`Store` — an unbounded or bounded FIFO of items (e.g. a flit
  buffer at a switch port).
* :class:`PriorityStore` — items leave lowest-priority-value first.
* :class:`Container` — a continuous quantity (e.g. a credit pool).

Handoffs
--------

A request is granted *on arrival*, in O(1), whenever nobody is queued
ahead of it: a ``Store`` put with no blocked put and room inserts its
item and then hands it to the first matching waiting getter; an
unfiltered ``Store`` get takes the head item; a ``Container`` get/put
adjusts ``level`` and then serves the other side's queue head-first; a
``Request`` joins ``users``.  Only the blocked cases — filtered gets
facing a non-empty store, bounded stores with blocked puts, queued
waiters — take the round-based ``Store._trigger`` loop, and a
``Resource`` release re-runs its grant loop.

This is exact, not an approximation: nothing outside this module adds
to ``items``, ``users`` or ``level``, so after every handoff the same
invariant holds as after a full round loop — no pending unfiltered
getter coexists with a queued item, the first pending ``Container``
waiter on each side does not fit, and queued ``Request`` waiters imply
a full resource.  An on-arrival grant therefore calls ``succeed()`` on
the same events in the same order as the round loop would have, so
every ``(time, priority, seq)`` slot is unchanged.  (Code that
*removes* store items from outside cannot create a grantable waiter,
only room for blocked puts; those are served by the next trigger,
exactly as before.)

A caller that never looks at its put event — the link's credit return
and receive buffer, a port's inbound request queue, a credit domain's
refill, the function mailboxes, the movement queue — calls
``put_forget`` instead of ``put``.  The grant is the same code with the
shared put marker (``repro.sim.engine._PUT_MARK``) in the NORMAL slot
the ``StorePut``/``ContainerPut`` would have taken, so the getter it
serves and the event count are unchanged; sanitized runs still see the
store write.  A put that would block falls back to a real event, which
the queue holds until it is served.

Capacities are whole numbers (``Store`` also takes ``float("inf")``),
and a ``Container`` request larger than the capacity is rejected at the
call instead of blocking forever.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Deque, List, Optional

from .engine import _PENDING, _PUT_MARK, Environment, Event

__all__ = [
    "Resource",
    "PriorityResource",
    "Store",
    "PriorityStore",
    "Container",
]


def _check_whole_capacity(owner: str, capacity: Any) -> None:
    """Reject capacities that are not whole numbers (1.5 would round up)."""
    try:
        whole = capacity == int(capacity)
    except (OverflowError, TypeError, ValueError):
        whole = False
    if not whole:
        raise ValueError(
            f"{owner} capacity must be a whole number, got {capacity!r}")


class Request(Event):
    """Pending acquisition of a :class:`Resource` slot.

    Usable as a context manager so model code reads::

        with resource.request() as req:
            yield req
            ... hold the resource ...
    """

    __slots__ = ("resource", "priority", "key")

    def __init__(self, resource: "Resource", priority: int = 0) -> None:
        # Event fields set inline (no super().__init__): the hot path.
        env = self.env = resource.env
        self.callbacks = []
        self._waiter = None
        self._ok = True
        self._processed = False
        san = env._sanitizer
        if san is not None:
            san.on_created(self)
        self.resource = resource
        self.priority = priority
        users = resource.users
        if not resource._waiters and len(users) < resource.capacity:
            users.append(self)
            self._value = None
            self._scheduled = True
            env._now_normal.append(self)
            env._pending += 1
        else:
            self._value = _PENDING
            self._scheduled = False
            resource._queue_request(self)

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.resource.release(self)

    def cancel(self) -> None:
        """Withdraw a request that has not been granted yet."""
        self.resource._cancel(self)


class Resource:
    """A counted resource with ``capacity`` concurrent holders."""

    __slots__ = ("env", "capacity", "users", "_waiters")

    def __init__(self, env: Environment, capacity: int = 1) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        _check_whole_capacity(type(self).__name__, capacity)
        self.env = env
        self.capacity = capacity
        self.users: List[Request] = []
        self._waiters: List[Request] = []

    @property
    def count(self) -> int:
        """Number of current holders."""
        return len(self.users)

    @property
    def queue_len(self) -> int:
        return len(self._waiters)

    def request(self, priority: int = 0) -> Request:
        return Request(self, priority)

    def release(self, request: Request) -> None:
        """Give the slot back (no-op if the request was never granted)."""
        try:
            self.users.remove(request)
        except ValueError:
            self._cancel(request)
            return
        san = self.env._sanitizer
        if san is not None:
            san.on_write(self, "release")
        if self._waiters:
            self._trigger()

    # -- internals -------------------------------------------------------

    def _queue_request(self, request: Request) -> None:
        self._waiters.append(request)

    def _next_waiter(self) -> Optional[Request]:
        return self._waiters.pop(0) if self._waiters else None

    def _cancel(self, request: Request) -> None:
        try:
            self._waiters.remove(request)
        except ValueError:
            pass

    def _trigger(self) -> None:
        users = self.users
        while len(users) < self.capacity:
            waiter = self._next_waiter()
            if waiter is None:
                return
            if waiter._value is not _PENDING:
                continue
            users.append(waiter)
            waiter.succeed()


class PriorityResource(Resource):
    """A resource whose waiters are served lowest priority value first.

    Only queued requests get a ``key``, ``(priority, arrival)``: the
    arrival counter orders equal priorities FIFO.
    """

    __slots__ = ("_seq",)

    def __init__(self, env: Environment, capacity: int = 1) -> None:
        super().__init__(env, capacity)
        self._seq = 0

    def _queue_request(self, request: Request) -> None:
        self._seq += 1
        request.key = (request.priority, self._seq)
        # self._waiters doubles as the heap storage.
        heapq.heappush(self._waiters, (request.key, request))

    def _next_waiter(self) -> Optional[Request]:
        while self._waiters:
            _, request = heapq.heappop(self._waiters)
            if request._value is _PENDING:
                return request
        return None

    def _cancel(self, request: Request) -> None:
        # Lazy deletion: mark by triggering with failure would break the
        # waiter protocol, so filter and re-heapify instead (rare path).
        remaining = [(k, r) for (k, r) in self._waiters if r is not request]
        if len(remaining) != len(self._waiters):
            self._waiters[:] = remaining
            heapq.heapify(self._waiters)


class StorePut(Event):
    __slots__ = ("item", "store")

    def __init__(self, store: "Store", item: Any) -> None:
        # Event fields set inline (no super().__init__): the hot path.
        env = self.env = store.env
        self.callbacks = []
        self._waiter = None
        self._value = _PENDING
        self._ok = True
        self._scheduled = False
        self._processed = False
        san = env._sanitizer
        if san is not None:
            san.on_created(self)
        self.item = item
        self.store = store
        items = store.items
        if store._put_waiters or len(items) >= store.capacity or (
                items and store._get_waiters):
            # Blocked, or filtered getters face a non-empty store: the
            # round loop decides who goes first.
            store._put_waiters.append(self)
            store._trigger()
            return
        if san is not None:
            san.on_write(store, "put")
        self._value = None
        self._scheduled = True
        normal = env._now_normal
        normal.append(self)
        env._pending += 1
        getters = store._get_waiters
        if not getters:
            store._insert(item)
            return
        # The store was empty, so this item is the only one: a pending
        # unfiltered head getter takes it straight away.
        head = getters[0]
        if head.filter is None and head._value is _PENDING:
            del getters[0]
            head._value = item
            head._scheduled = True
            normal.append(head)
            env._pending += 1
        else:
            store._insert(item)
            store._serve_gets()


class StoreGet(Event):
    __slots__ = ("filter", "store")

    def __init__(self, store: "Store",
                 filter: Optional[Callable[[Any], bool]] = None) -> None:
        env = self.env = store.env
        self.callbacks = []
        self._waiter = None
        self._ok = True
        self._processed = False
        san = env._sanitizer
        if san is not None:
            san.on_created(self)
        self.filter = filter
        self.store = store
        items = store.items
        if items and filter is None and not store._get_waiters:
            self._value = store._take(None)
            self._scheduled = True
            env._now_normal.append(self)
            env._pending += 1
            if store._put_waiters:
                store._trigger()
            return
        self._value = _PENDING
        self._scheduled = False
        store._get_waiters.append(self)
        if items or store._put_waiters:
            store._trigger()


class Store:
    """A FIFO buffer of items with optional bounded capacity.

    ``put`` blocks when the store is full; ``get`` blocks when empty.
    ``get`` may take a filter predicate to take the first matching item
    (used e.g. to pull a completion for a specific transaction tag).
    ``items`` is a deque, so taking the head is O(1) however long the
    queue grows.
    """

    __slots__ = ("env", "capacity", "items", "_put_waiters", "_get_waiters")

    def __init__(self, env: Environment, capacity: float = float("inf")) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be > 0, got {capacity}")
        if capacity != float("inf"):
            _check_whole_capacity(type(self).__name__, capacity)
        self.env = env
        self.capacity = capacity
        self.items: Deque[Any] = deque()
        self._put_waiters: List[StorePut] = []
        self._get_waiters: List[StoreGet] = []

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> StorePut:
        return StorePut(self, item)

    def put_forget(self, item: Any) -> None:
        """``put`` for a caller that never looks at the put event.

        Grants exactly as :meth:`put` does, but allocates no event: the
        put marker takes the event's slot (see ``repro.sim.engine``).
        A put that would block falls back to a real event, which the
        store keeps until a get makes room.
        """
        items = self.items
        if self._put_waiters or len(items) >= self.capacity or (
                items and self._get_waiters):
            StorePut(self, item)
            return
        # StorePut's on-arrival grant with the marker in the event's
        # slot, inlined: this is the hottest put in the fabric.
        env = self.env
        san = env._sanitizer
        if san is not None:
            san.on_write(self, "put")
        normal = env._now_normal
        normal.append(_PUT_MARK)
        env._pending += 1
        getters = self._get_waiters
        if not getters:
            self._insert(item)
            return
        head = getters[0]
        if head.filter is None and head._value is _PENDING:
            del getters[0]
            head._value = item
            head._scheduled = True
            normal.append(head)
            env._pending += 1
        else:
            self._insert(item)
            self._serve_gets()

    def get(self, filter: Optional[Callable[[Any], bool]] = None) -> StoreGet:
        return StoreGet(self, filter)

    # -- internals -------------------------------------------------------

    def _do_put(self, event: StorePut) -> bool:
        if len(self.items) < self.capacity:
            self._insert(event.item)
            san = self.env._sanitizer
            if san is not None:
                san.on_write(self, "put")
            event.succeed()
            return True
        return False

    def _insert(self, item: Any) -> None:
        self.items.append(item)

    def _take(self, filter: Optional[Callable[[Any], bool]]) -> Any:
        items = self.items
        if filter is None:
            if items:
                return items.popleft()
            return _NOTHING
        for i, item in enumerate(items):
            if filter(item):
                del items[i]
                return item
        return _NOTHING

    def _do_get(self, event: StoreGet) -> bool:
        item = self._take(event.filter)
        if item is not _NOTHING:
            event.succeed(item)
            return True
        return False

    def _serve_gets(self) -> bool:
        """One pass over the getters in FIFO order; True if any served."""
        get_waiters = self._get_waiters
        keep = [event for event in get_waiters
                if event._value is _PENDING and not self._do_get(event)]
        if len(keep) != len(get_waiters):
            get_waiters[:] = keep
            return True
        return False

    def _trigger(self) -> None:
        # Single pass per round, rebuilding the waiter lists in place
        # (preserves FIFO order) instead of copy + O(n) removes.
        progressed = True
        while progressed:
            progressed = bool(self._get_waiters) and self._serve_gets()
            put_waiters = self._put_waiters
            if put_waiters:
                # Puts are unconditional appends, so the first one that
                # finds the store full means every later one would too:
                # serve the longest possible prefix and stop, instead of
                # probing all N blocked writers on every trigger.
                served = 0
                for event in put_waiters:
                    if event._value is _PENDING and not self._do_put(event):
                        break
                    served += 1
                if served:
                    progressed = True
                    del put_waiters[:served]


_NOTHING = object()


class PriorityStore(Store):
    """A store whose items leave in ascending sort order.

    Items must be comparable; use tuples ``(priority, seq, payload)`` to
    get deterministic FIFO-within-priority behaviour.  ``items`` is a
    heap-ordered list.
    """

    def __init__(self, env: Environment,
                 capacity: float = float("inf")) -> None:
        super().__init__(env, capacity)
        self.items: List[Any] = []

    def _insert(self, item: Any) -> None:
        heapq.heappush(self.items, item)

    def _take(self, filter: Optional[Callable[[Any], bool]]) -> Any:
        if filter is None:
            if self.items:
                return heapq.heappop(self.items)
            return _NOTHING
        for i, item in enumerate(self.items):
            if filter(item):
                self.items.pop(i)
                heapq.heapify(self.items)
                return item
        return _NOTHING


def _bad_amount(container: "Container", op: str,
                amount: float) -> ValueError:
    """The error for an amount outside ``(0, capacity]`` (NaN too)."""
    if amount > container.capacity:
        return ValueError(
            f"Container.{op}({amount}) exceeds capacity "
            f"{container.capacity}: it could never be granted")
    return ValueError(f"amount must be > 0, got {amount}")


class ContainerPut(Event):
    __slots__ = ("amount", "container")

    def __init__(self, container: "Container", amount: float) -> None:
        if not 0 < amount <= container.capacity:
            raise _bad_amount(container, "put", amount)
        env = self.env = container.env
        self.callbacks = []
        self._waiter = None
        self._ok = True
        self._processed = False
        san = env._sanitizer
        if san is not None:
            san.on_created(self)
        self.amount = amount
        self.container = container
        if not container._put_waiters \
                and container.level + amount <= container.capacity:
            container.level += amount
            self._value = None
            self._scheduled = True
            env._now_normal.append(self)
            env._pending += 1
            if container._get_waiters:
                container._serve_gets()
        else:
            self._value = _PENDING
            self._scheduled = False
            container._put_waiters.append(self)


class ContainerGet(Event):
    __slots__ = ("amount", "container")

    def __init__(self, container: "Container", amount: float) -> None:
        if not 0 < amount <= container.capacity:
            raise _bad_amount(container, "get", amount)
        env = self.env = container.env
        self.callbacks = []
        self._waiter = None
        self._ok = True
        self._processed = False
        san = env._sanitizer
        if san is not None:
            san.on_created(self)
        self.amount = amount
        self.container = container
        if not container._get_waiters and amount <= container.level:
            container.level -= amount
            self._value = None
            self._scheduled = True
            env._now_normal.append(self)
            env._pending += 1
            if container._put_waiters:
                container._serve_puts()
        else:
            self._value = _PENDING
            self._scheduled = False
            container._get_waiters.append(self)


class Container:
    """A continuous quantity with blocking put/get (credit pools, bytes).

    Both queues are served head-first, so a blocked head is never
    starved by later, smaller requests.  A get only ever makes room for
    puts and a put only ever adds level for gets, so each grant serves
    the opposite queue once and no round loop is needed.
    """

    __slots__ = ("env", "capacity", "level", "_put_waiters", "_get_waiters")

    def __init__(self, env: Environment, capacity: float = float("inf"),
                 init: float = 0.0) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be > 0, got {capacity}")
        if not 0 <= init <= capacity:
            raise ValueError(f"init {init} outside [0, {capacity}]")
        self.env = env
        self.capacity = capacity
        self.level = float(init)
        self._put_waiters: List[ContainerPut] = []
        self._get_waiters: List[ContainerGet] = []

    def put(self, amount: float) -> ContainerPut:
        return ContainerPut(self, amount)

    def put_forget(self, amount: float) -> None:
        """``put`` for a caller that never looks at the put event.

        Grants exactly as :meth:`put` does, but allocates no event: the
        put marker takes the event's slot (see ``repro.sim.engine``).
        A put that would block falls back to a real event.
        """
        if not 0 < amount <= self.capacity:
            raise _bad_amount(self, "put", amount)
        if self._put_waiters or self.level + amount > self.capacity:
            ContainerPut(self, amount)
            return
        self.level += amount
        env = self.env
        env._now_normal.append(_PUT_MARK)
        env._pending += 1
        if self._get_waiters:
            self._serve_gets()

    def get(self, amount: float) -> ContainerGet:
        return ContainerGet(self, amount)

    def _serve_gets(self) -> None:
        """Serve get waiters head-first; stop at the first blocked one."""
        waiters = self._get_waiters
        for i, event in enumerate(waiters):
            if event._value is not _PENDING:
                continue
            if event.amount <= self.level:
                self.level -= event.amount
                event.succeed()
            else:
                del waiters[:i]
                return
        waiters.clear()

    def _serve_puts(self) -> None:
        """Serve put waiters head-first; stop at the first blocked one."""
        waiters = self._put_waiters
        for i, event in enumerate(waiters):
            if event._value is not _PENDING:
                continue
            if self.level + event.amount <= self.capacity:
                self.level += event.amount
                event.succeed()
            else:
                del waiters[:i]
                return
        waiters.clear()
