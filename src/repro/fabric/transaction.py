"""Transaction layer: channel semantics over a pair of links.

A :class:`TransactionPort` is the bidirectional endpoint attached to a
component (host adapter, endpoint adapter, switch-internal management
port).  It provides:

* ``request`` — send a request packet and get an event that fires with
  the matching response (tag-correlated);
* ``post`` — fire-and-forget send (posted writes, responses);
* a server loop that hands inbound *requests* to a user handler while
  matching inbound *responses* to outstanding tags;
* per-channel send ordering (CXL.mem requests stay ordered; different
  channels do not block each other — they map to different VCs);
* a bounded outstanding-request (tag) window: a requester that finds
  every tag in use queues in the port's FIFO until a response frees one.

The tag-window wake order
-------------------------

A blocked requester takes a *join number* and waits on one plain event.
Each outstanding response event gets at most two port-owned
:class:`_TagWake` callbacks, appended lazily when a requester blocks:
one in front of the response's own requester's resume (covering
waiters that blocked while that requester was still emitting flits)
and one after it (waiters that blocked after the requester started
waiting on the response).  When the response fires, each hook wakes
the FIFO prefix it covers, in join order.  That is exactly the order —
and the ``(time, priority, seq)`` slots — in which one ``AnyOf`` per
waiter over every outstanding response would fire, at O(1) amortized
cost per blocked requester instead of O(window).  Every woken waiter
re-checks the window; all but the first to find a free tag re-queue.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, Generator, List, Optional, Tuple

from ..sim import Environment, Event, SimulationError, Store
from ..telemetry.core import QUEUEING, ROOT
from .flit import (
    Channel,
    Flit,
    Packet,
    PacketKind,
    Reassembler,
    REQUEST_KINDS,
    TagAllocator,
    fragment,
)
from .link import LinkLayer

__all__ = ["TransactionPort", "DEFAULT_VC_MAP"]

#: Default channel -> virtual channel mapping.  Separating CXL.io bulk
#: traffic from CXL.mem cacheline traffic onto distinct VCs is what
#: prevents 16KB writes from head-of-line blocking 64B reads (section 3,
#: difference 3).
DEFAULT_VC_MAP: Dict[Channel, int] = {
    Channel.CXL_MEM: 0,
    Channel.CXL_CACHE: 0,
    Channel.CXL_IO: 1,
    Channel.CONTROL: 0,   # rides the control lane when enabled
}

RequestHandler = Callable[[Packet], Generator[Event, None, Optional[Packet]]]


class _TagWake:
    """A port-owned callback on one outstanding response event.

    Fires with the response and wakes the blocked requesters whose join
    number is below ``limit``, front of the FIFO first.  ``limit`` stays
    ``None`` while the hook is the response's newest one; it is fixed
    when a later hook is appended to the same response, or when
    ``_dispatch`` pops the response (requesters that block after that
    do not wait on it).
    """

    __slots__ = ("waiters", "limit")

    def __init__(self, waiters: Deque[Tuple[int, Event]]) -> None:
        self.waiters = waiters
        self.limit: Optional[int] = None

    def __call__(self, event: Event) -> None:
        waiters = self.waiters
        limit = self.limit
        while waiters and waiters[0][0] < limit:
            waiters.popleft()[1].succeed()


class TransactionPort:
    """Endpoint of the fabric: sends/receives packets over two links."""

    def __init__(self, env: Environment, tx_link: LinkLayer,
                 rx_link: LinkLayer, port_id: int,
                 name: str = "port",
                 tag_capacity: int = 256,
                 vc_map: Optional[Dict[Channel, int]] = None) -> None:
        self.env = env
        self.tx_link = tx_link
        self.rx_link = rx_link
        self.port_id = port_id
        self.name = name
        self.vc_map = dict(vc_map or DEFAULT_VC_MAP)
        self.tags = TagAllocator(tag_capacity)
        self._pending: Dict[int, Event] = {}
        # Tag-window FIFO (see the module docstring): blocked requesters
        # as (join number, wake event), the next join number, and the
        # responses whose requester attached after their first hook
        # (they take their second hook at the next block).
        self._waiters: Deque[Tuple[int, Event]] = deque()
        self._joins = 0
        self._rehook: List[Event] = []
        self._reassembler = Reassembler()
        self.inbound_requests: Store = Store(env)
        self._handler: Optional[RequestHandler] = None
        self.requests_sent = 0
        self.responses_received = 0
        self.orphan_responses = 0
        # Ports are where fabric transactions *root*: a request with no
        # trace context asks telemetry to sample one.  Cached: one
        # is-None branch per request when telemetry is off.
        tel = env.telemetry
        self._tel = tel
        if tel is not None:
            self._h_latency = tel.registry.histogram(
                f"port.{name}.request_ns")
            self._site_tags = f"port.{name}.tags"
            self._route_prefix = f"{name}:"
        env.process(self._receiver(), name=f"{name}.rx", daemon=True)

    # -- sending -----------------------------------------------------------

    def request(self, packet: Packet) -> Generator[Event, None, Packet]:
        """Send a request; yields until the tagged response arrives.

        Usage: ``response = yield from port.request(packet)``.
        """
        if packet.kind not in REQUEST_KINDS:
            raise ValueError(f"{packet.kind} is not a request kind")
        tel = self._tel
        rooted = False
        if tel is not None and packet.trace is None:
            context = tel.sample_root()
            if context is not None:
                packet.trace = context
                rooted = True
                route = self._route_prefix + packet.kind.value
                tel.begin(packet.kind.value, context, track=route)
        issued = self.env.now
        tag_wait = None
        if tel is not None and packet.trace is not None \
                and not self.tags.available:
            tag_wait = tel.begin(self._site_tags, packet.trace, QUEUEING)
        while not self.tags.available:
            # Outstanding-request window full: queue for the next
            # completion, then re-check (another waiter may win the tag).
            yield self._block()
        if tag_wait is not None:
            tel.end(tag_wait, packet.trace)
        packet.tag = self.tags.allocate()
        packet.src = self.port_id
        packet.birth_ns = self.env.now
        done = self.env.event()
        self._pending[packet.tag] = done
        yield from self._emit(packet)
        self.requests_sent += 1
        if done.callbacks:
            # Waiters blocked while we emitted; our resume now lands
            # behind their hook, so later waiters need one behind it.
            self._rehook.append(done)
        response = yield done
        now = self.env.now
        if tel is not None:
            self._h_latency.observe(now - issued, time=now)
        if rooted:
            tel.end(ROOT, packet.trace, now)
        return response

    def _block(self) -> Event:
        """Join the tag-window FIFO; returns the event to wait on.

        Hooks every outstanding response not yet covering this join:
        responses issued since the previous block (the tail of the
        insertion-ordered ``_pending``; everything older was hooked
        then) and responses whose requester attached since their first
        hook.  Each response is visited at most twice, so a block costs
        O(1) amortized.
        """
        join = self._joins
        self._joins = join + 1
        waiters = self._waiters
        for done in self._rehook:
            if not done.triggered:
                done.callbacks[0].limit = join
                done.callbacks.append(_TagWake(waiters))
        self._rehook.clear()
        for done in reversed(self._pending.values()):
            if done.callbacks:
                break
            done.callbacks.append(_TagWake(waiters))
        wake = self.env.event()
        waiters.append((join, wake))
        return wake

    def post(self, packet: Packet) -> Generator[Event, None, None]:
        """Send a packet without expecting a response."""
        packet.src = self.port_id
        if packet.birth_ns == 0.0:
            packet.birth_ns = self.env.now   # fcc: allow[static-write-race]
        # (guarded first-write: every server instance that could race
        # here at one timestamp would store the identical env.now, and
        # a packet is only ever posted by one process anyway)
        yield from self._emit(packet)

    def _emit(self, packet: Packet) -> Generator[Event, None, None]:
        vc = self.vc_map.get(packet.channel, 0)
        for flit in fragment(packet, self.tx_link.params.flit_bytes, vc=vc):
            yield self.tx_link.send(flit)

    # -- serving -----------------------------------------------------------

    def serve(self, handler: RequestHandler, concurrency: int = 1) -> None:
        """Install a request handler; responses it returns are sent back.

        The handler is a generator taking the request packet and
        returning an optional response packet.  ``concurrency`` models
        the device's internal parallelism (e.g. FAM media banks): that
        many requests are serviced simultaneously.
        """
        if self._handler is not None:
            raise SimulationError(f"{self.name} already has a handler")
        if concurrency < 1:
            raise ValueError(f"concurrency must be >= 1, got {concurrency}")
        self._handler = handler
        for i in range(concurrency):
            self.env.process(self._server(), name=f"{self.name}.server{i}",
                             daemon=True)

    def _server(self) -> Generator[Event, None, None]:
        while True:
            packet = yield self.inbound_requests.get()
            response = yield from self._handler(packet)
            if response is not None:
                yield from self.post(response)

    # -- receive path --------------------------------------------------------

    def _receiver(self) -> Generator[Event, None, None]:
        while True:
            flit: Flit = yield self.rx_link.rx.get()
            self.rx_link.consume(flit)
            packet = self._reassembler.push(flit)
            if packet is None:
                continue
            self._dispatch(packet)

    def _dispatch(self, packet: Packet) -> None:
        waiter = self._pending.pop(packet.tag, None) \
            if packet.kind not in REQUEST_KINDS else None
        if waiter is not None:
            # Seal the newest wake hook: requesters blocking from here on
            # wait on other responses.
            for hook in waiter.callbacks:
                if hook.__class__ is _TagWake and hook.limit is None:
                    hook.limit = self._joins
            self.tags.free(packet.tag)
            self.responses_received += 1
            if self._tel is not None and packet.trace is not None:
                self._tel.instant("deliver", packet.trace,
                                  track=self.name)
            waiter.succeed(packet)
            return
        if packet.kind in REQUEST_KINDS:
            self.inbound_requests.put_forget(packet)
            return
        # A response without a matching request: the completion of a
        # posted write (benign), or a stale tag.  Count and drop — a
        # receiver must never die, or its link backpressures the fabric.
        self.orphan_responses += 1
