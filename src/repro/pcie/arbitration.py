"""Egress-port scheduling disciplines for fabric switches.

Section 3 (difference #3) observes that the de facto CFC switch
scheduler is *credit-agnostic* FIFO, which causes head-of-line blocking
when small latency-sensitive flits queue behind bulk transfers.

The switch stages flits for each egress port in an
:class:`EgressScheduler` built from per-class bounded queues (the
moral equivalent of virtual-output/VC queues in a real switch):

* :class:`FifoScheduler` — ONE shared queue in arrival order: the
  credit-agnostic baseline.  Under overload, small flits physically
  queue behind bulk flits (HoL blocking across channels);
* :class:`FairVcScheduler` — one queue per virtual channel, served by
  start-time fair queueing over bytes: a VC carrying 16 KB bursts
  cannot starve a VC carrying 64 B flits;
* :class:`PriorityScheduler` — one queue per priority level, higher
  ``packet.meta['prio']`` served first; this is what the DP#4 central
  arbiter programs for reserved flows.
"""

from __future__ import annotations

import itertools
from typing import Dict, Hashable, Optional, Tuple

from ..sim import Environment, Event, Store
from ..telemetry.core import ARBITRATION, QUEUEING

__all__ = ["EgressScheduler", "FifoScheduler", "FairVcScheduler",
           "PriorityScheduler", "make_scheduler"]


class EgressScheduler:
    """Per-class bounded staging queues + a service-order policy.

    Subclasses define :meth:`_queue_id` (which queue a flit waits in)
    and :meth:`_key` (service order among queue heads; lower first,
    ties broken by arrival).  Queue capacity bounds switch buffering,
    so a congested class back-pressures its own ingress pipelines (and
    transitively upstream links) without blocking other classes —
    except for :class:`FifoScheduler`, whose single queue blocks
    everyone, which is precisely the paper's baseline pathology.
    """

    def __init__(self, env: Environment, capacity: int = 64) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self._queues: Dict[Hashable, Store] = {}
        self._seq = itertools.count()
        self._arrival: Optional[Event] = None
        self._taking: Optional[Hashable] = None  # queue of the pending take
        self.enqueued = 0
        # The telemetry hub when it samples transactions (cached, one
        # is-None branch when off).  The switch stamps `site` at attach
        # time; `_head_ts` remembers, per queue, when its current head
        # reached the head — the boundary between time-in-queue
        # (queueing) and time-at-head losing grants (arbitration).
        # Maintained only on sampled runs.
        tel = env.telemetry
        self._tel = tel if tel is not None \
            and tel.causal_sample is not None else None
        self.site = "sched"
        self._head_ts: Dict[Hashable, float] = {}

    def push(self, flit) -> Event:
        """Stage a flit; the event fires once its queue had space."""
        self.enqueued += 1
        entry = (self._key(flit), next(self._seq), flit)
        queue_id = self._queue_id(flit)
        queue = self._queues.get(queue_id)
        if queue is None:
            queue = Store(self.env, capacity=self.capacity)
            self._queues[queue_id] = queue
        put_event = queue.put(entry)
        put_event.callbacks.append(self._notify_arrival)
        if self._tel is not None:
            trace = flit.packet.trace

            def _staged(event, self=self, queue=queue, queue_id=queue_id,
                        flit=flit, trace=trace):
                now = event.env.now
                if len(queue.items) == 1:
                    self._head_ts[queue_id] = now
                if trace is not None:
                    flit.cspan = self._tel.begin(self.site, trace, QUEUEING,
                                                 now)

            put_event.callbacks.append(_staged)
        return put_event

    def take(self) -> Event:
        """The event to wait on for the next flit to serve.

        A ``get`` on the queue whose head has the lowest key or, with
        every queue empty, an event that fires on the next arrival.
        Hand its value to :meth:`taken`.
        """
        best_queue = None
        best_entry = None
        for queue_id, queue in self._queues.items():
            if not queue.items:
                continue
            head = queue.items[0]
            if best_entry is None or head[:2] < best_entry[:2]:
                best_queue, best_entry = queue, head
                self._taking = queue_id
        if best_queue is not None:
            return best_queue.get()
        self._arrival = self.env.event()
        return self._arrival

    def taken(self, value) -> Optional[object]:
        """The flit that ``take()``'s event delivered, now in service.

        ``None`` after an arrival wake: take again.
        """
        if value is None:
            self._arrival = None
            return None
        self._on_pop(value)
        if self._tel is not None:
            self._record_grant(self._taking, value[2])
        return value[2]

    def _record_grant(self, queue_id: Hashable, flit) -> None:
        """Split a traced flit's scheduler time at the head boundary."""
        now = self.env.now
        head_since = min(self._head_ts.get(queue_id, now), now)
        self._head_ts[queue_id] = now    # the next head starts aging
        trace = flit.packet.trace
        if trace is None:
            return
        tel = self._tel
        if flit.cspan is not None:
            # Queue residency ends when the flit reached the head; the
            # analyzer clamps if the head estimate predates the enqueue
            # (possible only across same-instant callback orderings).
            tel.end(flit.cspan, trace, head_since)
            flit.cspan = None
        if now - head_since > 0.0:
            # Recorded after the fact: both edges are known only now.
            tel.end(tel.begin(self.site, trace, ARBITRATION, head_since),
                    trace, now)
        tel.instant("arb.grant", trace, now, self.site)

    def __len__(self) -> int:
        return sum(len(q) for q in self._queues.values())

    # -- policy hooks -----------------------------------------------------

    def _queue_id(self, flit) -> Hashable:
        raise NotImplementedError

    def _key(self, flit) -> Tuple:
        raise NotImplementedError

    def _on_pop(self, entry: Tuple) -> None:
        """Hook: called with the (key, seq, flit) entry entering service."""

    # -- internals -----------------------------------------------------------

    def _notify_arrival(self, _event: Event) -> None:
        if self._arrival is not None and not self._arrival.triggered:
            self._arrival.succeed()


class FifoScheduler(EgressScheduler):
    """Credit-agnostic single queue; the paper's baseline discipline."""

    def _queue_id(self, flit) -> Hashable:
        return "all"

    def _key(self, flit) -> Tuple:
        return ()   # sequence number alone decides: pure FIFO


class FairVcScheduler(EgressScheduler):
    """Start-time fair queueing across virtual channels."""

    def __init__(self, env: Environment, capacity: int = 64,
                 weights: Dict[int, float] = None) -> None:
        super().__init__(env, capacity)
        self._vtime: Dict[int, float] = {}
        self._weights = dict(weights or {})
        self._virtual_clock = 0.0

    def _queue_id(self, flit) -> Hashable:
        return flit.vc

    def _key(self, flit) -> Tuple:
        vc = flit.vc
        weight = self._weights.get(vc, 1.0)
        # A newly active VC starts at the virtual time currently in
        # service: it neither replays its idle past nor waits behind a
        # busy VC's accumulated virtual time.
        start = max(self._vtime.get(vc, 0.0), self._virtual_clock)
        self._vtime[vc] = start + flit.size_bytes / weight
        return (start,)

    def _on_pop(self, entry: Tuple) -> None:
        key = entry[0]
        if key:
            self._virtual_clock = max(self._virtual_clock, key[0])


class PriorityScheduler(EgressScheduler):
    """Serves higher ``packet.meta['prio']`` first (arbiter-programmed)."""

    def _queue_id(self, flit) -> Hashable:
        return float(flit.packet.meta.get("prio", 0.0))

    def _key(self, flit) -> Tuple:
        return (-float(flit.packet.meta.get("prio", 0.0)),)


_SCHEDULERS = {
    "fifo": FifoScheduler,
    "fair": FairVcScheduler,
    "priority": PriorityScheduler,
}


def make_scheduler(name: str, env: Environment,
                   capacity: int = 64) -> EgressScheduler:
    """Factory used by switch/topology configuration strings."""
    try:
        cls = _SCHEDULERS[name]
    except KeyError:
        raise ValueError(
            f"unknown scheduler {name!r}; choose from {sorted(_SCHEDULERS)}")
    return cls(env, capacity=capacity)
