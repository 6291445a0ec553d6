"""Link layer: reliable flit transmission with credit-based flow control.

Implements what section 2.1 describes for the Flex Bus link layer:

* hop-by-hop **credit-based flow control** — the sender may only push a
  flit when it holds a credit for the receiver's buffer on that virtual
  channel;
* a **credit update protocol** — the receiver returns credits after a
  configurable update cadence (piggybacking delay);
* an **overcommitment scheme** — the receiver may grant more credits
  than buffer slots to improve utilization of bursty channels;
* **ack/retry reliability** — flits that fail CRC (injected error rate)
  are retransmitted;
* an optional **dedicated control lane** (design principle #4) — a thin
  reserved slice of bandwidth that arbiter traffic uses without taking
  data-path credits.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, List, Optional

from .. import params
from ..sim import Container, Environment, Event, SimRng, Store
from ..telemetry.core import CREDIT_STALL, QUEUEING, SERIALIZATION, WIRE
from .flit import Channel, Flit
from .phys import PhysicalLayer

__all__ = ["LinkLayer"]

class LinkLayer:
    """One unidirectional fabric link with CFC.

    The receiving component drains :attr:`rx` and must call
    :meth:`consume` for every flit it takes; that is what returns the
    credit to the sender (after the credit-update delay).
    """

    def __init__(self, env: Environment,
                 link_params: Optional[params.LinkParams] = None,
                 vcs: int = 2,
                 name: str = "link",
                 overcommit: float = 1.0,
                 credit_update_ns: float = params.CREDIT_UPDATE_INTERVAL_NS,
                 control_lane: bool = False,
                 error_rate: float = 0.0,
                 rng: Optional[SimRng] = None,
                 tx_queue_capacity: float = float("inf")) -> None:
        if vcs < 1:
            raise ValueError(f"need at least one VC, got {vcs}")
        if overcommit < 1.0:
            raise ValueError(f"overcommit must be >= 1.0, got {overcommit}")
        if not 0.0 <= error_rate < 1.0:
            raise ValueError(f"error_rate must be in [0, 1), got {error_rate}")
        self.env = env
        self.params = link_params or params.LinkParams()
        self.name = name
        self.vcs = vcs
        self.credit_update_ns = credit_update_ns
        self.error_rate = error_rate
        self.rng = rng or SimRng(0)
        self.phys = PhysicalLayer(env, self.params, name=f"{name}.phys")

        initial = int(self.params.credits * overcommit)
        self._credit_pools: List[Container] = [
            Container(env, capacity=max(initial, self.params.credits) * 4,
                      init=initial)
            for _ in range(vcs)
        ]
        self._tx_queues: List[Store] = [
            Store(env, capacity=tx_queue_capacity) for _ in range(vcs)]
        self.rx: Store = Store(env)
        self.retransmissions = 0
        self.max_rx_occupancy = 0
        self._rx_occupancy = 0
        self._granted = [initial] * vcs

        # Telemetry is cached once; every hot-path hook below is a
        # single `is None` branch when observability is off.
        self._tel = tel = env.telemetry
        if tel is not None:
            # Sites are formatted once here, never per event.
            self._site_txq = f"link.{name}.txq"
            self._site_credit = f"link.{name}.credit"
            self._site_serialize = f"link.{name}.serialize"
            self._site_wire = f"link.{name}.wire"
            registry = tel.registry
            self._m_flits = registry.counter(f"link.{name}.flits")
            self._m_bytes = registry.counter(f"link.{name}.bytes")
            self._m_retries = registry.counter(f"link.{name}.retries")
            tel.add_probe(f"link.{name}.rx_occupancy",
                          lambda: self._rx_occupancy,
                          track=f"link.{name}")
            for vc in range(vcs):
                pool = self._credit_pools[vc]
                queue = self._tx_queues[vc]
                tel.add_probe(f"link.{name}.vc{vc}.credits",
                              lambda p=pool: p.level,
                              track=f"link.{name}")
                tel.add_probe(f"link.{name}.vc{vc}.tx_backlog",
                              lambda q=queue: len(q),
                              track=f"link.{name}")

        self._san = env.sanitizer

        self.control_lane_enabled = control_lane
        if control_lane:
            ctrl_bw = params.LinkParams(
                lanes=4, gt_per_s=self.params.gt_per_s
                * params.CONTROL_LANE_FRACTION * 4,
                flit_bytes=params.FLIT_BYTES_SMALL,
                propagation_ns=self.params.propagation_ns)
            self._control_phys = PhysicalLayer(env, ctrl_bw,
                                               name=f"{name}.ctrl")
            self._control_queue: Store = Store(env)
            env.process(self.transmit_loop(self._control_queue.get),
                        name=f"{name}.ctrl-tx", daemon=True)
        for vc in range(vcs):
            env.process(self.transmit_loop(self._tx_queues[vc].get),
                        name=f"{name}.tx{vc}", daemon=True)

    # -- sending ----------------------------------------------------------

    def send(self, flit: Flit) -> Event:
        """Enqueue a flit for transmission; fires when queued (not sent)."""
        if self.control_lane_enabled and flit.packet.channel is Channel.CONTROL:
            queue = self._control_queue
        elif 0 <= flit.vc < self.vcs:
            queue = self._tx_queues[flit.vc]
        else:
            raise ValueError(f"flit VC {flit.vc} out of range")
        if self._tel is not None and flit.packet.trace is not None:
            # Residency in the tx queue, closed by the transmit loop
            # when it dequeues the flit (HoL time behind earlier flits).
            flit.cspan = self._tel.begin(self._site_txq, flit.packet.trace,
                                         QUEUEING)
        return queue.put(flit)

    def tx_backlog(self, vc: int) -> int:
        return len(self._tx_queues[vc])

    def transmit_loop(self, take: Callable[[], Event],
                      taken: Optional[Callable[[Any], Optional[Flit]]] = None,
                      done: Optional[Callable[[Flit], None]] = None
                      ) -> Generator[Event, Any, None]:
        """Put flits on this link's wire, one whole hop per iteration.

        The link's VC and control-lane senders and every switch egress
        run this loop.  ``take()`` returns the event to wait on for the
        next flit.  Its value is the flit or, when ``taken`` is given,
        what ``taken(value)`` turns into the flit; ``None`` means there
        is nothing to send yet, so take again.  Each flit then:

        * closes its queue span;
        * takes a data credit, unless it is a control-lane flit, which
          rides the credit-free control lane;
        * holds the wire for its serialization time, and after a CRC
          error waits the NAK round trip and serializes again;
        * bumps the counters and propagates;
        * is handed to ``done(flit)``, if given.

        The caller blocks until the flit has been serialized, so it
        sees link-level backpressure directly; propagation overlaps
        with the next flit.
        """
        env = self.env
        tel = self._tel
        control_lane = self.control_lane_enabled
        pools = self._credit_pools
        while True:
            flit = yield take()
            if taken is not None:
                flit = taken(flit)
                if flit is None:
                    continue
            trace = flit.packet.trace if tel is not None else None
            if trace is not None and flit.cspan is not None:
                tel.end(flit.cspan, trace)
                flit.cspan = None
            if control_lane and flit.packet.channel is Channel.CONTROL:
                phys = self._control_phys
            else:
                phys = self.phys
                credit = pools[flit.vc].get(1)
                if trace is not None:
                    tel.wait(self._site_credit, trace, CREDIT_STALL,
                             credit)
                yield credit
            serialize = None
            if trace is not None:
                # Retries included: NAK round-trips are serialization cost.
                serialize = tel.begin(self._site_serialize, trace,
                                      SERIALIZATION)
            wire = phys.wire
            while True:
                request = wire.request()
                try:
                    yield request
                    yield env.timeout(phys.serialization_ns(flit))
                finally:
                    wire.release(request)
                phys.flits_sent += 1
                phys.bytes_sent += flit.size_bytes
                if not (self.error_rate
                        and self.rng.bernoulli(self.error_rate)):
                    break
                self.retransmissions += 1
                if tel is not None:
                    self._m_retries.inc(time=env.now)
                # The NAK round-trip before the flit is re-serialized.
                yield env.timeout(2 * self.params.propagation_ns)
            if tel is not None:
                # Counter.inc inlined: one per-flit bump, no calls.
                now = env._now
                counter = self._m_flits
                counter.value += 1.0
                counter.last_time = now
                counter = self._m_bytes
                counter.value += flit.size_bytes
                counter.last_time = now
            if serialize is not None:
                tel.end(serialize, trace)
            self._propagate(flit)
            if done is not None:
                done(flit)

    def _propagate(self, flit: Flit) -> None:
        """Put a serialized flit on the wire; it arrives by callback.

        A traced flit's wire interval opens now and closes on arrival.  The
        callback stands in for a propagation process: its start hook
        is credited here and its completion on arrival (see
        ``Environment.credit_elided``).
        """
        env = self.env
        wire = None
        if self._tel is not None and flit.packet.trace is not None:
            wire = self._tel.begin(self._site_wire, flit.packet.trace, WIRE)
        arrive = self._arrive
        if self._san is not None:
            arrive = self._san.writer("_propagate").wrap(arrive)
        env.credit_elided(1)
        env.call_later(self.params.propagation_ns, arrive, flit, wire)

    def _arrive(self, flit: Flit, wire: Optional[int]) -> None:
        if wire is not None:
            self._tel.end(wire, flit.packet.trace)
        self._deliver(flit)
        self.env.credit_elided(1)

    # -- credit management (exposed to allocators / the arbiter) ----------

    def credits_available(self, vc: int) -> float:
        return self._credit_pools[vc].level

    def credits_granted(self, vc: int) -> int:
        return self._granted[vc]

    def grant_credits(self, vc: int, n: int) -> None:
        """Give the sender ``n`` extra credits on ``vc`` (allocator API)."""
        if n <= 0:
            raise ValueError(f"n must be > 0, got {n}")
        self._granted[vc] += n
        self._credit_pools[vc].put_forget(n)

    def revoke_credits(self, vc: int, n: int) -> Event:
        """Take back ``n`` credits; completes once they are reclaimable."""
        if n <= 0:
            raise ValueError(f"n must be > 0, got {n}")
        self._granted[vc] = max(0, self._granted[vc] - n)
        return self._credit_pools[vc].get(n)

    # -- receiving --------------------------------------------------------

    def consume(self, flit: Flit) -> None:
        """Receiver took ``flit`` out of its buffer: return the credit."""
        self._rx_occupancy -= 1
        if flit.packet.channel is Channel.CONTROL and self.control_lane_enabled:
            return  # control lane is credit-free
        # The credit lands after the update cadence by callback; as in
        # `_propagate`, the start hook and completion of the process it
        # stands in for are credited here and in the callback.  It
        # needs no sanitizer writer: it writes only a Container, which
        # the write-race rule does not watch.
        env = self.env
        env.credit_elided(1)
        env.call_later(self.credit_update_ns, self._put_credit,
                       self._credit_pools[flit.vc])

    # -- internals ---------------------------------------------------------

    def _put_credit(self, pool: Container) -> None:
        pool.put_forget(1)
        self.env.credit_elided(1)

    def _deliver(self, flit: Flit) -> None:
        self._rx_occupancy += 1
        self.max_rx_occupancy = max(    # fcc: allow[static-write-race]
            self.max_rx_occupancy, self._rx_occupancy)
        # (max-accumulate commutes with the preceding += — any
        # same-timestamp dispatch order lands on the same peak)
        self.rx.put_forget(flit)
