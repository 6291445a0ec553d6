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

from typing import Generator, List, Optional

from .. import params
from ..sim import Container, Environment, Event, SimRng, Store
from ..telemetry.causal import CREDIT_STALL, QUEUEING, SERIALIZATION, WIRE
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
        self._causal = tel.causal if tel is not None else None
        if self._causal is not None:
            # Sites are formatted once here, never per event.
            self._site_txq = f"link.{name}.txq"
            self._site_credit = f"link.{name}.credit"
            self._site_serialize = f"link.{name}.serialize"
            self._site_wire = f"link.{name}.wire"
        if tel is not None:
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
            env.process(self._control_sender(), name=f"{name}.ctrl-tx",
                        daemon=True)
        for vc in range(vcs):
            env.process(self._sender(vc), name=f"{name}.tx{vc}", daemon=True)

    # -- sending ----------------------------------------------------------

    def send(self, flit: Flit) -> Event:
        """Enqueue a flit for transmission; fires when queued (not sent)."""
        if self._causal is not None and flit.packet.trace is not None:
            # Residency in the tx queue, closed by the sender loop when
            # it dequeues the flit (HoL time behind earlier flits).
            flit.cspan = self._causal.begin(
                flit.packet.trace, self.env.now, QUEUEING, self._site_txq)
        if self.control_lane_enabled and flit.packet.channel is Channel.CONTROL:
            return self._control_queue.put(flit)
        if not 0 <= flit.vc < self.vcs:
            raise ValueError(f"flit VC {flit.vc} out of range")
        return self._tx_queues[flit.vc].put(flit)

    def tx_backlog(self, vc: int) -> int:
        return len(self._tx_queues[vc])

    def transmit_direct(self, flit: Flit) -> Generator[Event, None, None]:
        """Synchronously push one flit: credit, then wire.

        Used by switch egress pipelines so *their* scheduler — not the
        link's per-VC queues — decides wire order.  The caller blocks
        until the flit has been serialized (and so observes link-level
        backpressure directly); propagation overlaps with the next flit.
        """
        if self.control_lane_enabled and flit.packet.channel is Channel.CONTROL:
            yield from self._transmit_reliably(self._control_phys, flit)
            self._propagate(flit)
            return
        credit = self._credit_pools[flit.vc].get(1)
        if self._causal is not None and flit.packet.trace is not None:
            self._causal.wait(flit.packet.trace, credit, CREDIT_STALL,
                              self._site_credit)
        yield credit
        yield from self._transmit_reliably(self.phys, flit)
        self._propagate(flit)

    def _propagate(self, flit: Flit) -> None:
        """Put a serialized flit on the wire; it arrives by callback.

        The causal wire span opens now and closes on arrival.  The
        callback stands in for a propagation process: its start hook
        is credited here and its completion on arrival (see
        ``Environment.credit_elided``).
        """
        env = self.env
        wire = None
        if self._causal is not None and flit.packet.trace is not None:
            wire = self._causal.begin(flit.packet.trace, env.now,
                                      WIRE, self._site_wire)
        arrive = self._arrive
        if self._san is not None:
            arrive = self._san.writer("_propagate").wrap(arrive)
        env.credit_elided(1)
        env.call_later(self.params.propagation_ns, arrive, flit, wire)

    def _arrive(self, flit: Flit, wire: Optional[int]) -> None:
        if wire is not None:
            self._causal.end(flit.packet.trace, self.env.now, wire)
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

    def _sender(self, vc: int) -> Generator[Event, None, None]:
        queue = self._tx_queues[vc]
        pool = self._credit_pools[vc]
        causal = self._causal
        while True:
            flit = yield queue.get()
            if causal is not None and flit.cspan is not None:
                causal.end(flit.packet.trace, self.env.now, flit.cspan)
                flit.cspan = None
            credit = pool.get(1)
            if causal is not None and flit.packet.trace is not None:
                causal.wait(flit.packet.trace, credit, CREDIT_STALL,
                            self._site_credit)
            yield credit
            yield from self._transmit_reliably(self.phys, flit)
            self._propagate(flit)

    def _control_sender(self) -> Generator[Event, None, None]:
        causal = self._causal
        while True:
            flit = yield self._control_queue.get()
            if causal is not None and flit.cspan is not None:
                causal.end(flit.packet.trace, self.env.now, flit.cspan)
                flit.cspan = None
            yield from self._transmit_reliably(self._control_phys, flit)
            self._propagate(flit)

    def _transmit_reliably(self, phys: PhysicalLayer,
                           flit: Flit) -> Generator[Event, None, None]:
        serialize = None
        if self._causal is not None and flit.packet.trace is not None:
            # Retries included: NAK round-trips are serialization cost.
            serialize = self._causal.begin(
                flit.packet.trace, self.env.now, SERIALIZATION,
                self._site_serialize)
        while True:
            yield from phys.serialize(flit)
            if self.error_rate and self.rng.bernoulli(self.error_rate):
                self.retransmissions += 1
                if self._tel is not None:
                    self._m_retries.inc(time=self.env.now)
                # The NAK round-trip before the flit is re-serialized.
                yield self.env.timeout(2 * self.params.propagation_ns)
                continue
            if self._tel is not None:
                # Counter.inc inlined: one per-flit bump, no calls.
                now = self.env._now
                counter = self._m_flits
                counter.value += 1.0
                counter.last_time = now
                counter = self._m_bytes
                counter.value += flit.size_bytes
                counter.last_time = now
            if serialize is not None:
                self._causal.end(flit.packet.trace, self.env.now,
                                 serialize)
            return

    def _deliver(self, flit: Flit) -> None:
        self._rx_occupancy += 1
        self.max_rx_occupancy = max(    # fcc: allow[static-write-race]
            self.max_rx_occupancy, self._rx_occupancy)
        # (max-accumulate commutes with the preceding += — any
        # same-timestamp dispatch order lands on the same peak)
        self.rx.put_forget(flit)
