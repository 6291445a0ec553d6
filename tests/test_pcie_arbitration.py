"""Tests for egress scheduling disciplines."""

import pytest

from repro.fabric import Channel, Packet, PacketKind
from repro.fabric.flit import Flit
from repro.pcie import FairVcScheduler, FifoScheduler, PriorityScheduler, make_scheduler
from repro.sim import Environment


def flit(vc=0, size=68, prio=None, dst=1):
    meta = {} if prio is None else {"prio": prio}
    pkt = Packet(kind=PacketKind.MEM_WR, channel=Channel.CXL_MEM,
                 src=0, dst=dst, nbytes=64, meta=meta)
    return Flit(packet=pkt, index=0, total=1, size_bytes=size, vc=vc)


def serve(scheduler):
    """Wait for the next flit the way an egress loop does: ``take()``,
    then ``taken()``, again after an arrival wake."""
    while True:
        item = scheduler.taken((yield scheduler.take()))
        if item is not None:
            return item


def drain(env, scheduler, n):
    """Pre-condition: all pushes already completed (run the env first)."""
    out = []

    def run():
        for _ in range(n):
            item = yield from serve(scheduler)
            out.append(item)

    env.process(run())
    env.run(until=env.now + 1_000)
    return out


def fill(env, scheduler, flits):
    def feed():
        for f in flits:
            yield scheduler.push(f)

    env.process(feed())
    env.run(until=env.now + 1)


class TestFifoScheduler:
    def test_pure_arrival_order(self):
        env = Environment()
        sched = FifoScheduler(env)
        flits = [flit(vc=i % 2) for i in range(6)]
        fill(env, sched, flits)
        assert drain(env, sched, 6) == flits

    def test_capacity_backpressure(self):
        env = Environment()
        sched = FifoScheduler(env, capacity=2)
        accepted = []

        def feed():
            for i in range(5):
                yield sched.push(flit())
                accepted.append(i)

        env.process(feed())
        env.run(until=100)
        assert accepted == [0, 1]  # third push blocks

    def test_invalid_capacity(self):
        env = Environment()
        with pytest.raises(ValueError):
            FifoScheduler(env, capacity=0)

    def test_take_on_empty_waits_for_arrival(self):
        # An empty scheduler hands out an arrival event; its wake
        # yields no flit, and the next take serves the new head.
        env = Environment()
        sched = FifoScheduler(env)
        staged = flit()
        woke, served = [], []

        def run():
            woke.append(sched.taken((yield sched.take())))
            served.append((yield from serve(sched)))

        def feed():
            yield env.timeout(5)
            yield sched.push(staged)

        env.process(run())
        env.process(feed())
        env.run()
        assert woke == [None]
        assert served == [staged]


class TestFairVcScheduler:
    def test_small_vc_not_starved_by_bulk_vc(self):
        env = Environment()
        sched = FairVcScheduler(env, capacity=1000)
        bulk = [flit(vc=1, size=256) for _ in range(8)]
        small = [flit(vc=0, size=68) for _ in range(8)]
        # All bulk arrives (and queues) before the small flits.
        fill(env, sched, bulk + small)
        out = drain(env, sched, 16)
        # Fair queueing must interleave: the last small flit should not
        # be behind all bulk flits.
        position_last_small = max(i for i, f in enumerate(out) if f.vc == 0)
        assert position_last_small < 15

    def test_weights_bias_service(self):
        env = Environment()
        sched = FairVcScheduler(env, capacity=1000,
                                weights={0: 4.0, 1: 1.0})
        interleaved = []
        for _ in range(8):
            interleaved.append(flit(vc=0))
            interleaved.append(flit(vc=1))
        fill(env, sched, interleaved)
        out = drain(env, sched, 16)
        first_half_vc0 = sum(1 for f in out[:8] if f.vc == 0)
        assert first_half_vc0 >= 5  # the weighted VC dominates early service


class TestPriorityScheduler:
    def test_high_priority_first(self):
        env = Environment()
        sched = PriorityScheduler(env)
        low = flit(prio=0)
        high = flit(prio=10)
        fill(env, sched, [low, high])
        out = drain(env, sched, 2)
        assert out == [high, low]

    def test_fifo_within_same_priority(self):
        env = Environment()
        sched = PriorityScheduler(env)
        flits = [flit(prio=5) for _ in range(4)]
        fill(env, sched, flits)
        assert drain(env, sched, 4) == flits


class TestFactory:
    @pytest.mark.parametrize("name,cls", [
        ("fifo", FifoScheduler),
        ("fair", FairVcScheduler),
        ("priority", PriorityScheduler),
    ])
    def test_known_names(self, name, cls):
        env = Environment()
        assert isinstance(make_scheduler(name, env), cls)

    def test_unknown_name(self):
        env = Environment()
        with pytest.raises(ValueError):
            make_scheduler("wrr", env)
