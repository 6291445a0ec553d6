"""Tests for physical + link layers: timing, CFC, retry, control lane."""

import pytest

from repro import params
from repro.fabric import Channel, LinkLayer, Packet, PacketKind, PhysicalLayer, bifurcate, fragment
from repro.sim import Environment, SimRng


def mem_write(nbytes=64, channel=Channel.CXL_MEM):
    return Packet(kind=PacketKind.MEM_WR, channel=channel, src=0, dst=1,
                  nbytes=nbytes)


class TestPhysicalLayer:
    def test_serialization_time_matches_bandwidth(self):
        env = Environment()
        lp = params.LinkParams(lanes=16, gt_per_s=64.0)
        phys = PhysicalLayer(env, lp)
        flit = fragment(mem_write())[0]
        times = []

        def run():
            yield from phys.transmit(flit)
            times.append(env.now)

        env.process(run())
        env.run()
        expected = 68 / (16 * 64 / 8) + lp.propagation_ns
        assert times[0] == pytest.approx(expected)

    def test_wire_serializes_one_flit_at_a_time(self):
        env = Environment()
        lp = params.LinkParams(lanes=4, gt_per_s=32.0, propagation_ns=0.0)
        phys = PhysicalLayer(env, lp)
        done = []

        def run(tag):
            flit = fragment(mem_write())[0]
            yield from phys.transmit(flit)
            done.append((tag, env.now))

        for tag in range(3):
            env.process(run(tag))
        env.run()
        ser = 68 / (4 * 32 / 8)
        finish_times = [t for _, t in done]
        assert finish_times == pytest.approx([ser, 2 * ser, 3 * ser])

    def test_narrow_link_is_slower(self):
        wide = params.LinkParams(lanes=16)
        narrow = params.LinkParams(lanes=4)
        assert narrow.serialization_ns(68) == pytest.approx(
            4 * wide.serialization_ns(68))

    def test_rejects_bad_bifurcation(self):
        env = Environment()
        with pytest.raises(ValueError):
            PhysicalLayer(env, params.LinkParams(lanes=3))

    def test_utilization_tracking(self):
        env = Environment()
        phys = PhysicalLayer(env, params.LinkParams())

        def run():
            for _ in range(10):
                yield from phys.transmit(fragment(mem_write())[0])

        env.process(run())
        env.run()
        assert 0.0 < phys.utilization(env.now) <= 1.0


class TestBifurcate:
    def test_c4_port_bandwidth_target(self):
        """An x16 @ 64GT/s port carries 1024 Gbit/s raw, above the 512
        Gbit/s FabreX figure; a bifurcated x8 matches it."""
        x8 = params.LinkParams(lanes=8).bytes_per_ns * 8
        assert x8 == pytest.approx(params.SWITCH_PORT_BANDWIDTH_GBPS)

    def test_x16_splits_into_4_x4(self):
        children = bifurcate(params.LinkParams(lanes=16, credits=32), 4)
        assert len(children) == 4
        assert all(c.lanes == 4 for c in children)
        assert all(c.credits == 8 for c in children)

    def test_x16_splits_into_2_x8(self):
        children = bifurcate(params.LinkParams(lanes=16), 2)
        assert [c.lanes for c in children] == [8, 8]

    def test_invalid_ways_rejected(self):
        with pytest.raises(ValueError):
            bifurcate(params.LinkParams(lanes=16), 3)

    def test_x4_cannot_split(self):
        with pytest.raises(ValueError):
            bifurcate(params.LinkParams(lanes=4), 4)


class TestLinkLayerCfc:
    def _drain(self, env, link, consumed, delay=0.0):
        def drain():
            while True:
                flit = yield link.rx.get()
                if delay:
                    yield env.timeout(delay)
                link.consume(flit)
                consumed.append((env.now, flit))
        env.process(drain())

    def test_flits_flow_end_to_end(self):
        env = Environment()
        link = LinkLayer(env, name="l0")
        consumed = []
        self._drain(env, link, consumed)

        def send():
            for flit in fragment(mem_write(nbytes=256)):
                yield link.send(flit)

        env.process(send())
        env.run(until=1_000)
        assert len(consumed) == len(fragment(mem_write(nbytes=256)))

    def test_credits_bound_inflight_flits(self):
        env = Environment()
        lp = params.LinkParams(credits=4)
        link = LinkLayer(env, lp, name="l0")
        consumed = []
        # Slow consumer: 100ns per flit, so credits should throttle.
        self._drain(env, link, consumed, delay=100.0)

        def send():
            for _ in range(20):
                yield link.send(fragment(mem_write())[0])

        env.process(send())
        env.run(until=50_000)
        assert len(consumed) == 20
        assert link.max_rx_occupancy <= 4

    def test_credit_starved_sender_blocks(self):
        env = Environment()
        lp = params.LinkParams(credits=2)
        link = LinkLayer(env, lp, name="l0")
        # No consumer at all: only `credits` flits can be delivered.
        def send():
            for _ in range(10):
                yield link.send(fragment(mem_write())[0])

        env.process(send())
        env.run(until=10_000)
        assert len(link.rx.items) == 2

    def test_overcommit_allows_deeper_pipeline(self):
        env = Environment()
        lp = params.LinkParams(credits=2)
        link = LinkLayer(env, lp, name="l0", overcommit=2.0)

        def send():
            for _ in range(10):
                yield link.send(fragment(mem_write())[0])

        env.process(send())
        env.run(until=10_000)
        assert len(link.rx.items) == 4  # 2 credits x 2.0 overcommit

    def test_grant_and_revoke_credits(self):
        env = Environment()
        lp = params.LinkParams(credits=2)
        link = LinkLayer(env, lp, name="l0")
        link.grant_credits(0, 3)
        assert link.credits_granted(0) == 5

        def send():
            for _ in range(10):
                yield link.send(fragment(mem_write())[0])

        env.process(send())
        env.run(until=10_000)
        assert len(link.rx.items) == 5

    def test_revoke_reduces_future_grants(self):
        env = Environment()
        lp = params.LinkParams(credits=8)
        link = LinkLayer(env, lp, name="l0")

        def revoke():
            yield link.revoke_credits(0, 6)

        env.process(revoke())
        env.run(until=100)
        assert link.credits_granted(0) == 2
        assert link.credits_available(0) == 2

    def test_retransmission_on_error(self):
        env = Environment()
        link = LinkLayer(env, name="l0", error_rate=0.5, rng=SimRng(42))
        consumed = []
        self._drain(env, link, consumed)

        def send():
            for _ in range(50):
                yield link.send(fragment(mem_write())[0])

        env.process(send())
        env.run(until=100_000)
        assert len(consumed) == 50
        assert link.retransmissions > 0

    def test_control_lane_bypasses_data_credits(self):
        env = Environment()
        lp = params.LinkParams(credits=1)
        link = LinkLayer(env, lp, name="l0", control_lane=True)
        # Saturate data credits with no consumer...
        def send_data():
            for _ in range(5):
                yield link.send(fragment(mem_write())[0])

        # ...control flits must still get through.
        def send_ctrl():
            yield env.timeout(10)
            ctrl = Packet(kind=PacketKind.CTRL_REQ, channel=Channel.CONTROL,
                          src=0, dst=1, nbytes=0)
            for flit in fragment(ctrl):
                yield link.send(flit)

        env.process(send_data())
        env.process(send_ctrl())
        env.run(until=10_000)
        kinds = [f.packet.kind for f in link.rx.items]
        assert PacketKind.CTRL_REQ in kinds

    def test_validation(self):
        env = Environment()
        with pytest.raises(ValueError):
            LinkLayer(env, vcs=0)
        with pytest.raises(ValueError):
            LinkLayer(env, overcommit=0.5)
        with pytest.raises(ValueError):
            LinkLayer(env, error_rate=1.0)
