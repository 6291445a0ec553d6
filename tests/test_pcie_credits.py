"""Tests for per-flow credit budgeting (CFC pathologies, claims C5-C7)."""

import pytest

from repro.pcie import CreditDomain, RampUpPolicy, ReservationPolicy, StaticEqualPolicy
from repro.sim import Environment


class TestStaticEqualPolicy:
    def test_budget_split_evenly(self):
        env = Environment()
        dom = CreditDomain(env, budget=32)
        dom.register("a")
        dom.register("b")
        assert dom.granted("a") + dom.granted("b") == 32
        assert abs(dom.granted("a") - dom.granted("b")) <= 1

    def test_remainder_distributed(self):
        env = Environment()
        dom = CreditDomain(env, budget=10)
        for name in ("a", "b", "c"):
            dom.register(name)
        grants = [dom.granted(n) for n in ("a", "b", "c")]
        assert sum(grants) == 10
        assert max(grants) - min(grants) <= 1


class TestAcquireRelease:
    def test_acquire_blocks_when_dry(self):
        env = Environment()
        dom = CreditDomain(env, budget=2)
        dom.register("a")
        times = []

        def taker():
            for _ in range(3):
                yield dom.acquire("a")
                times.append(env.now)

        def releaser():
            yield env.timeout(50)
            dom.release("a")

        env.process(taker())
        env.process(releaser())
        env.run(until=1_000)
        assert times == [0, 0, 50]

    def test_release_respects_shrunken_grant(self):
        env = Environment()
        dom = CreditDomain(env, budget=8, policy=StaticEqualPolicy())
        dom.register("a")
        assert dom.granted("a") == 8

        def run():
            for _ in range(4):
                yield dom.acquire("a")
            # Second flow arrives; rebalance halves a's grant.
            dom.register("b")
            assert dom.granted("a") == 4
            # a returns its 4 outstanding credits: pool must not exceed
            # the new grant of 4 (it had 4 idle, drained at rebalance).
            for _ in range(4):
                dom.release("a")
            yield env.timeout(0)

        env.process(run())
        env.run(until=100)
        assert dom.available("a") <= dom.granted("a")


class TestRampUpPolicy:
    def test_hot_flow_monopolizes_budget(self):
        """Claim C5: a consistently busy flow compounds its share."""
        env = Environment()
        dom = CreditDomain(env, budget=64, policy=RampUpPolicy(),
                           rebalance_ns=100.0)
        dom.register("hot")
        dom.register("cold")
        dom.start()

        def hot_traffic():
            while True:
                # Consume whatever is granted, fast.
                yield dom.acquire("hot")
                dom.release("hot")
                yield env.timeout(1.0)

        env.process(hot_traffic())
        env.run(until=2_000)
        assert dom.granted("hot") > 3 * dom.granted("cold")
        assert dom.granted("cold") >= RampUpPolicy.floor

    def test_idle_flow_decays_to_floor(self):
        env = Environment()
        dom = CreditDomain(env, budget=64, policy=RampUpPolicy(),
                           rebalance_ns=100.0)
        dom.register("idle")
        dom.start()
        env.run(until=2_000)
        assert dom.granted("idle") >= RampUpPolicy.floor


class TestReservationPolicy:
    def test_reserved_flow_keeps_guarantee_under_contention(self):
        env = Environment()
        policy = ReservationPolicy()
        dom = CreditDomain(env, budget=64, policy=policy)
        dom.register("latency")
        dom.register("bulk")
        policy.reserve("latency", 16)
        dom.rebalance_now()
        assert dom.granted("latency") == 16
        assert dom.granted("bulk") >= 1
        total = dom.granted("latency") + dom.granted("bulk")
        assert total <= 64

    def test_reclaim_returns_to_equal_share(self):
        env = Environment()
        policy = ReservationPolicy()
        dom = CreditDomain(env, budget=64, policy=policy)
        dom.register("a")
        dom.register("b")
        policy.reserve("a", 48)
        dom.rebalance_now()
        assert dom.granted("a") == 48
        policy.reclaim("a")
        dom.rebalance_now()
        assert dom.granted("a") < 48

    def test_negative_reservation_rejected(self):
        policy = ReservationPolicy()
        with pytest.raises(ValueError):
            policy.reserve("x", -1)


class TestValidation:
    def test_bad_budget(self):
        env = Environment()
        with pytest.raises(ValueError):
            CreditDomain(env, budget=0)

    def test_duplicate_flow(self):
        env = Environment()
        dom = CreditDomain(env, budget=4)
        dom.register("a")
        with pytest.raises(ValueError):
            dom.register("a")
