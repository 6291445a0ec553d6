"""Tests for the runtime sanitizers (``Environment(sanitize=True)``)."""

import pytest

import json
import re

from repro.analysis.sanitizers import RuntimeSanitizer, SanitizerError
from repro.core import UniFabric
from repro.experiments import (ExperimentSpec, RunContext, get,
                               run_experiment)
from repro.infra import ClusterSpec, build_cluster
from repro.pcie.credits import CreditDomain
from repro.sim import Environment, Event, Store, run_proc


def drain(env):
    env.run()
    env.sanitizer.on_drain()
    return env.sanitizer


class TestWiring:
    def test_off_by_default(self):
        env = Environment()
        assert env.sanitize is False
        assert env.sanitizer is None

    def test_opt_in_attaches_a_sanitizer(self):
        env = Environment(sanitize=True)
        assert env.sanitize is True
        assert isinstance(env.sanitizer, RuntimeSanitizer)
        assert env.sanitizer.clean

    def test_assert_clean_raises_on_findings(self):
        env = Environment(sanitize=True)
        env.sanitizer.note("credit-leak", "synthetic")
        with pytest.raises(SanitizerError):
            env.sanitizer.assert_clean()

    def test_findings_dedupe_on_kind_and_message(self):
        env = Environment(sanitize=True)
        env.sanitizer.note("credit-leak", "same")
        env.sanitizer.note("credit-leak", "same")
        assert len(env.sanitizer.findings) == 1

    def test_json_shape(self):
        env = Environment(sanitize=True)
        env.sanitizer.note("write-race", "synthetic")
        payload = env.sanitizer.to_json()
        assert payload["schema"] == 1
        assert payload["tool"] == "fcc-sanitize"
        assert payload["count"] == 1
        assert set(payload["findings"][0]) == {"kind", "time", "message"}


class TestCreditConservation:
    def make_domain(self, env, budget=8):
        domain = CreditDomain(env, budget=budget, name="dom")
        domain.register("a")
        domain.register("b")
        return domain

    def run_traffic(self, env, domain, flow, n=5):
        def gen():
            for _ in range(n):
                yield domain.acquire(flow)
                yield env.timeout(10.0)
                domain.release(flow)
        env.process(gen(), name=f"traffic-{flow}")
        env.run()

    def test_clean_traffic_conserves(self):
        env = Environment(sanitize=True)
        domain = self.make_domain(env)
        self.run_traffic(env, domain, "a")
        domain.rebalance_now()
        assert domain.conservation_problems() == []
        assert env.sanitizer.clean

    def test_injected_leak_is_caught_at_rebalance(self):
        env = Environment(sanitize=True)
        domain = self.make_domain(env)
        self.run_traffic(env, domain, "a")
        domain._pools["a"].get(1)          # steal a credit behind its back
        domain.rebalance_now()
        kinds = {f.kind for f in env.sanitizer.findings}
        assert kinds == {"credit-leak"}
        assert any("leaked" in f.message
                   for f in env.sanitizer.findings)

    def test_injected_leak_is_caught_at_drain(self):
        env = Environment(sanitize=True)
        domain = self.make_domain(env)
        self.run_traffic(env, domain, "b")
        domain._pools["b"].get(2)
        env.sanitizer.on_drain()
        assert any(f.kind == "credit-leak" and "'b'" in f.message
                   for f in env.sanitizer.findings)

    def test_double_release_is_negative(self):
        env = Environment(sanitize=True)
        domain = self.make_domain(env)

        def gen():
            yield domain.acquire("a")
            yield env.timeout(5.0)
            domain.release("a")
            domain.release("a")            # released but never acquired
        env.process(gen(), name="doubler")
        env.run()
        assert any(f.kind == "credit-negative"
                   for f in env.sanitizer.findings)

    def test_sanitize_off_does_no_accounting(self):
        env = Environment()
        domain = self.make_domain(env)
        self.run_traffic(env, domain, "a")
        domain._pools["a"].get(1)
        domain.rebalance_now()
        assert domain.conservation_problems() == []


class TestEventLifecycle:
    def test_stale_event_reported_at_drain(self):
        env = Environment(sanitize=True)
        orphan = Event(env)
        orphan.callbacks.append(lambda e: None)   # waited on, never fired
        san = drain(env)
        assert any(f.kind == "stale-event" for f in san.findings)

    def test_triggered_events_are_not_stale(self):
        env = Environment(sanitize=True)
        done = Event(env)

        def gen():
            yield env.timeout(1.0)
            done.succeed()
        env.process(gen(), name="ok")

        def waiter():
            yield done
        env.process(waiter(), name="waiter")
        assert drain(env).clean

    def test_dead_event_callback_reported(self):
        env = Environment(sanitize=True)
        store = Store(env)
        put = store.put("x")
        env.run()
        assert put.processed
        put.callbacks.append(lambda e: None)      # can never fire
        assert any(f.kind == "dead-event-callback"
                   for f in env.sanitizer.findings)


class TestDeadlockReport:
    def test_blocked_process_named_with_its_resource(self):
        env = Environment(sanitize=True)
        store = Store(env)

        def stuck():
            yield store.get()
        env.process(stuck(), name="stuck")
        san = drain(env)
        deadlocks = [f for f in san.findings if f.kind == "deadlock"]
        assert len(deadlocks) == 1
        assert "'stuck'" in deadlocks[0].message
        assert "StoreGet" in deadlocks[0].message

    def test_daemons_are_exempt(self):
        env = Environment(sanitize=True)
        store = Store(env)

        def service():
            while True:
                yield store.get()
        env.process(service(), name="svc", daemon=True)

        def client():
            yield env.timeout(5.0)
            yield store.put("x")
        env.process(client(), name="client")
        assert drain(env).clean

    def test_on_drain_is_idempotent(self):
        env = Environment(sanitize=True)
        store = Store(env)

        def stuck():
            yield store.get()
        env.process(stuck(), name="stuck")
        san = drain(env)
        san.on_drain()
        assert len([f for f in san.findings
                    if f.kind == "deadlock"]) == 1


class TestWriteRace:
    def test_same_time_writers_flagged(self):
        env = Environment(sanitize=True)
        store = Store(env)

        def writer(tag):
            yield env.timeout(1.0)
            yield store.put(tag)
        env.process(writer("a"), name="w-a")
        env.process(writer("b"), name="w-b")
        env.run()
        races = [f for f in env.sanitizer.findings
                 if f.kind == "write-race"]
        assert races and "w-a" in races[0].message \
            and "w-b" in races[0].message

    def test_different_times_are_fine(self):
        env = Environment(sanitize=True)
        store = Store(env)

        def writer(tag, when):
            yield env.timeout(when)
            yield store.put(tag)
        env.process(writer("a", 1.0), name="w-a")
        env.process(writer("b", 2.0), name="w-b")
        env.run()
        assert env.sanitizer.clean

    def test_callback_chains_race_as_their_writers(self):
        # A callback has no process: two same-instant chains race only
        # if each writes as its own Writer, as two processes would.
        env = Environment(sanitize=True)
        san = env.sanitizer
        named, anonymous = Store(env), Store(env)
        for tag in ("a", "b"):
            env.call_later(1.0, san.writer("chain").wrap(named.put), tag)
            env.call_later(1.0, anonymous.put, tag)
        env.run()
        (race,) = san.findings
        assert f"race on {san.name_of(named)}: put by 'chain' and put " \
            "by 'chain'" in race.message


#: `reliability` under the sanitizer, per environment: (kind, time,
#: writers).  Stores are masked to `Store#N`: their ordinals count
#: every object the sanitizer saw first, so they move whenever the
#: model creates fewer events, while the race itself must not.
RELIABILITY_RACES = [
    ("parity1", 143609.84999999954, "'_fetch'", "'_fetch'"),
    ("parity1", 145331.17499999952, "'sw0.fwd'", "'sw0.fwd'"),
    ("parity1", 147504.2187499995, "'_fetch'", "'host0.mem.wb'"),
    ("parity1", 151428.58749999947, "'host0.mem.wb'", "'host0.mem.wb'"),
    ("parity2", 191119.53749999948, "'_fetch'", "'_fetch'"),
    ("parity2", 192840.86249999946, "'sw0.fwd'", "'sw0.fwd'"),
    ("parity2", 193230.11249999946, "'go'", "'host0.mem.wb'"),
    ("parity2", 193230.11249999946, "'host0.mem.wb'", "'go'"),
    ("parity2", 195126.56249999945, "'_fetch'", "'host0.mem.wb'"),
    ("parity2", 195126.56249999945, "'host0.mem.wb'", "'host0.mem.wb'"),
]


def test_reliability_findings_pinned():
    # Each switch forward is a callback chain; the two same-instant
    # `sw0.fwd` puts into one staging queue must still be reported.
    spec = ExperimentSpec("reliability", outputs=("summary", "sanitize"))
    docs = run_experiment(spec)["outputs"]["sanitize"]
    found = [(label, finding["kind"], finding["time"],
              re.sub(r"Store#\d+", "Store#N", finding["message"]))
             for label, doc in docs.items() for finding in doc["findings"]]
    assert found == [
        (label, "write-race", time,
         f"write-write race on Store#N: put by {first} and put by "
         f"{second} at the same timestamp; the outcome depends on "
         "scheduling order only")
        for label, time, first, second in RELIABILITY_RACES]


def _t2_writes(ctx):
    """The Table 2 write path: local and remote reads and writes
    through the full cache/fabric stack of one host."""
    env = ctx.env("t2-writes")
    host = build_cluster(env, ClusterSpec(hosts=1)).host(0)
    base = host.remote_base("fam0")
    latencies = {}

    def measure():
        for label, addr, is_write in (
                ("local_read", 0x40000, False),
                ("local_write", 0x80000, True),
                ("remote_read", base + 0x40000, False),
                ("remote_write", base + 0x80000, True)):
            start = env.now
            yield from host.mem.access(addr, is_write)
            latencies[label] = env.now - start

    run_proc(env, measure())
    return latencies


def _arbiter(ctx):
    """Reservation traffic through the DP#4 FabricArbiter: every
    control message doubles as a conservation checkpoint."""
    env = ctx.env("arbiter")
    cluster = build_cluster(env, ClusterSpec(hosts=1, control_lane=True))
    uni = UniFabric(env, cluster, with_arbiter=True)
    domain = CreditDomain(env, budget=24, name="egress0")
    for flow in ("a", "b"):
        domain.register(flow)
    uni.arbiter.manage("egress0", domain)
    client = uni.arbiter_client("host0")

    def control():
        yield from client.reserve("egress0", "a", 8)
        yield from client.reserve("egress0", "b", 4)
        grants = yield from client.query("egress0")
        yield from client.reclaim("egress0", "a")
        return grants

    return {"grants": run_proc(env, control()).get("grants", {})}


#: name -> (params, run function).  Slices of the model no
#: finding-free registered experiment drives (local/remote writes, the
#: arbiter), plus a contended ramp-up credit domain: the registered
#: starvation experiment, audited at every rebalance.
SANITIZED_SLICES = {"t2": ({}, _t2_writes), "arbiter": ({}, _arbiter),
                    "credits": (get("starvation").defaults(),
                                get("starvation").run)}


class TestDeterminismAndRunners:
    def _trace(self, sanitize):
        env = Environment(sanitize=sanitize)
        store = Store(env)
        log = []

        def producer():
            for i in range(50):
                yield env.timeout(3.0)
                yield store.put(i)

        def consumer():
            while True:
                item = yield store.get()
                log.append((env.now, item))
                yield env.timeout(1.0)
        env.process(producer(), name="prod")
        env.process(consumer(), name="cons", daemon=True)
        env.run(until=500.0)
        return log, env.stats["events_processed"]

    def test_sanitize_does_not_change_scheduling(self):
        plain, plain_events = self._trace(False)
        checked, checked_events = self._trace(True)
        assert plain == checked
        assert plain_events == checked_events

    @pytest.mark.parametrize("name", sorted(SANITIZED_SLICES))
    def test_canonical_runners_are_clean(self, name):
        params, run = SANITIZED_SLICES[name]
        ctx = RunContext(params, observe=("sanitize",))
        summary = run(ctx)
        (observation,) = ctx.finish(summary)
        sanitizer = observation.env.sanitizer
        assert sanitizer.clean, sanitizer.report()
        assert observation.env.stats["events_processed"] > 0

    def test_unknown_runner_raises(self):
        with pytest.raises(ValueError, match="nope"):
            run_experiment(ExperimentSpec("nope",
                                          outputs=("summary", "sanitize")))


class TestReproducibleFindings:
    def _race(self):
        env = Environment(sanitize=True)
        stores = [Store(env) for _ in range(3)]

        def writer(tag):
            yield env.timeout(1.0)
            yield stores[2].put(tag)
        env.process(writer("a"), name="w-a")
        env.process(writer("b"), name="w-b")
        env.run()
        return env.sanitizer

    def test_objects_named_by_ordinal_not_address(self):
        (race,) = self._race().findings
        assert race.kind == "write-race"
        assert "Store#" in race.message
        assert "0x" not in race.message

    def test_reruns_report_identical_findings(self):
        assert self._race().to_json() == self._race().to_json()

    def test_experiment_findings_json_is_reproducible(self):
        spec = ExperimentSpec("table2_hierarchy", params={"ops": 50},
                              outputs=("summary", "sanitize"))
        first = run_experiment(spec)["outputs"]["sanitize"]
        second = run_experiment(spec)["outputs"]["sanitize"]
        assert any(doc["count"] for doc in first.values())
        assert json.dumps(first) == json.dumps(second)
