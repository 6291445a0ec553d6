"""Unit tests for the discrete-event kernel."""

import pytest

from repro.sim import (
    Container,
    Environment,
    Event,
    Interrupt,
    PriorityStore,
    Resource,
    SimulationError,
    Store,
    Timeout,
    run_proc,
)
from repro.sim.engine import _POOL_LIMIT


def test_timeout_advances_clock():
    env = Environment()
    done = []

    def proc():
        yield env.timeout(10)
        done.append(env.now)
        yield env.timeout(5)
        done.append(env.now)

    env.process(proc())
    env.run()
    assert done == [10, 15]


def test_timeout_value_passthrough():
    env = Environment()
    seen = []

    def proc():
        value = yield env.timeout(1, value="hello")
        seen.append(value)

    env.process(proc())
    env.run()
    assert seen == ["hello"]


def test_negative_delay_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1)


def test_process_return_value():
    env = Environment()

    def child():
        yield env.timeout(3)
        return 42

    def parent(results):
        value = yield env.process(child())
        results.append(value)

    results = []
    env.process(parent(results))
    env.run()
    assert results == [42]


def test_event_succeed_wakes_waiter():
    env = Environment()
    gate = env.event()
    woke = []

    def waiter():
        value = yield gate
        woke.append((env.now, value))

    def opener():
        yield env.timeout(7)
        gate.succeed("open")

    env.process(waiter())
    env.process(opener())
    env.run()
    assert woke == [(7, "open")]


def test_event_double_trigger_rejected():
    env = Environment()
    ev = env.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_event_fail_raises_in_waiter():
    env = Environment()
    gate = env.event()
    caught = []

    def waiter():
        try:
            yield gate
        except RuntimeError as exc:
            caught.append(str(exc))

    def failer():
        yield env.timeout(1)
        gate.fail(RuntimeError("boom"))

    env.process(waiter())
    env.process(failer())
    env.run()
    assert caught == ["boom"]


def test_fail_requires_exception():
    env = Environment()
    with pytest.raises(TypeError):
        env.event().fail("not an exception")


def test_process_exception_propagates_to_parent():
    env = Environment()

    def child():
        yield env.timeout(1)
        raise ValueError("child died")

    def parent(seen):
        try:
            yield env.process(child())
        except ValueError as exc:
            seen.append(str(exc))

    seen = []
    env.process(parent(seen))
    env.run()
    assert seen == ["child died"]


def test_interrupt_delivers_cause():
    env = Environment()
    log = []

    def victim():
        try:
            yield env.timeout(100)
        except Interrupt as interrupt:
            log.append((env.now, interrupt.cause))

    def interrupter(proc):
        yield env.timeout(10)
        proc.interrupt("preempted")

    proc = env.process(victim())
    env.process(interrupter(proc))
    env.run()
    assert log == [(10, "preempted")]


def test_interrupt_dead_process_is_error():
    env = Environment()

    def quick():
        yield env.timeout(1)

    proc = env.process(quick())
    env.run()
    with pytest.raises(SimulationError):
        proc.interrupt()


def test_interrupted_process_can_continue():
    env = Environment()
    log = []

    def victim():
        try:
            yield env.timeout(100)
        except Interrupt:
            pass
        yield env.timeout(5)
        log.append(env.now)

    def interrupter(proc):
        yield env.timeout(10)
        proc.interrupt()

    proc = env.process(victim())
    env.process(interrupter(proc))
    env.run()
    assert log == [15]


def test_all_of_waits_for_every_event():
    env = Environment()
    times = []

    def proc():
        t1 = env.timeout(5, value="a")
        t2 = env.timeout(9, value="b")
        results = yield env.all_of([t1, t2])
        times.append(env.now)
        assert set(results.values()) == {"a", "b"}

    env.process(proc())
    env.run()
    assert times == [9]


def test_any_of_fires_on_first():
    env = Environment()
    times = []

    def proc():
        t1 = env.timeout(5, value="fast")
        t2 = env.timeout(50, value="slow")
        results = yield env.any_of([t1, t2])
        times.append(env.now)
        assert "fast" in results.values()

    env.process(proc())
    env.run(until=100)
    assert times == [5]


def test_run_until_time_stops_clock():
    env = Environment()

    def proc():
        while True:
            yield env.timeout(10)

    env.process(proc())
    env.run(until=35)
    assert env.now == 35


def test_run_until_event_returns_value():
    env = Environment()

    def proc():
        yield env.timeout(4)
        return "finished"

    result = env.run(until_event=env.process(proc()))
    assert result == "finished"
    assert env.now == 4


def test_run_until_past_time_rejected():
    env = Environment()
    env.process(iter_timeout(env, 10))
    env.run()
    with pytest.raises(ValueError):
        env.run(until=5)


def iter_timeout(env, delay):
    yield env.timeout(delay)


def test_deterministic_ordering_fifo_at_same_time():
    env = Environment()
    order = []

    def proc(tag):
        yield env.timeout(10)
        order.append(tag)

    for tag in range(5):
        env.process(proc(tag))
    env.run()
    assert order == [0, 1, 2, 3, 4]


def test_yield_non_event_raises():
    env = Environment()

    def bad():
        yield 42

    proc = env.process(bad())
    env.run()
    assert proc.triggered
    assert not proc.ok
    assert isinstance(proc.value, SimulationError)


def test_yield_already_processed_event_resumes_immediately():
    env = Environment()
    log = []

    def proc():
        timeout = env.timeout(1, value="early")
        yield env.timeout(10)
        value = yield timeout  # fired long ago
        log.append((env.now, value))

    env.process(proc())
    env.run()
    assert log == [(10, "early")]


def test_step_empty_queue_is_error():
    env = Environment()
    with pytest.raises(SimulationError):
        env.step()


def test_peek_reports_next_event_time():
    env = Environment()
    env.timeout(42)
    assert env.peek() == 42
    env2 = Environment()
    assert env2.peek() == float("inf")


def test_active_process_visible_during_execution():
    env = Environment()
    seen = []

    def proc():
        seen.append(env.active_process)
        yield env.timeout(1)

    p = env.process(proc())
    env.run()
    assert seen == [p]
    assert env.active_process is None


def test_process_failure_with_no_waiter_is_silent():
    env = Environment()

    def doomed():
        yield env.timeout(1)
        raise RuntimeError("nobody is listening")

    proc = env.process(doomed())
    env.run()   # must not raise at the environment level
    assert proc.triggered and not proc.ok


def test_failed_plain_event_with_no_waiter_raises():
    env = Environment()

    def failer():
        ev = env.event()
        yield env.timeout(1)
        ev.fail(RuntimeError("unobserved"))

    env.process(failer())
    with pytest.raises(RuntimeError):
        env.run()


def test_interrupt_cause_none_by_default():
    env = Environment()
    seen = []

    def victim():
        try:
            yield env.timeout(50)
        except Interrupt as interrupt:
            seen.append(interrupt.cause)

    proc = env.process(victim())

    def interrupter():
        yield env.timeout(1)
        proc.interrupt()

    env.process(interrupter())
    env.run()
    assert seen == [None]


def test_all_of_empty_fires_immediately():
    env = Environment()
    times = []

    def proc():
        yield env.all_of([])
        times.append(env.now)

    env.process(proc())
    env.run()
    assert times == [0]


def test_condition_with_already_failed_event_rejects():
    env = Environment()
    dead = env.event()
    dead.callbacks.append(lambda e: None)   # defuse
    dead.fail(ValueError("pre-failed"))
    env.run()   # process the failure
    caught = []

    def proc():
        try:
            yield env.all_of([dead, env.timeout(5)])
        except ValueError as exc:
            caught.append(str(exc))

    env.process(proc())
    env.run()
    assert caught == ["pre-failed"]


def test_process_target_visible_while_waiting():
    env = Environment()

    def sleeper():
        yield env.timeout(10)

    proc = env.process(sleeper())
    env.step()   # run the initializer
    assert proc.target is not None
    env.run()
    assert proc.triggered


# -- fast-path satellites -------------------------------------------------


def test_run_until_lands_on_until_when_queue_drains_early():
    env = Environment()
    env.process(iter_timeout(env, 10))
    env.run(until=50)
    # The queue drained at t=10; the clock must still land on `until`.
    assert env.now == 50


def test_run_until_lands_on_until_with_unfired_event():
    env = Environment()
    env.process(iter_timeout(env, 10))
    never = env.event()
    result = env.run(until=50, until_event=never)
    assert result is None
    assert env.now == 50


def test_stale_interrupt_on_process_that_died_is_dropped():
    env = Environment()
    causes = []

    def victim():
        try:
            yield env.timeout(100)
        except Interrupt as interrupt:
            causes.append(interrupt.cause)
        # Returning here kills the process while the second interrupt
        # wakeup is still queued; that wakeup must be dropped, not
        # thrown into the exhausted generator.

    def attacker(proc):
        yield env.timeout(5)
        proc.interrupt("first")
        proc.interrupt("second")

    proc = env.process(victim())
    env.process(attacker(proc))
    env.run()
    assert causes == ["first"]
    assert proc.triggered
    assert proc.ok


def test_interrupt_scheduled_then_process_finishes_same_tick():
    env = Environment()
    order = []

    def victim():
        try:
            yield env.timeout(5)
            order.append("finished")
        except Interrupt as interrupt:
            order.append(f"interrupted:{interrupt.cause}")

    def attacker(proc):
        # t=0, before victim's initializer has run its first step: the
        # interrupt wakeup and the initializer share the tick.
        proc.interrupt("early")
        return
        yield

    proc = env.process(victim())
    env.process(attacker(proc))
    env.run()
    assert order == ["interrupted:early"]
    assert proc.triggered


def test_two_processes_share_one_timeout_fifo_order():
    env = Environment()
    order = []
    timeout = None

    def maker():
        nonlocal timeout
        timeout = env.timeout(10)
        yield timeout
        order.append("first")

    def follower():
        yield env.timeout(0)
        yield timeout
        order.append("second")

    env.process(maker())
    env.process(follower())
    env.run()
    assert order == ["first", "second"]


def test_environment_stats_counters():
    env = Environment()

    def ticker():
        for _ in range(50):
            yield env.timeout(1.0)

    for _ in range(4):
        env.process(ticker())
    env.run()
    stats = env.stats
    # 4 starts + 4*50 timeouts + 4 completions.
    assert stats["events_processed"] == 4 + 200 + 4
    assert stats["events_per_sec"] > 0
    assert stats["peak_queue_depth"] >= 4
    assert stats["pooled_timeouts"] >= 1


def test_event_pool_counters_exposed_and_bounded():
    env = Environment()
    procs = _POOL_LIMIT + 64

    def looper():
        for _ in range(5):
            yield env.timeout(1.0)

    for _ in range(procs):
        env.process(looper())
    env.run()
    stats = env.stats
    assert stats["pool_hits"] > 0
    # More concurrent timeouts than the pool holds: some must allocate.
    assert stats["pool_misses"] > 0
    assert stats["pooled_timeouts"] <= _POOL_LIMIT
    assert stats["pooled_hooks"] <= _POOL_LIMIT


def test_run_proc_exported_from_sim():
    from repro.sim import run_proc

    env = Environment()

    def job():
        yield env.timeout(7)
        return "ok"

    assert run_proc(env, job()) == "ok"
    assert env.now == 7


def test_run_proc_horizon_raises():
    from repro.sim import run_proc

    env = Environment()

    def forever():
        while True:
            yield env.timeout(10)

    with pytest.raises(RuntimeError):
        run_proc(env, forever(), horizon=100)


# -- attaching to resource events ---------------------------------------------

def _pending_store_get(env):
    return Store(env).get()


def _pending_request(env):
    resource = Resource(env, capacity=1)
    resource.request()
    return resource.request()


def _pending_container_get(env):
    return Container(env, capacity=5).get(1)


PENDING_RESOURCE_EVENTS = [_pending_store_get, _pending_request,
                           _pending_container_get]


@pytest.mark.parametrize("sanitize", [True, False])
@pytest.mark.parametrize("make", PENDING_RESOURCE_EVENTS)
def test_yield_pending_resource_event_of_other_env_raises(make, sanitize):
    env, other = Environment(sanitize=sanitize), Environment()

    def proc():
        yield env.timeout(1)
        yield make(other)

    # Five resumes at one timestamp, each yielding a foreign event.
    for _ in range(5):
        env.process(proc())
    with pytest.raises(SimulationError, match="different environment"):
        env.run()


def _granted_store_get(env):
    store = Store(env)
    store.put("item")
    return store.get(), "item"


def _granted_request(env):
    return Resource(env, capacity=1).request(), None


def _granted_container_get(env):
    return Container(env, capacity=5, init=2).get(2), None


@pytest.mark.parametrize("sanitize", [False, True])
@pytest.mark.parametrize("make", [_granted_store_get, _granted_request,
                                  _granted_container_get])
def test_yield_processed_resource_event_resumes_with_its_value(
        make, sanitize):
    env = Environment(sanitize=sanitize)
    log = []

    def proc():
        event, expected = make(env)
        yield env.timeout(3)
        assert event.processed
        log.append((env.now, (yield event), expected))

    for _ in range(5):
        env.process(proc())
    env.run()
    assert log == [(3, expected, expected) for *_, expected in log]
    assert len(log) == 5


def test_sanitized_run_sees_on_write_for_every_store_put():
    env = Environment(sanitize=True)
    unbounded, bounded, ordered = Store(env), Store(env, capacity=1), \
        PriorityStore(env, capacity=1)
    names = {id(unbounded): "unbounded", id(bounded): "bounded",
             id(ordered): "ordered"}
    writes, got = [], []
    on_write = env.sanitizer.on_write

    def record(obj, opname):
        writes.append((env.now, names[id(obj)], opname))
        on_write(obj, opname)

    env.sanitizer.on_write = record

    def producer():
        unbounded.put(1)                  # handed to the waiting consumer
        yield unbounded.put(2)            # inserted into an empty store
        yield env.timeout(2)
        yield unbounded.put(3)            # inserted behind nobody
        yield bounded.put(4)
        yield bounded.put(5)              # blocks until 4 is taken
        yield ordered.put(6)

    def consumer():
        got.append((yield unbounded.get()))
        yield env.timeout(1)
        got.append((yield unbounded.get()))      # takes the head on arrival
        yield env.timeout(2)
        got.append((yield unbounded.get()))
        got.append((yield bounded.get(lambda item: item == 4)))
        got.append((yield bounded.get()))
        got.append((yield ordered.get()))

    env.process(consumer())
    env.process(producer())
    env.run()
    assert got == [1, 2, 3, 4, 5, 6]
    assert writes == [(0, "unbounded", "put"), (0, "unbounded", "put"),
                      (2, "unbounded", "put"), (2, "bounded", "put"),
                      (3, "bounded", "put"), (3, "ordered", "put")]
    assert env.sanitizer.findings == []


# -- call_later and process teardown ----------------------------------------

def test_call_later_shares_the_timeout_bucket_in_insertion_order():
    env = Environment()
    order = []

    def proc():
        yield env.timeout(0.1)
        # 0.1 + 0.2 is not 0.3: the call must land on the float the
        # timeout lands on, and between the two timeouts it was queued
        # between.
        first = env.timeout(0.2)
        first.callbacks.append(lambda _event: order.append("first"))
        env.call_later(0.2, lambda tag: order.append((tag, env.now)),
                       "call")
        last = env.timeout(0.2)
        last.callbacks.append(lambda _event: order.append("last"))
        yield last

    env.process(proc())
    env.run()
    assert order == ["first", ("call", 0.1 + 0.2), "last"]


def test_call_later_negative_delay_rejected():
    env = Environment()
    with pytest.raises(ValueError, match="negative delay"):
        env.call_later(-1.0, print)
    assert env.peek() == float("inf")


@pytest.mark.parametrize("sanitize", [False, True])
def test_call_later_fires_exactly_once(sanitize):
    env = Environment(sanitize=sanitize)
    fired = []
    env.call_later(2.0, fired.append, "a")
    env.run()
    assert fired == ["a"] and env.now == 2.0
    # A recycled hook carries the new call only.
    env.call_later(0.0, fired.append, "b")
    env.process(iter_timeout(env, 5.0))
    env.run()
    assert fired == ["a", "b"]
    assert env.stats["events_processed"] == 2 + 3
    if sanitize:
        assert env.sanitizer.findings == []


def test_finished_processes_leave_no_cyclic_garbage():
    # A finished process must die with its last reference: with the
    # collector off, nothing of N short processes is left for it.
    import gc

    from repro.sim import Process

    env = Environment()
    gc.collect()
    gc.disable()
    try:
        for _ in range(200):
            env.process(iter_timeout(env, 1.0))
        env.run()
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        leaked = [obj for obj in gc.garbage if isinstance(obj, Process)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert leaked == []


# -- NaN delays and times are rejected ---------------------------------------

NAN = float("nan")

#: Every kernel entry point that takes a delay or a time.
NAN_CALLS = {
    "timeout": lambda env: env.timeout(NAN),
    "Timeout": lambda env: Timeout(env, NAN),
    "call_later": lambda env: env.call_later(NAN, print),
    "run_until": lambda env: env.run(until=NAN),
}


@pytest.mark.parametrize("sanitize", [False, True])
@pytest.mark.parametrize("call", sorted(NAN_CALLS))
def test_nan_delay_or_time_rejected(call, sanitize):
    # A NaN delay used to resume its process at now=nan, after which a
    # timeout started at the same instant fired later, at 1.0.  The
    # rejected call leaves the queue intact.
    env = Environment(sanitize=sanitize)
    env.process(iter_timeout(env, 5.0))
    with pytest.raises(ValueError, match="nan"):
        NAN_CALLS[call](env)
    env.run()
    assert env.now == 5.0 and env.stats["events_processed"] == 3


def test_initial_time_nan_rejected():
    with pytest.raises(ValueError, match="nan"):
        Environment(initial_time=NAN)


# -- the put marker ----------------------------------------------------------

@pytest.mark.parametrize("sanitize", [False, True])
def test_put_marker_counted_when_reached_not_at_call(sanitize):
    # The process puts and returns in one step: its completion triggers
    # run_proc's until_event before the put's slot in the same bucket is
    # reached, so that slot must not count yet, as the put event would
    # not have.  Draining afterwards reaches it and counts it.
    def run(forget):
        env = Environment(sanitize=sanitize)
        store = Store(env)
        pool = Container(env, capacity=4)

        def main():
            yield env.timeout(1.0)
            if forget:
                store.put_forget("x")
                pool.put_forget(1)
            else:
                store.put("x")
                pool.put(1)
            return env.now

        assert run_proc(env, main()) == 1.0
        cut = env.stats["events_processed"]
        env.run()
        return cut, env.stats["events_processed"], store.items, pool.level

    cut, drained, items, level = run(forget=True)
    assert (cut, drained, items, level) == run(forget=False)
    assert drained == cut + 3     # both puts and the completion
    assert list(items) == ["x"] and level == 1


def test_put_marker_is_not_an_elided_event():
    env = Environment()
    Store(env).put_forget("x")
    Container(env, capacity=2).put_forget(2)
    env.run()
    assert env.stats["events_processed"] == 2
    assert env.stats["events_elided"] == 0


def test_put_marker_counted_by_step():
    env = Environment()
    store = Store(env)
    store.put_forget("a")
    got = store.get()
    env.step()
    assert env.stats["events_processed"] == 1 and not got.processed
    env.step()
    assert got.processed and got.value == "a"
    assert env.peek() == float("inf")


# -- re-entrant dispatch ------------------------------------------------------

@pytest.mark.parametrize("outer", ["run", "step"])
@pytest.mark.parametrize("inner", ["run", "step"])
def test_reentrant_run_or_step_is_refused(outer, inner):
    # A callback that dispatches its own environment again would
    # re-fire the slots the outer call has consumed: refuse it, name
    # the call, and leave the environment usable.
    env = Environment()
    fired = []

    def callback():
        fired.append(env.now)
        getattr(env, inner)()

    env.call_later(1.0, callback)
    env.call_later(2.0, fired.append, "after")
    with pytest.raises(SimulationError, match=rf"re-entrant {inner}\(\)"):
        getattr(env, outer)()
    assert fired == [1.0]
    env.run()
    assert fired == [1.0, "after"] and env.now == 2.0
    assert env.stats["events_processed"] == 2


def test_other_environment_may_run_inside_a_callback():
    outer, inner = Environment(), Environment()
    inner.call_later(5.0, lambda: None)
    outer.call_later(1.0, inner.run)
    outer.run()
    assert (outer.now, inner.now) == (1.0, 5.0)


def test_run_until_fired_event_leaves_the_clock_alone():
    # Nothing is dispatched, so the clock does not move to the next
    # pending instant.
    env = Environment()
    done = env.event().succeed("done")
    env.run()
    env.call_later(5.0, lambda: None)
    assert env.run(until_event=done) == "done"
    assert env.now == 0.0 and env.peek() == 5.0
