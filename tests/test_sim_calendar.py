"""Differential test of the kernel's event calendar.

Random plans mix timeouts (delays from a small set that includes 0, a
delay a clock of 1.0 absorbs, and steps whose sums collide or just miss
in floating point), ``call_later``, ``succeed`` on shared events,
process starts, interrupts, and runs stopped by ``until`` and by
``until_event`` mid-instant and resumed through ``peek``/``step``/
``run``.  Each plan runs on :class:`repro.sim.Environment` and on
:class:`RefEnv`, a reference kernel written here on one ``heapq`` of
``(time, priority, seq)`` entries; their dispatch traces must be equal.
"""

import heapq

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import Environment, Interrupt, SimulationError

URGENT, NORMAL = 0, 1
INF = float("inf")


# -- the reference kernel ----------------------------------------------------

class RefEvent:
    """An event of the reference kernel.

    ``callbacks`` becomes None once the event fires (firing or
    processed); detached callbacks are tombstoned as None.
    """

    def __init__(self, env):
        self.env = env
        self.callbacks = []
        self.triggered = False
        self.ok = True
        self.value = None

    def succeed(self, value=None):
        assert not self.triggered
        self.triggered = True
        self.value = value
        self.env._push(self.env.now, NORMAL, self)
        return self

    def _fire(self):
        callbacks, self.callbacks = self.callbacks, None
        for callback in callbacks:
            if callback is not None:
                callback(self)


class RefProcess(RefEvent):
    def __init__(self, env, generator):
        super().__init__(env)
        self.generator = generator
        self.target = None
        env._hook(self._resume, True, None)

    @property
    def is_alive(self):
        return not self.triggered

    def _detach(self, target):
        callbacks = target.callbacks
        if callbacks is not None and self._resume in callbacks:
            callbacks[callbacks.index(self._resume)] = None

    def interrupt(self, cause=None):
        assert self.is_alive
        if self.target is not None:
            self._detach(self.target)
        self.env._hook(self._resume, False, Interrupt(cause))

    def _resume(self, event):
        if self.triggered:
            return
        if self.target is not None and self.target is not event:
            self._detach(self.target)
        self.target = None
        try:
            if event.ok:
                nxt = self.generator.send(event.value)
            else:
                nxt = self.generator.throw(event.value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        if nxt.callbacks is None:
            # Already fired: resume at once through an URGENT hook.
            self.target = self.env._hook(self._resume, nxt.ok, nxt.value)
        else:
            nxt.callbacks.append(self._resume)
            self.target = nxt


class RefEnv:
    """One heap of ``(time, priority, seq, event)``: the plain calendar."""

    def __init__(self, initial_time):
        self.now = initial_time
        self.heap = []
        self.seq = 0
        self.dispatched = 0

    def _push(self, time, priority, event):
        heapq.heappush(self.heap, (time, priority, self.seq, event))
        self.seq += 1

    def _hook(self, callback, ok, value):
        hook = RefEvent(self)
        hook.callbacks.append(callback)
        hook.triggered, hook.ok, hook.value = True, ok, value
        self._push(self.now, URGENT, hook)
        return hook

    def event(self):
        return RefEvent(self)

    def timeout(self, delay):
        event = RefEvent(self)
        event.triggered = True
        self._push(self.now + delay, NORMAL, event)
        return event

    def call_later(self, delay, fn, *args):
        event = self.timeout(delay)
        event.callbacks.append(lambda _event: fn(*args))

    def process(self, generator):
        return RefProcess(self, generator)

    def peek(self):
        return self.heap[0][0] if self.heap else INF

    def step(self):
        if not self.heap:
            raise SimulationError("no scheduled events")
        time, _, _, event = heapq.heappop(self.heap)
        self.now = time
        self.dispatched += 1
        event._fire()

    def run(self, until=None, until_event=None):
        while self.heap:
            if until_event is not None and until_event.triggered:
                return until_event.value
            if until is not None and self.heap[0][0] > until:
                break
            self.step()
        if until_event is not None:
            if until_event.triggered:
                return until_event.value
            raise SimulationError("until_event never fired")
        if until is not None:
            self.now = until
        return None


# -- plans -------------------------------------------------------------------

#: 0, a delay that 1.0 absorbs (1.0 + 1e-17 == 1.0) but 0.0 does not,
#: and steps whose sums collide (0.1 + 0.2 == 0.2 + 0.1) or just miss
#: (0.1 + 0.2 != 0.3) in floating point.
DELAYS = (0.0, 1e-17, 0.1, 0.2, 0.3, 0.5, 1.0)
N_SHARED = 3
MAX_PROCS = 10

delays = st.sampled_from(DELAYS)
actions = st.one_of(
    st.tuples(st.just("timeout"), delays),
    st.tuples(st.just("call_later"), delays),
    st.tuples(st.just("wait"), st.integers(0, N_SHARED - 1)),
    st.tuples(st.just("succeed"), st.integers(0, N_SHARED - 1)),
    st.tuples(st.just("spawn"), st.integers(0, 3)),
    st.tuples(st.just("interrupt"), st.integers(0, MAX_PROCS - 1)),
)
controls = st.one_of(
    st.tuples(st.just("run_until"), delays),
    st.tuples(st.just("run_until_proc"), st.integers(0, MAX_PROCS - 1)),
    st.tuples(st.just("run_until_shared"), st.integers(0, N_SHARED - 1)),
    st.tuples(st.just("step"), st.integers(1, 4)),
    st.tuples(st.just("top"), actions),
)
plans = st.fixed_dictionaries({
    "initial_time": st.sampled_from([0.0, 1.0]),
    "scripts": st.lists(st.lists(actions, max_size=8),
                        min_size=1, max_size=4),
    "starts": st.lists(st.integers(0, 3), min_size=1, max_size=4),
    "controls": st.lists(controls, max_size=10),
})


def execute(env, plan):
    """Run ``plan`` on ``env``; return everything it observed, in order."""
    trace = []
    scripts = plan["scripts"]
    procs = []
    shared = []

    def log(*what):
        trace.append((env.now,) + what)

    def act(action, me):
        kind, arg = action
        if kind == "timeout":
            return env.timeout(arg)
        if kind == "call_later":
            env.call_later(arg, log, "call", me, arg)
        elif kind == "wait":
            return shared[arg]
        elif kind == "succeed":
            if not shared[arg].triggered:
                shared[arg].succeed((me, arg))
        elif kind == "spawn":
            spawn(arg % len(scripts))
        elif kind == "interrupt":
            target = arg % len(procs)
            if target != me and procs[target].is_alive:
                procs[target].interrupt(me)
        return None

    def body(me, script):
        log("start", me)
        for action in script:
            event = act(action, me)
            if event is None:
                continue
            try:
                value = yield event
            except Interrupt as interrupt:
                log("interrupted", me, interrupt.cause)
            else:
                log("resumed", me, action, value)
        return me

    def spawn(script):
        if len(procs) < MAX_PROCS:
            procs.append(env.process(body(len(procs), scripts[script])))

    for i in range(N_SHARED):
        shared.append(env.event())
        shared[i].callbacks.append(
            lambda event, i=i: log("shared", i, event.value))
    for script in plan["starts"]:
        spawn(script % len(scripts))

    def run_until_event(event):
        if event.triggered:
            return
        try:
            log("until_event", env.run(until_event=event))
        except SimulationError as error:
            log("never", str(error))

    for kind, arg in plan["controls"]:
        if kind == "run_until":
            env.run(until=env.now + arg)
        elif kind == "run_until_proc":
            run_until_event(procs[arg % len(procs)])
        elif kind == "run_until_shared":
            run_until_event(shared[arg])
        elif kind == "step":
            for _ in range(arg):
                if env.peek() == INF:
                    break
                env.step()
        else:
            act(arg, -1)
        log("control", kind, env.peek())
    env.run()
    log("drained", env.peek())
    return trace


def dispatched(env):
    if isinstance(env, RefEnv):
        return env.dispatched
    return env.stats["events_processed"]


@pytest.mark.parametrize("sanitize", [False, True])
@settings(max_examples=300, deadline=None, derandomize=True)
@given(plans)
def test_calendar_matches_one_heap_reference(sanitize, plan):
    kernel = Environment(plan["initial_time"], sanitize=sanitize)
    reference = RefEnv(plan["initial_time"])
    assert execute(kernel, plan) == execute(reference, plan)
    assert dispatched(kernel) == dispatched(reference)


def test_reference_orders_by_time_priority_seq():
    # The reference itself: URGENT preempts NORMAL at one instant, and
    # each priority is FIFO.
    env = RefEnv(0.0)
    order = []
    env.call_later(0.0, order.append, "n1")
    env.call_later(0.0, order.append, "n2")
    env._hook(lambda _event: order.append("u1"), True, None)
    env.call_later(1e-17, order.append, "later")
    env.run()
    assert order == ["u1", "n1", "n2", "later"]
