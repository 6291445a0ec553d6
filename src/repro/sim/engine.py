"""A small deterministic discrete-event simulation kernel.

The kernel follows the classic process-interaction style: model code is
written as generator functions that ``yield`` events; the environment
resumes a process when the event it waits on fires.  The design mirrors
SimPy's core (events, processes, an ordered event queue) but is written
from scratch so the repository has no external simulation dependency
and so that scheduling is fully deterministic: ties in time are broken
by priority and then by a monotonically increasing sequence number.

Time is a float in nanoseconds by convention (see ``repro.params``),
although the kernel itself is unit-agnostic.

Fast path
---------

Every experiment in the repository funnels through this module, so the
steady-state step — pop an event, run its single ``Process._resume``
callback, let the process yield the next ``Timeout`` — is aggressively
optimised:

* ``Timeout`` objects (and the internal ``_Hook`` events used to start
  processes, deliver interrupts and re-fire already-processed events)
  are recycled through per-environment free lists, together with their
  callback lists, so steady-state stepping allocates near-zero objects.
  Recycling is guarded by ``sys.getrefcount``: an event is only pooled
  when the kernel holds the last reference, so model code that keeps a
  processed event around (e.g. to re-yield it later) is always safe.
* Detaching a resume callback from an abandoned wait target is O(1):
  the process remembers the index of its callback and tombstones it
  (sets the slot to ``None``) instead of an O(n) ``list.remove``.
  Callback lists are never compacted before they fire, so indexes stay
  valid and callback order — and therefore scheduling order — is
  exactly what it would have been without the tombstone.
* ``Process._resume`` attaches the process directly to any yielded
  event that has not been processed yet: a ``Timeout`` is recognised
  by its class alone, any other ``Event`` after an ``isinstance`` and
  same-environment check.
  Resource requests are usually granted on arrival (see
  ``repro.sim.resources``), so a yielded ``StoreGet``, ``Request`` or
  ``ContainerGet`` is typically triggered but not yet processed, and
  attaches here too.  Only non-events, events of another environment
  (an error) and already-processed events (re-fired through a pooled
  hook) take ``Process._wait_slow``.
* ``Environment.run`` is the one dispatch loop, inlined with bound
  locals; :meth:`Environment.step` is one iteration of it.
* The calendar pays per distinct future instant, not per event: a heap
  of instants, each with one NORMAL list, while the current instant is
  two standing lists (see :class:`Environment`).  The at-now list
  ``_now_normal`` always exists, so ``succeed``/``fail``, process
  completions and the on-arrival grants of ``repro.sim.resources``
  append straight to it, with no lookup or fallback.
* The put marker: a put whose event nobody looks at (a credit return,
  a flit landing in a receive buffer, a mailbox message) calls
  ``Store.put_forget``/``Container.put_forget``.  It grants exactly as
  ``put`` does but allocates no event; the shared :data:`_PUT_MARK`
  takes the event's NORMAL slot, and ``run``/``step`` count it as one
  dispatched event when they reach it.  It is counted there, not at
  the call, so a run stopping on ``until_event`` ahead of it counts
  what the event would have, and it is not an elided event.  Resource
  events (``Request``, ``StorePut``/``StoreGet``,
  ``ContainerPut``/``ContainerGet``) set their ``Event`` fields inline
  rather than through ``Event.__init__``.

None of this changes observable scheduling: pooled events and markers
consume the same sequence numbers as freshly allocated events, so the
``(time, priority, seq)`` order of a run is bit-identical to the
pre-fast-path kernel.  ``Environment.stats`` exposes kernel counters
(events processed and elided, events/sec of wall-clock, peak queue
depth, event-pool hits and misses); ``perfbench/`` records them per
layer.

Callbacks
---------

Model code whose process would only say "after ``d``, do X" calls
:meth:`Environment.call_later` instead: one pooled hook in the list
``env.timeout(d)`` would join, no generator, no start hook, no
completion event.  The fabric's fixed-delay handoffs (link
propagation, credit return, the switch's port-latency forward) run
this way on every path, observed and sanitized alike, and credit the
start hook and completion their process would have dispatched through
:meth:`Environment.credit_elided`, so event counts are those of the
process-per-handoff model.
"""

from __future__ import annotations

from heapq import heappop, heappush
from sys import getrefcount
# Wall-clock is only read for Environment.stats busy-time counters; it
# never feeds back into scheduling.
from time import perf_counter   # fcc: allow[wall-clock]
from typing import Any, Callable, Dict, Generator, Iterable, List, Optional

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "Interrupt",
    "AllOf",
    "AnyOf",
    "SimulationError",
    "run_proc",
    "total_events_processed",
]

_INF = float("inf")

#: Upper bound on each free list; beyond this, events are left to the GC.
_POOL_LIMIT = 512

#: Process-wide count of events dispatched by every Environment, used by
#: the perf harness to attribute events/sec to experiments that build
#: several environments internally.
_total_events = 0


def total_events_processed() -> int:
    """Events dispatched by all environments since interpreter start."""
    return _total_events


class SimulationError(Exception):
    """Raised for kernel misuse (double trigger, running a dead env...)."""


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`.

    The interrupted process sees this exception raised at its current
    ``yield`` statement and may catch it to implement preemption,
    timeout-and-retry, or failure handling.
    """

    @property
    def cause(self) -> Any:
        return self.args[0] if self.args else None


class Event:
    """An occurrence that processes can wait for.

    An event starts *pending*, becomes *triggered* when given a value
    (or an exception) and scheduled, and *processed* once its callbacks
    have run.  Callbacks receive the event itself.  A ``None`` entry in
    ``callbacks`` is a tombstone left by an O(1) detach and is skipped
    when the event fires.

    The first waiter to attach while ``callbacks`` is still empty is
    held in the ``_waiter`` slot instead of the list (saving a
    ``list.append`` on the hot path); it fires before the list, which
    is exactly attach order.
    """

    __slots__ = ("env", "callbacks", "_waiter", "_value", "_ok",
                 "_scheduled", "_processed")

    _PENDING = object()

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: Optional[List[Optional[Callable[["Event"], None]]]] = []
        self._waiter: Optional[Callable[["Event"], None]] = None
        self._value: Any = Event._PENDING
        self._ok = True
        self._scheduled = False
        self._processed = False
        san = env._sanitizer
        if san is not None:
            san.on_created(self)

    @property
    def triggered(self) -> bool:
        return self._value is not Event._PENDING

    @property
    def processed(self) -> bool:
        return self._processed

    @property
    def ok(self) -> bool:
        if not self.triggered:
            raise SimulationError("event value not yet available")
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is Event._PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        if not self._scheduled:
            # At-now scheduling, inlined: the hot grant path.
            self._scheduled = True
            env = self.env
            env._now_normal.append(self)
            env._pending += 1
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        The exception is re-raised inside every waiting process.
        """
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        self.env._schedule_now(self)
        return self

    def _attach(self, callback: Callable[["Event"], None]) -> None:
        """Attach ``callback`` where a process waiting here would go.

        The waiter slot while it is free and no callback came first,
        else the end of ``callbacks``: a continuation attached here
        fires exactly where a process's resume would have.  The event
        must not have fired yet.
        """
        if self._waiter is None and not self.callbacks:
            self._waiter = callback
        else:
            self.callbacks.append(callback)

    def __repr__(self) -> str:
        state = "processed" if self._processed else (
            "triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


#: Module-level alias of the pending sentinel for fast access in hot code.
_PENDING = Event._PENDING

#: The put marker.  An event-free put (``Store.put_forget``,
#: ``Container.put_forget``) grants on arrival exactly as ``put`` does
#: but allocates no event: it appends this shared object to the NORMAL
#: slot the event would have taken.  ``run``/``step`` count it as one
#: dispatched event when they reach it (never earlier, so a run that
#: stops on ``until_event`` first does not count it) and fire nothing.
_PUT_MARK = object()


def _bad_delay(delay: Any) -> ValueError:
    """The error for a delay that is negative or NaN."""
    if delay < 0:
        return ValueError(f"negative delay {delay}")
    return ValueError(f"delay {delay!r} is not a number >= 0")


def _bad_time(what: str, time: Any, now: float) -> ValueError:
    """The error for an absolute time before ``now``, or NaN."""
    if time < now:
        return ValueError(f"{what} is in the past (now={now})")
    return ValueError(f"{what} is not a number")


class Timeout(Event):
    """An event that fires after a fixed delay.

    Instances created through :meth:`Environment.timeout` come from a
    free list and return to it once processed (refcount-guarded, see the
    module docstring); direct construction also works and is what the
    pool falls back to.
    """

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if not delay >= 0:
            raise _bad_delay(delay)
        super().__init__(env)
        self.delay = delay
        self._ok = True
        self._value = value
        self._scheduled = True
        env._schedule_at(env._now + delay, self)


class _Hook(Event):
    """Internal pooled event carrying a single pre-armed callback.

    Used for the three kernel-internal wakeups that the seed engine
    allocated a fresh ``Event`` (or ``Initialize``) for: starting a new
    process, re-firing an already-processed event for a late yielder,
    and delivering an interrupt.  Never exposed to model code.
    """

    __slots__ = ()


class Process(Event):
    """A running process; also an event that fires when the process ends.

    Created via :meth:`Environment.process`.  The wrapped generator
    yields events; when a yielded event fires, the generator is resumed
    with the event's value (or the event's exception is thrown in).
    """

    __slots__ = ("_generator", "_target", "name", "daemon", "_resume_cb",
                 "_cb_index", "_send", "_throw")

    def __init__(self, env: "Environment",
                 generator: Generator[Event, Any, Any],
                 name: str = "", daemon: bool = False) -> None:
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        self._target: Optional[Event] = None
        # Bound once: every attach/detach reuses the same bound method
        # instead of allocating a fresh one per wait; same for the
        # generator's send/throw, which the dispatch loops call per event.
        self._resume_cb = self._resume
        self._send = generator.send
        self._throw = generator.throw
        self._cb_index = -1
        self.name = name or getattr(generator, "__name__", "process")
        #: Daemon processes are perpetual service loops (port receivers,
        #: link senders, rebalance timers).  Idling forever is their
        #: normal end state, so the sanitizer's drain-time deadlock
        #: report skips them.
        self.daemon = daemon
        env._schedule_hook(self._resume_cb, True, None)

    @property
    def is_alive(self) -> bool:
        return not self.triggered

    @property
    def target(self) -> Optional[Event]:
        """The event this process currently waits on (None if running)."""
        return self._target

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its next resume.

        Interrupting a dead process is an error; interrupting a process
        that is about to be resumed is allowed and takes precedence.
        """
        if not self.is_alive:
            raise SimulationError(f"cannot interrupt dead process {self.name}")
        target = self._target
        if target is not None and target.callbacks is not None:
            self._detach(target)
        self.env._schedule_hook(self._resume_cb, False, Interrupt(cause))

    def _detach(self, target: Event) -> None:
        """Detach our resume callback from ``target`` in O(1).

        Clears the waiter slot if we hold it, else tombstones our
        remembered index in the callback list; falls back to a scan if
        the index no longer points at us (e.g. already tombstoned).
        """
        cb = self._resume_cb
        if target._waiter is cb:
            target._waiter = None
            return
        cbs = target.callbacks
        i = self._cb_index
        if 0 <= i < len(cbs) and cbs[i] is cb:
            cbs[i] = None
            return
        try:
            cbs[cbs.index(cb)] = None
        except ValueError:
            pass

    def _resume(self, event: Event) -> None:
        if self._value is not _PENDING:
            # The process died between this wakeup being scheduled and
            # firing (e.g. a stale interrupt): drop it instead of
            # throwing into an exhausted generator.
            return
        env = self.env
        target = self._target
        if target is not None and target is not event:
            # We are being resumed by `event`; detach from the old target.
            if target.callbacks is not None:
                self._detach(target)
        self._target = None
        env._active_process = self
        try:
            if event._ok:
                next_event = self._send(event._value)
            else:
                next_event = self._throw(event._value)
        except StopIteration as stop:
            env._active_process = None
            self._finish()
            if self._value is _PENDING:
                self._ok = True
                self._value = stop.value
                env._schedule_now(self)
            return
        except BaseException as exc:
            env._active_process = None
            self._finish()
            if self._value is _PENDING:
                self._ok = False
                self._value = exc
                env._schedule_now(self)
            return
        env._active_process = None

        if (next_event.__class__ is Timeout or (
                isinstance(next_event, Event) and next_event.env is env
                and not next_event._processed)) \
                and (cbs := next_event.callbacks) is not None:
            # Fast path: attach directly to a pending event of this
            # environment — a Timeout (checked by class alone, the
            # common `yield env.timeout(...)` case), or a resource
            # request, process or condition.
            if next_event._waiter is None and not cbs:
                next_event._waiter = self._resume_cb
            else:
                self._cb_index = len(cbs)
                cbs.append(self._resume_cb)
            self._target = next_event
            return
        self._wait_slow(next_event)

    def _finish(self) -> None:
        """Drop the bound methods of a generator that has returned.

        ``_resume_cb`` closes a ``Process`` -> bound method -> ``Process``
        cycle, so without this every finished process would wait for
        the cyclic collector instead of dying with its last reference.
        A dead process is never attached or resumed again (a stale
        wakeup returns on ``_value`` before touching these).
        """
        self._resume_cb = self._send = self._throw = None

    def _wait_slow(self, next_event: Any) -> None:
        """Rare wait path: non-events, foreign and processed events."""
        if not isinstance(next_event, Event):
            error = SimulationError(
                f"process {self.name!r} yielded a non-event: {next_event!r}")
            try:
                self._generator.throw(error)
            except StopIteration as stop:
                failed_ok, failed_value = True, stop.value
            except BaseException as exc:
                failed_ok, failed_value = False, exc
            else:
                # The generator swallowed the error and yielded again;
                # refuse to continue a misbehaving process.
                self._generator.close()
                failed_ok, failed_value = False, error
            self._finish()
            if self._value is _PENDING:
                self._ok = failed_ok
                self._value = failed_value
                self.env._schedule_now(self)
            return
        if next_event.env is not self.env:
            raise SimulationError("event belongs to a different environment")
        # Processed, or firing right now (its callbacks are taken; in
        # sanitized runs dead events carry a callback guard instead of
        # None): every pending event attached in _resume, so resume
        # immediately with the stored value.
        self._target = self.env._schedule_hook(
            self._resume_cb, next_event._ok, next_event._value)


class _Condition(Event):
    """Base for AllOf / AnyOf composite events.

    An event counts as *fired* once its callbacks have been consumed
    (``callbacks is None``); note that a :class:`Timeout` carries its
    value from creation, so ``triggered`` alone cannot be used here.
    """

    __slots__ = ("events", "_unfired", "_fired")

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env)
        self.events = list(events)
        if any(e.env is not env for e in self.events):
            raise SimulationError("events from different environments")
        self._unfired = 0
        self._fired = 0
        # Bound once for the loop, but not kept: a stored bound method
        # would make every condition a reference cycle.
        check = self._check
        failed = None
        for event in self.events:
            if event.callbacks is None or event._processed:
                # Already processed (sanitized runs guard dead events'
                # callback slot instead of clearing it to None).
                if not event._ok and failed is None:
                    failed = event._value
                self._fired += 1
            else:
                self._unfired += 1
                event.callbacks.append(check)
        if failed is not None:
            self.fail(failed)
        else:
            self._maybe_fire()

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            self.fail(event._value)
            return
        self._unfired -= 1
        self._fired += 1
        self._maybe_fire()

    def _maybe_fire(self) -> None:
        if not self.triggered and self._satisfied():
            self.succeed(self._collect())

    def _collect(self) -> dict:
        return {e: e._value for e in self.events
                if e.callbacks is None or e._processed}

    def _satisfied(self) -> bool:
        raise NotImplementedError


class AllOf(_Condition):
    """Fires once every constituent event has fired."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._unfired == 0


class AnyOf(_Condition):
    """Fires as soon as any constituent event fires."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._fired > 0 or not self.events


class Environment:
    """The simulation clock and event queue.

    An event is scheduled at one of two priorities: URGENT (kernel
    wakeups) fires before NORMAL (everything else) at the same time.
    The queue keeps the current instant apart from the future:

    * ``_urgent``, the standing URGENT list.  URGENT entries (process
      starts, interrupts, re-fired events) are only ever scheduled at
      the current instant, so one list serves every instant.
    * ``_now_normal``, the at-now list: the current instant's NORMAL
      entries.  ``succeed``/``fail``, process completions, the
      on-arrival grants of ``repro.sim.resources`` and any timeout whose
      ``now + delay == now`` append straight to it.
    * ``_future``, one NORMAL list per future instant, and ``_times``,
      a heap of those instants.  Scheduling at an already-pending
      instant is a dict hit and a ``list.append``; the heap is touched
      once per distinct instant.  Advancing the clock pops the heap,
      and the instant's list becomes the at-now list.

    Dispatch replays exactly the classic ``(time, priority, seq)``
    order: instants ascend, URGENT entries are re-checked between
    events so they preempt the rest of the NORMAL backlog at the same
    time, and within a priority the append order *is* the sequence
    order.  Entries are bare event references — no per-event tuple is
    allocated.
    """

    __slots__ = ("_now", "_times", "_future", "_urgent", "_now_normal",
                 "_running", "_active_process", "_timeout_pool",
                 "_hook_pool", "_pending", "_events_processed",
                 "_peak_queue", "_busy_seconds", "_sanitizer",
                 "_telemetry", "_pool_hits", "_pool_misses", "_elided")

    def __init__(self, initial_time: float = 0.0, *,
                 sanitize: bool = False,
                 telemetry: Any = None) -> None:
        self._now = float(initial_time)
        if not self._now == self._now:
            raise ValueError(f"initial_time {initial_time!r} is NaN")
        self._times: List[float] = []
        self._future: Dict[float, list] = {}
        self._urgent: list = []
        self._now_normal: list = []
        # Set for the whole of a run()/step() call: a callback that runs
        # its own environment again is refused, not left to re-fire the
        # slots the outer loop has consumed.
        self._running = False
        self._active_process: Optional[Process] = None
        self._timeout_pool: List[Timeout] = []
        self._hook_pool: List[_Hook] = []
        self._pending = 0
        self._events_processed = 0
        self._peak_queue = 0
        self._busy_seconds = 0.0
        self._pool_hits = 0
        self._pool_misses = 0
        # Events a handoff callback elided but credited (see
        # credit_elided), counted into events_processed.
        self._elided = 0
        # Opt-in runtime sanitizers (credit conservation, event
        # lifecycle, write races, drain deadlocks).  `None` keeps every
        # hot-path hook to a single is-None test; see
        # repro.analysis.sanitizers for what `True` buys and costs.
        if sanitize:
            from ..analysis.sanitizers import RuntimeSanitizer
            self._sanitizer = RuntimeSanitizer(self)
        else:
            self._sanitizer = None
        # Opt-in observability (metrics, spans, timeline sampling).
        # `None` keeps every instrumented hot path to a single is-None
        # test; see repro.telemetry.  Accepts True (a fresh default
        # Telemetry) or a Telemetry instance.
        if telemetry:
            if telemetry is True:
                from ..telemetry import Telemetry
                telemetry = Telemetry()
            telemetry.bind(self)
            self._telemetry = telemetry
        else:
            self._telemetry = None

    @property
    def now(self) -> float:
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process being resumed, or None in a plain callback.

        In sanitized runs a callback chain standing in for a process
        reports its ``repro.analysis.sanitizers.Writer`` here.
        """
        return self._active_process

    @property
    def sanitize(self) -> bool:
        """Whether runtime sanitizers are attached (see ``sanitizer``)."""
        return self._sanitizer is not None

    @property
    def sanitizer(self):
        """The attached RuntimeSanitizer, or None on the fast path."""
        return self._sanitizer

    @property
    def telemetry(self):
        """The attached Telemetry hub, or None on the fast path."""
        return self._telemetry

    @property
    def stats(self) -> Dict[str, Any]:
        """Kernel counters: work done and how fast it was dispatched.

        ``events_per_sec`` is events over the wall-clock time spent
        inside :meth:`run`/:meth:`step` (simulated time never touches a
        wall clock).  It is a kernel throughput figure only: perfbench
        judges wall time per simulated transaction, which events/sec
        cannot show (a change that elides events lowers it).
        ``events_processed`` includes elided-but-credited events (see
        :meth:`credit_elided`), so it counts what a process-per-handoff
        model would have dispatched; ``events_elided`` says how many
        were credited.  ``peak_queue_depth`` is sampled each time the
        clock advances.
        """
        busy = self._busy_seconds
        return {
            "events_processed": self._events_processed,
            "events_per_sec": self._events_processed / busy if busy > 0 else 0.0,
            "busy_seconds": busy,
            "peak_queue_depth": self._peak_queue,
            "pooled_timeouts": len(self._timeout_pool),
            "pooled_hooks": len(self._hook_pool),
            "events_elided": self._elided,
            "pool_hits": self._pool_hits,
            "pool_misses": self._pool_misses,
        }

    # -- scheduling ------------------------------------------------------

    def _schedule_at(self, time: float, entry: Any) -> None:
        """Schedule ``entry`` at NORMAL priority at ``time`` (>= now).

        The one insertion rule of timeouts and :meth:`call_later`: the
        at-now list when ``time`` is the current instant (a zero delay,
        or one the clock absorbs), else ``time``'s future list, which
        its first entry creates.  :meth:`timeout` and :meth:`call_later`
        inline it; the sanitized ``Timeout`` constructor calls it.
        """
        if time == self._now:
            self._now_normal.append(entry)
        else:
            future = self._future.get(time)
            if future is None:
                self._future[time] = [entry]
                heappush(self._times, time)
            else:
                future.append(entry)
        self._pending += 1

    def _schedule_now(self, event: Event) -> None:
        """Schedule ``event`` at NORMAL priority at the current time."""
        if event._scheduled:
            return
        event._scheduled = True
        self._now_normal.append(event)
        self._pending += 1

    def _schedule_hook(self, callback: Callable[[Event], None],
                       ok: bool, value: Any) -> "_Hook":
        """Schedule a pooled single-callback URGENT wakeup now.

        Takes the same slot in scheduling order as the fresh ``Event``
        (or ``Initialize``) the seed kernel allocated here, so event
        ordering is unchanged.
        """
        pool = self._hook_pool
        if pool:
            hook = pool.pop()
            hook._ok = ok
            hook._value = value
            hook._processed = False
            hook.callbacks.append(callback)
            self._pool_hits += 1
        else:
            hook = _Hook.__new__(_Hook)
            hook.env = self
            hook.callbacks = [callback]
            hook._waiter = None
            hook._ok = ok
            hook._value = value
            hook._processed = False
            hook._scheduled = True
            self._pool_misses += 1
        self._urgent.append(hook)
        self._pending += 1
        return hook

    def credit_elided(self, n: int) -> None:
        """Account ``n`` events a handoff callback elided.

        The fabric's fixed-delay handoffs run as :meth:`call_later`
        callbacks on every path instead of processes, so they skip
        events whose number is known exactly (each elides a start hook
        and a completion).  Each caller credits the elided events at
        the instant where the process-per-handoff model dispatched
        them, so ``events_processed`` (and the process-wide total) keep
        that model's count, on every path and in runs cut short by a
        horizon, while the wall clock drops.
        """
        self._elided += n
        self._events_processed += n
        global _total_events
        _total_events += n

    def call_later(self, delay: float, fn: Callable[..., Any],
                   *args: Any) -> None:
        """Call ``fn(*args)`` once, ``delay`` from now, without a process.

        One pooled hook is scheduled where ``timeout(delay)`` would be,
        in insertion order with it, so the call runs exactly where a
        process's ``yield env.timeout(delay)`` would have resumed.
        Costs one event instead of a process's start hook, Timeout and
        completion.  ``fn`` runs with no active process; sanitized
        callers that write to stores name a writer
        (``RuntimeSanitizer.writer``).
        """
        if not delay >= 0:
            raise _bad_delay(delay)
        pool = self._hook_pool
        if pool:
            hook = pool.pop()
            hook._processed = False
            self._pool_hits += 1
        else:
            hook = _Hook.__new__(_Hook)
            hook.env = self
            hook.callbacks = []
            hook._scheduled = True
            self._pool_misses += 1
        hook._waiter = _call
        hook._ok = True
        hook._value = (fn, args)
        # _schedule_at, inlined as in timeout(): hot path.
        now = self._now
        time = now + delay
        if time == now:
            self._now_normal.append(hook)
        else:
            future = self._future.get(time)
            if future is None:
                self._future[time] = [hook]
                heappush(self._times, time)
            else:
                future.append(hook)
        self._pending += 1

    # -- factories -------------------------------------------------------

    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """A :class:`Timeout` from the free list (allocates only when empty)."""
        if not delay >= 0:
            raise _bad_delay(delay)
        if self._sanitizer is not None:
            # Sanitized path: full construction so the sanitizer sees
            # the event's whole lifecycle (recycling is disabled too).
            return Timeout(self, delay, value)
        pool = self._timeout_pool
        if pool:
            timeout = pool.pop()
            timeout._value = value
            timeout._processed = False
            self._pool_hits += 1
        else:
            timeout = Timeout.__new__(Timeout)
            timeout.env = self
            timeout.callbacks = []
            timeout._waiter = None
            timeout._ok = True
            timeout._value = value
            timeout._processed = False
            timeout._scheduled = True
            self._pool_misses += 1
        timeout.delay = delay
        # _schedule_at, inlined: the hottest scheduling call.
        now = self._now
        time = now + delay
        if time == now:
            self._now_normal.append(timeout)
        else:
            future = self._future.get(time)
            if future is None:
                self._future[time] = [timeout]
                heappush(self._times, time)
            else:
                future.append(timeout)
        self._pending += 1
        return timeout

    def process(self, generator: Generator[Event, Any, Any],
                name: str = "", daemon: bool = False) -> Process:
        return Process(self, generator, name=name, daemon=daemon)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- execution -------------------------------------------------------

    def peek(self) -> float:
        """Time of the next scheduled event, or +inf if queue is empty."""
        if self._urgent or self._now_normal:
            return self._now
        times = self._times
        return times[0] if times else _INF

    def step(self) -> None:
        """Process the single next event.

        Semantically identical to one iteration of :meth:`run`'s inner
        loop, minus event recycling (stepping is a debug/test path; the
        free lists only fill from :meth:`run`).
        """
        if self._running:
            raise _reentrant("step")
        urgent = self._urgent
        normal = self._now_normal
        if urgent:
            event = urgent.pop(0)
        elif normal:
            event = normal.pop(0)
        else:
            times = self._times
            if not times:
                raise SimulationError("no scheduled events")
            time = heappop(times)
            normal = self._now_normal = self._future.pop(time)
            self._now = time
            event = normal.pop(0)
        t0 = perf_counter()
        self._pending -= 1
        # Counted before firing, as run() counts it: a raising callback
        # still consumed the event.
        self._events_processed += 1
        global _total_events
        _total_events += 1
        if event is _PUT_MARK:
            self._busy_seconds += perf_counter() - t0
            return
        callbacks = event.callbacks
        event.callbacks = None
        self._running = True
        try:
            waiter = event._waiter
            if waiter is not None:
                event._waiter = None
                waiter(event)
                fired = True
            else:
                fired = False
            for callback in callbacks:
                if callback is not None:
                    callback(event)
                    fired = True
        finally:
            self._running = False
            self._busy_seconds += perf_counter() - t0
        event._processed = True
        if self._sanitizer is not None:
            self._sanitizer.on_processed(event)
        if not fired and not event._ok and not isinstance(event, Process):
            # A failed event nobody waited for: surface the error.
            raise event._value

    def run(self, until: Optional[float] = None,
            until_event: Optional[Event] = None) -> Any:
        """Run until the queue drains, time ``until``, or ``until_event``.

        Returns the value of ``until_event`` if given and it fired.  If
        ``until`` is given the clock always lands exactly on ``until``
        when the run stops early — including when the queue drains
        first — so wall-clock-style bookkeeping against ``env.now`` is
        branch-independent.  A callback may not run or step the
        environment that is dispatching it.
        """
        if self._running:
            raise _reentrant("run")
        if until is not None and not until >= self._now:
            raise _bad_time(f"until={until}", until, self._now)
        stop = until if until is not None else _INF
        times = self._times
        future = self._future
        urgent = self._urgent
        normal = self._now_normal
        timeout_pool = self._timeout_pool
        hook_pool = self._hook_pool
        timeout_cls = Timeout
        hook_cls = _Hook
        refcount = getrefcount
        max_pooled = _POOL_LIMIT
        pending_sentinel = _PENDING
        put_mark = _PUT_MARK
        san = self._sanitizer
        check_event = until_event is not None
        processed = 0
        done = False
        ui = 0
        ni = 0
        self._running = True
        t0 = perf_counter()
        try:
            if (urgent or normal) and self._pending > self._peak_queue:
                # Peak depth is sampled at time-advance granularity;
                # entering a run at an instant with work counts as one.
                self._peak_queue = self._pending
            while True:
                nlen = len(normal)
                while True:
                    if check_event and \
                            until_event._value is not pending_sentinel:
                        done = True
                        break
                    # URGENT is re-checked every iteration so a
                    # just-scheduled urgent event preempts the remaining
                    # NORMAL backlog at this time.
                    if ui < len(urgent):
                        event = urgent[ui]
                        ui += 1
                    elif ni < nlen:
                        event = normal[ni]
                        ni += 1
                        if event is put_mark:
                            processed += 1
                            continue
                    else:
                        # The cursor caught up with the cached length:
                        # re-measure once in case dispatch appended
                        # same-time events, then stop.
                        nlen = len(normal)
                        if ni >= nlen:
                            break
                        event = normal[ni]
                        ni += 1
                        if event is put_mark:
                            processed += 1
                            continue
                    callbacks = event.callbacks
                    event.callbacks = None
                    processed += 1
                    waiter = event._waiter
                    if waiter is not None:
                        # Single waiter in the slot — the overwhelmingly
                        # common case.
                        event._waiter = None
                        waiter(event)
                        fired = True
                        if callbacks:
                            for callback in callbacks:
                                if callback is not None:
                                    callback(event)
                    else:
                        fired = False
                        for callback in callbacks:
                            if callback is not None:
                                callback(event)
                                fired = True
                    event._processed = True
                    if not fired and not event._ok and \
                            not isinstance(event, Process):
                        # A failed event nobody waited for: surface the
                        # error.
                        raise event._value
                    if san is not None:
                        # Sanitized runs trade recycling for full
                        # lifecycle tracking (and dead-event callback
                        # guards); scheduling order is unaffected.
                        san.on_processed(event)
                        continue
                    # Recycle the event if the kernel holds the last
                    # references (the list slot, local `event`, and
                    # getrefcount's argument).
                    cls = event.__class__
                    if cls is timeout_cls:
                        if len(timeout_pool) < max_pooled and \
                                refcount(event) == 3:
                            if callbacks:
                                callbacks.clear()
                            event.callbacks = callbacks
                            timeout_pool.append(event)
                    elif cls is hook_cls:
                        if len(hook_pool) < max_pooled and \
                                refcount(event) == 3:
                            if callbacks:
                                callbacks.clear()
                            event.callbacks = callbacks
                            hook_pool.append(event)
                if done or not times:
                    break
                time = times[0]
                if time > stop:
                    self._now = stop
                    break
                # The instant is drained: advance the clock.
                if ui:
                    urgent.clear()
                    ui = 0
                heappop(times)
                normal = self._now_normal = future.pop(time)
                ni = 0
                self._now = time
                live = self._pending - processed
                if live > self._peak_queue:
                    self._peak_queue = live
        finally:
            # On any exit — drained, stopped, or a raising callback —
            # drop consumed slots so the next run or step never
            # re-fires a processed event.
            if ui:
                del urgent[:ui]
            if ni:
                del normal[:ni]
            self._running = False
            self._busy_seconds += perf_counter() - t0
            self._events_processed += processed
            self._pending -= processed
            global _total_events
            _total_events += processed
        if san is not None and not times and not urgent and not normal:
            # The queue drained: report blocked processes (deadlocks),
            # never-triggered events, and credit-conservation drift.
            san.on_drain()
        if until_event is not None:
            if until_event._value is not _PENDING:
                if not until_event._ok:
                    raise until_event._value
                return until_event._value
            if until is not None:
                # The queue drained (or `stop` was reached) before the
                # event fired; land on `until` and report via the
                # still-pending event rather than raising.
                if stop != _INF:
                    self._now = stop
                return None
            raise SimulationError("until_event never fired")
        if until is not None and stop != _INF:
            self._now = stop
        return None


def _reentrant(call: str) -> SimulationError:
    """The error for run()/step() called from inside a dispatch."""
    return SimulationError(
        f"re-entrant {call}(): a callback called {call}() on the "
        "environment that is dispatching it")


def _call(hook: _Hook) -> None:
    """Fire a :meth:`Environment.call_later` hook (its ``_waiter``)."""
    fn, args = hook._value
    hook._value = None      # a pooled hook must not pin the arguments
    fn(*args)


def run_proc(env: Environment, gen: Generator,
             horizon: float = 5_000_000_000.0) -> Any:
    """Run one process to completion and return its value.

    The run-to-completion idiom shared by benchmarks, examples and
    tests: stops as soon as the process finishes (important when
    background traffic generators would otherwise run to the horizon),
    and raises if the horizon passes first.
    """
    proc = env.process(gen)
    env.run(until=env.now + horizon, until_event=proc)
    if not proc.triggered:
        raise RuntimeError("process did not finish within horizon")
    if not proc.ok:
        raise proc.value
    return proc.value
