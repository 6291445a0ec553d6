"""Runtime sanitizers for the simulation kernel (``sanitize=True``).

``Environment(sanitize=True)`` attaches a :class:`RuntimeSanitizer`
that watches four invariant families while a model runs:

* **Credit conservation** — every :class:`~repro.pcie.credits.
  CreditDomain` built on a sanitized environment self-registers and is
  audited at each rebalance: per flow,
  ``available + in_flight == granted + retire_debt`` (the debt term
  accounts for the domain's lazy shrink).  A credit that leaves a pool
  without accounting is a *leak*; a release without an acquire is a
  *negative credit*.
* **Event lifecycle** — events still pending at drain time with
  waiters attached are reported as scheduled-but-never-triggered, and
  a callback appended to an already-processed (dead) event — which
  would silently never fire — is reported at the append site.
* **Write-write races** — two different processes mutating the same
  :class:`~repro.sim.resources.Store` / :class:`~repro.sim.resources.
  Resource` at the same timestamp: deterministic today, but the order
  is an accident of sequence numbers, so any refactor can flip it.
  A chain of ``call_later`` callbacks that stands in for a process
  writes as a :class:`Writer` named like that process.
* **Drain-time deadlocks** — when the event queue drains while
  processes are still alive, each blocked process is named along with
  the event/resource it waits on.

The sanitizer is strictly additive: it never changes scheduling, so a
sanitized run is event-for-event identical to a plain one (only event
*recycling* is disabled, which is invisible to model code).  The cost
is about a 4x slowdown of the pure-timeout kernel microbenchmark (the
worst case: every event pays the bookkeeping and pooling is off) —
see ``docs/ARCHITECTURE.md`` — which is why it is opt-in and off the
PR-1 fast path.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional, Set, Tuple

__all__ = ["Finding", "RuntimeSanitizer", "SanitizerError", "Writer"]


class SanitizerError(AssertionError):
    """Raised by :meth:`RuntimeSanitizer.assert_clean` on findings."""


@dataclasses.dataclass(frozen=True)
class Finding:
    """One invariant violation observed at runtime."""

    kind: str        # credit-leak | credit-negative | stale-event |
                     # dead-event-callback | write-race | deadlock
    time: float      # simulated time of detection
    message: str

    def format(self) -> str:
        return f"[{self.kind}] t={self.time:.1f}: {self.message}"

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)


class Writer:
    """The writer one callback chain stands for in write-race findings.

    A process is the writer of every Store/Resource mutation it makes
    (``env.active_process``).  A callback runs with no process, so a
    chain of callbacks that replaces one, such as a switch forward,
    runs each step through :meth:`wrap`, which makes this object the
    active writer for the call.  One Writer per chain, named like the
    process it replaces, keeps two chains writing at one instant a
    race, as two processes would be; without it both would write as
    the same ``None``.
    """

    __slots__ = ("env", "name")

    def __init__(self, env: Any, name: str) -> None:
        self.env = env
        self.name = name

    def wrap(self, fn: Any) -> Any:
        """``fn`` made to run with this writer active."""
        env = self.env

        def run(*args: Any) -> Any:
            outer = env._active_process
            env._active_process = self
            try:
                return fn(*args)
            finally:
                env._active_process = outer

        return run


class _DeadCallbacks(list):
    """Guard installed as ``event.callbacks`` once an event is dead.

    Appending a callback here can never fire it; record the mistake
    instead of silently dropping it.  (The kernel itself never appends
    — it routes processed events through the re-fire path.)
    """

    __slots__ = ("_sanitizer", "_event_desc")

    def __init__(self, sanitizer: "RuntimeSanitizer",
                 event_desc: str) -> None:
        super().__init__()
        self._sanitizer = sanitizer
        self._event_desc = event_desc

    def append(self, callback: Any) -> None:
        self._sanitizer.note(
            "dead-event-callback",
            f"callback {_callback_name(callback)} added to already-"
            f"processed {self._event_desc}; it will never fire")
        super().append(callback)


def _callback_name(callback: Any) -> str:
    owner = getattr(callback, "__self__", None)
    name = getattr(callback, "__qualname__",
                   getattr(callback, "__name__", repr(callback)))
    if owner is not None and hasattr(owner, "name"):
        return f"{name} of {owner.name!r}"
    return str(name)


def _describe_event(event: Any, name_of) -> str:
    """A human-readable name for an event and, if any, its resource;
    ``name_of`` gives an object's per-run name."""
    cls = type(event).__name__
    resource = getattr(event, "resource", None)
    if resource is not None:
        return (f"{cls} on Resource(capacity={resource.capacity}, "
                f"users={len(resource.users)}, "
                f"queued={resource.queue_len})")
    store = getattr(event, "store", None)
    if store is not None:
        return (f"{cls} on {type(store).__name__}"
                f"(len={len(store.items)}, capacity={store.capacity})")
    container = getattr(event, "container", None)
    if container is not None:
        return (f"{cls} on Container(level={container.level}, "
                f"capacity={container.capacity})")
    name = getattr(event, "name", None)
    if name:
        return f"{cls} {name!r}"
    return name_of(event)


class RuntimeSanitizer:
    """Per-environment invariant watcher (see the module docstring).

    All hooks are cheap when nothing is wrong; findings accumulate in
    :attr:`findings` and are also available as a formatted
    :meth:`report`.  A finding names an unnamed object by the order
    the sanitizer first saw it (``Store#17``), never by its address,
    so reruns report identical findings.
    """

    def __init__(self, env: Any) -> None:
        self.env = env
        self.findings: List[Finding] = []
        #: pending (not yet processed) events, id -> event
        self._live: Dict[int, Any] = {}
        #: registered credit domains: id -> (label, domain)
        self._domains: Dict[int, Tuple[str, Any]] = {}
        #: last writer per Store/Resource: id -> (time, process, opname)
        self._writes: Dict[int, Tuple[float, Any, str]] = {}
        #: objects already reported at drain, to keep on_drain idempotent
        self._drain_reported: Set[int] = set()
        #: per-run ordinals by first sighting: id -> (object, ordinal).
        #: Events get theirs at creation and drop it when processed (as
        #: in ``_live``); Stores/Resources are held, so no later object
        #: can reuse their id.
        self._ordinals: Dict[int, Tuple[Any, int]] = {}
        self._seen = 0

    # -- bookkeeping -------------------------------------------------------

    @property
    def clean(self) -> bool:
        return not self.findings

    def name_of(self, obj: Any) -> str:
        """``Type#n``: the n-th object this sanitizer saw."""
        entry = self._ordinals.get(id(obj))
        if entry is None:
            self._seen += 1
            entry = self._ordinals[id(obj)] = (obj, self._seen)
        return f"{type(obj).__name__}#{entry[1]}"

    def note(self, kind: str, message: str) -> None:
        # One finding per distinct problem: a leaked credit would
        # otherwise re-report at every subsequent rebalance.
        for finding in self.findings:
            if finding.kind == kind and finding.message == message:
                return
        self.findings.append(Finding(kind=kind, time=self.env.now,
                                     message=message))

    # -- kernel hooks ------------------------------------------------------

    def on_created(self, event: Any) -> None:
        """An event entered the world (called from ``Event.__init__``)."""
        self._live[id(event)] = event
        self._seen += 1
        self._ordinals[id(event)] = (None, self._seen)

    def on_processed(self, event: Any) -> None:
        """An event's callbacks ran; it is dead from here on.

        Non-pooled model-visible events get a :class:`_DeadCallbacks`
        guard so late ``callbacks.append`` calls are caught.  Pooled
        kernel classes (``Timeout``, the internal hooks) keep the
        ``None`` sentinel; model code never appends to those, and the
        kernel's processed-event checks rely on it.
        """
        self._live.pop(id(event), None)
        from ..sim import engine as _engine
        cls = event.__class__
        if cls is not _engine.Timeout and cls is not _engine._Hook:
            event.callbacks = _DeadCallbacks(
                self, _describe_event(event, self.name_of))
        self._ordinals.pop(id(event), None)

    def writer(self, name: str) -> Writer:
        """A fresh writer for one callback chain (see :class:`Writer`)."""
        return Writer(self.env, name)

    def on_write(self, obj: Any, opname: str) -> None:
        """A Store/Resource state mutation; detect same-time racers."""
        now = self.env.now
        writer = self.env.active_process
        key = id(obj)
        if key not in self._ordinals:
            self.name_of(obj)
        prev = self._writes.get(key)
        if prev is not None and prev[0] == now and prev[1] is not writer:
            first = getattr(prev[1], "name", "<top-level>")
            second = getattr(writer, "name", "<top-level>")
            self.note(
                "write-race",
                f"write-write race on {self.name_of(obj)}: "
                f"{prev[2]} by {first!r} and {opname} by "
                f"{second!r} at the same timestamp; the outcome depends "
                "on scheduling order only")
        self._writes[key] = (now, writer, opname)

    def on_drain(self) -> None:
        """The event queue drained: report deadlocks and stale events.

        Daemon processes (``env.process(..., daemon=True)`` — port
        receivers, link senders, rebalance timers) idle forever by
        design, so they are exempt, as are events only daemons wait on.
        When called before the queue has actually drained (a runner
        stopping at ``until_event``), pending events could still wake
        everyone, so only the credit audit runs.
        """
        from ..sim import engine as _engine
        if self.env.peek() != float("inf"):
            self.audit_credit_domains()
            return
        blocked_targets: Set[int] = set()
        # Creation order, like every finding: never by address.
        for event in list(self._live.values()):
            if not isinstance(event, _engine.Process):
                continue
            if event.daemon or event.triggered \
                    or id(event) in self._drain_reported:
                continue
            target = event.target
            self._drain_reported.add(id(event))
            if target is not None:
                blocked_targets.add(id(target))
                self.note(
                    "deadlock",
                    f"process {event.name!r} is blocked forever on "
                    f"{_describe_event(target, self.name_of)} "
                    "(queue drained)")
            else:
                self.note(
                    "deadlock",
                    f"process {event.name!r} never finished and waits "
                    "on nothing (queue drained)")
        for event in list(self._live.values()):
            if isinstance(event, _engine.Process):
                continue
            if event.triggered or id(event) in self._drain_reported:
                continue
            waiters = [w for w in [event._waiter,
                                   *(event.callbacks or ())]
                       if w is not None]
            if id(event) in blocked_targets or not waiters:
                continue   # already named via the blocked process / inert
            if all(getattr(getattr(w, "__self__", None), "daemon", False)
                   for w in waiters):
                continue   # only idle services wait on it
            self._drain_reported.add(id(event))
            self.note(
                "stale-event",
                f"{_describe_event(event, self.name_of)} was created "
                "and waited on "
                "but never triggered")
        self.audit_credit_domains()

    def audit_credit_domains(self) -> None:
        """Re-audit every registered credit domain right now."""
        for label, domain in list(self._domains.values()):
            self.check_credit_domain(domain, label=label)

    # -- credit domains ----------------------------------------------------

    def register_credit_domain(self, domain: Any,
                               label: Optional[str] = None) -> None:
        """Track a CreditDomain; audited at rebalance and at drain."""
        self._domains[id(domain)] = (label or domain.name, domain)

    def check_credit_domain(self, domain: Any,
                            label: Optional[str] = None) -> None:
        """Audit ``available + in_flight == granted + retire_debt``."""
        name = label or domain.name
        for problem in domain.conservation_problems():
            kind = ("credit-negative" if "negative" in problem
                    else "credit-leak")
            self.note(kind, f"credit domain {name!r}: {problem}")

    # -- reporting ---------------------------------------------------------

    def report(self) -> str:
        if not self.findings:
            return "sanitizer: clean (no findings)"
        lines = [f"sanitizer: {len(self.findings)} finding(s)"]
        lines.extend("  " + f.format() for f in self.findings)
        return "\n".join(lines)

    def to_json(self) -> Dict[str, Any]:
        return {
            "schema": 1,
            "tool": "fcc-sanitize",
            "count": len(self.findings),
            "findings": [f.to_dict() for f in self.findings],
        }

    def assert_clean(self) -> None:
        if self.findings:
            raise SanitizerError(self.report())
