"""The telemetry hub: one record stream per environment.

One :class:`Telemetry` instance rides on one simulation environment
(``Environment(telemetry=...)``) and collects three kinds of signal:

* **metrics** — the :class:`~repro.telemetry.metrics.MetricRegistry`
  at :attr:`Telemetry.registry`;
* **records** — :attr:`Telemetry.events`, the one list every recorded
  event lands in, in recording order: spans, instants, counter
  samples, and the sampled transactions with their stage intervals
  and marks.  The ``trace``, ``why`` and ``health`` documents are all
  read from it;
* **probes** — named zero-argument callables sampled periodically by
  :class:`~repro.telemetry.sampler.TimelineSampler` into gauges and
  counter records.

Recording is :meth:`~Telemetry.begin`, :meth:`~Telemetry.end` and
:meth:`~Telemetry.instant`; :func:`span` is the context-manager form
of a begin/end pair.  Without a :class:`TraceContext` they record
component spans and instants on per-component *tracks*.  With one they
record a transaction's causal story:

* a transaction begins and ends as the root span of its context;
* a *stage interval* is a begin/end pair that carries the context and
  one of the :data:`CATEGORIES` — time blocked on a credit, in a
  queue, at an arbiter, on a serializer or on the wire — at a named
  site;
* a *mark* is an instant that carries the context (a grant, a
  delivery).

Transactions are sampled where they start: :meth:`Telemetry.sample_root`
hands a fresh context to 1 in ``causal_sample`` root call sites, and
``None`` otherwise (and always when ``causal_sample`` is ``None``, the
default).  An unsampled transaction carries no context and costs
nothing downstream.  :mod:`repro.telemetry.attribution` rebuilds the
sampled transactions from the stream and buckets every nanosecond of
each into one category.

The off path is the whole design: ``span(env, ...)`` on a plain
environment returns a shared no-op context manager after a single
``is None`` test, and instrumented components cache ``env.telemetry``
once at construction so their hot paths cost one ``is None`` branch —
the same pattern as ``Environment(sanitize=True)``.  Recording never
yields, creates no kernel event and touches no model resource, so a
recorded run is scheduling-identical to a plain one.

Records are flat tuples (no dict per event); the Chrome/Perfetto JSON
is built once, at export time, by :mod:`repro.telemetry.perfetto`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from .metrics import MetricRegistry

__all__ = ["Telemetry", "TraceContext", "span", "ROOT", "CATEGORIES",
           "CREDIT_STALL", "QUEUEING", "ARBITRATION", "SERIALIZATION",
           "WIRE", "PROCESSING"]

#: Attribution categories, highest precedence first.  When several
#: stage intervals overlap on a transaction's critical path the
#: highest-precedence one claims the time (being blocked on a credit
#: *is* the root cause even while the flit also sits in a queue);
#: time covered by no interval is the model doing work: processing.
CREDIT_STALL = "credit_stall"
ARBITRATION = "arbitration"
QUEUEING = "queueing"
SERIALIZATION = "serialization"
WIRE = "wire"
PROCESSING = "processing"

CATEGORIES: Tuple[str, ...] = (CREDIT_STALL, ARBITRATION, QUEUEING,
                               SERIALIZATION, WIRE, PROCESSING)

#: Record tuples appended to ``Telemetry.events``:
#:   ("B", ts, tid, name, args-or-None)           span begin on track tid
#:   ("E", ts, tid)                               span end
#:   ("i", ts, tid, name, args-or-None)           instant
#:   ("C", ts, name, value)                       counter sample (sampler)
#:   ("T", ts, trace, kind, route)                transaction begin
#:   ("F", ts, trace)                             transaction end
#:   ("b", ts, trace, sid, category, site)        stage interval begin
#:   ("e", ts, trace, sid)                        stage interval end
#:   ("m", ts, trace, name, site)                 mark
#: where ``trace`` is the transaction's trace id.

#: The span id of a transaction itself: the root of its context.
ROOT = 0

#: Track used when a span/instant names no component.
DEFAULT_TRACK = "main"


def _default_track(name: str) -> str:
    """The dotted prefix of ``name`` (the component): ``cfc.rebalance``
    lands on track ``cfc``."""
    return name.rpartition(".")[0] or DEFAULT_TRACK


class TraceContext:
    """What a traced packet carries: its transaction's trace id."""

    __slots__ = ("trace_id",)

    def __init__(self, trace_id: int) -> None:
        self.trace_id = trace_id

    def __repr__(self) -> str:
        return f"<TraceContext trace={self.trace_id}>"


class _NullSpan:
    """Shared no-op context manager returned when telemetry is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: Any) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    """A live span: begins on enter and ends on exit, at sim time."""

    __slots__ = ("_telemetry", "_name", "_track", "_args", "_tid")

    def __init__(self, telemetry: "Telemetry", name: str,
                 track: Optional[str],
                 args: Optional[Dict[str, Any]]) -> None:
        self._telemetry = telemetry
        self._name = name
        self._track = track
        self._args = args

    def __enter__(self) -> "_Span":
        self._tid = self._telemetry.begin(self._name, track=self._track,
                                          args=self._args)
        return self

    def __exit__(self, *exc_info: Any) -> bool:
        self._telemetry.end(self._tid)
        return False


class Telemetry:
    """Metrics + the record stream + probes for one environment.

    Construct one and hand it to ``Environment(telemetry=...)`` (or
    pass ``telemetry=True`` to get a default instance); read it back
    as ``env.telemetry``.  A Telemetry binds to exactly one
    environment — timestamps come from that environment's clock.
    ``causal_sample=N`` samples 1 in N transaction roots; ``None``
    (the default) samples none.
    """

    def __init__(self, registry: Optional[MetricRegistry] = None,
                 causal_sample: Optional[int] = None) -> None:
        if causal_sample is not None and causal_sample < 1:
            raise ValueError(
                f"causal_sample must be >= 1, got {causal_sample}")
        self.registry = registry if registry is not None else MetricRegistry()
        self.causal_sample = causal_sample
        self.events: List[Tuple] = []
        #: Root call sites offered a context, transactions begun and
        #: transactions ended.
        self.roots_seen = 0
        self.started = 0
        self.finished = 0
        self._next_trace = 0
        self._next_span = ROOT
        self._env = None
        self._tracks: Dict[str, int] = {}
        #: (metric name, track name, callable) in registration order.
        self._probes: List[Tuple[str, str, Callable[[], float]]] = []
        #: Ticker callables ``fn(now)`` invoked by the TimelineSampler
        #: after each probe sweep — the hook the streaming health
        #: monitor hangs its window closing on.  Tickers piggyback on
        #: the sampler's existing daemon process, so registering one
        #: adds zero kernel events: model schedules stay bit-identical
        #: with or without any ticker attached.
        self._tickers: List[Callable[[float], None]] = []

    # -- wiring ----------------------------------------------------------

    def bind(self, env) -> None:
        """Attach to ``env`` (done by ``Environment.__init__``)."""
        if self._env is not None and self._env is not env:
            raise ValueError(
                "Telemetry is already bound to another Environment; "
                "build one Telemetry per environment")
        self._env = env

    @property
    def env(self):
        return self._env

    # -- tracks ----------------------------------------------------------

    def track(self, name: str) -> int:
        """The stable thread id for component track ``name``."""
        tid = self._tracks.get(name)
        if tid is None:
            tid = len(self._tracks) + 1
            self._tracks[name] = tid
        return tid

    def track_names(self) -> Dict[str, int]:
        return dict(self._tracks)

    # -- sampling --------------------------------------------------------

    def sample_root(self) -> Optional[TraceContext]:
        """A fresh context for 1-in-``causal_sample`` root call sites.

        Returns ``None`` for the unsampled majority, and always when
        sampling is off — the caller leaves ``packet.trace`` unset and
        the transaction costs nothing further.
        """
        sample = self.causal_sample
        if sample is None:
            return None
        self.roots_seen += 1
        if (self.roots_seen - 1) % sample:
            return None
        self._next_trace += 1
        return TraceContext(self._next_trace)

    # -- recording -------------------------------------------------------

    def begin(self, name: str, ctx: Optional[TraceContext] = None,
              category: Optional[str] = None, ts: Optional[float] = None,
              track: Optional[str] = None,
              args: Optional[Dict[str, Any]] = None) -> int:
        """Open a span at ``ts`` (default: now); returns the id that
        :meth:`end` closes it with.

        * Without ``ctx``: a component span named ``name`` on
          ``track`` (default: the dotted prefix of ``name``), with
          ``args`` shown in the trace viewer.
        * With ``ctx`` and a ``category``: a stage interval of that
          transaction at site ``name``.
        * With ``ctx`` alone: the transaction itself, of kind ``name``
          on route ``track``; its id is :data:`ROOT`.
        """
        if ts is None:
            ts = self._env.now
        if ctx is None:
            tid = self.track(track or _default_track(name))
            self.events.append(("B", ts, tid, name, args))
            return tid
        if category is None:
            self.started += 1
            self.events.append(("T", ts, ctx.trace_id, name, track))
            return ROOT
        self._next_span += 1
        sid = self._next_span
        self.events.append(("b", ts, ctx.trace_id, sid, category, name))
        return sid

    def end(self, sid: int, ctx: Optional[TraceContext] = None,
            ts: Optional[float] = None) -> None:
        """Close what :meth:`begin` opened (pass the same ``ctx``)."""
        if ts is None:
            ts = self._env.now
        if ctx is None:
            self.events.append(("E", ts, sid))
        elif sid == ROOT:
            self.finished += 1
            self.events.append(("F", ts, ctx.trace_id))
        else:
            self.events.append(("e", ts, ctx.trace_id, sid))

    def instant(self, name: str, ctx: Optional[TraceContext] = None,
                ts: Optional[float] = None, track: Optional[str] = None,
                **args: Any) -> None:
        """Record a zero-duration event at ``ts`` (default: now): on
        ``track`` (default: the dotted prefix of ``name``), or, with
        ``ctx``, a mark of that transaction at site ``track``."""
        if ts is None:
            ts = self._env.now
        if ctx is None:
            self.events.append(("i", ts, self.track(
                track or _default_track(name)), name, args or None))
        else:
            self.events.append(("m", ts, ctx.trace_id, name, track))

    def wait(self, name: str, ctx: TraceContext, category: str,
             event) -> None:
        """Record the blocking portion of a wait on ``event`` as a
        stage interval at site ``name``.

        Already-triggered events (a ``Container.get`` served from a
        non-empty pool, a free ``Resource`` slot) record nothing: the
        wait is zero.  For a genuinely blocked event the interval opens
        now and closes from a callback when the event is processed —
        the exact simulated instant the grant happened.  Appending a
        callback neither reorders the event queue nor changes which
        waiters the event wakes.
        """
        if event.triggered or event.callbacks is None:
            return
        sid = self.begin(name, ctx, category)

        def _close(ev, sid=sid, ctx=ctx):
            self.end(sid, ctx, ev.env.now)

        event.callbacks.append(_close)

    def span(self, name: str, track: Optional[str] = None,
             **args: Any) -> _Span:
        """A context manager recording a span on ``track`` (default:
        the dotted prefix of ``name``)."""
        return _Span(self, name, track, args or None)

    def counter_sample(self, name: str, ts: float, value: float) -> None:
        """Record one point of a counter timeline (the sampler path)."""
        self.events.append(("C", ts, name, value))

    # -- probes ----------------------------------------------------------

    def add_probe(self, name: str, fn: Callable[[], float],
                  track: Optional[str] = None) -> None:
        """Register a gauge probe the TimelineSampler will poll.

        ``fn`` must be a cheap, side-effect-free read of live state
        (a queue length, a pool level).  ``name`` doubles as the gauge
        metric name and the Perfetto counter-track name.
        """
        if any(name == existing for existing, _t, _f in self._probes):
            raise ValueError(
                f"probe {name!r} already registered; registered "
                f"probes: "
                f"{', '.join(sorted(n for n, _t, _f in self._probes))}")
        self._probes.append((name, track or _default_track(name), fn))
        self.registry.gauge(name)

    @property
    def probes(self) -> List[Tuple[str, str, Callable[[], float]]]:
        return list(self._probes)

    # -- tickers ---------------------------------------------------------

    def add_ticker(self, fn: Callable[[float], None]) -> None:
        """Register ``fn(now)`` to run after each sampler probe sweep.

        Tickers are how streaming consumers (the health monitor,
        feedback policies) observe sim time advancing without
        scheduling kernel events of their own: the TimelineSampler's
        daemon process already wakes every ``interval_ns``, and its
        events exist whether or not anything ticks — so the
        events_processed identity the telemetry tests pin is
        untouched.  Tickers must be pure observers of telemetry state
        (registry, record stream); touching model resources from one
        would break the bit-identity contract.
        """
        self._tickers.append(fn)

    # -- export ----------------------------------------------------------

    def to_chrome_trace(self) -> Dict[str, Any]:
        """The Perfetto-loadable Chrome trace-event payload."""
        from .perfetto import to_chrome_trace
        return to_chrome_trace(self)


def span(env, name: str, track: Optional[str] = None, **args: Any):
    """``with span(env, "heap.migrate", oid=7): ...`` — or a no-op.

    The single entry point model code uses: when ``env`` carries no
    telemetry this returns a shared null context manager (one
    ``is None`` branch, zero allocation).
    """
    telemetry = env._telemetry
    if telemetry is None:
        return _NULL_SPAN
    return telemetry.span(name, track, **args)
