"""Streaming fabric health: windowed series, SLO burn rates, alerts.

The ``metrics`` observer snapshots at end-of-run and ``why``
attributes latency offline; nothing watches the fabric *while it runs*.  This
module turns the existing telemetry machinery into live, windowed
signals — the layer the ROADMAP's closed-loop feedback policies
subscribe to:

* **windowed series** — tumbling sim-time windows over every metric in
  the registry: counter deltas, gauge levels, and per-window histogram
  deltas (so p50/p95/p99 are *of the window*, not cumulative), via
  :meth:`~repro.telemetry.metrics.Histogram.snapshot_delta`;
* **incremental attribution** — per-window credit_stall / arbitration /
  queueing shares per route, streamed from the causal flight recorder
  through its ``tap`` hook and finalized as windows close, reusing
  :class:`~repro.telemetry.attribution.TransactionTrace`'s precedence
  sweep — summed across windows the numbers equal the offline
  ``why`` report exactly (pinned by tests);
* **SLOs + burn-rate alerts** — a declarative JSON SloSpec (objective,
  target, alert rules); each window updates the error-budget burn rate
  and multi-window rules in the Google-SRE style fire/clear with exact
  sim-time stamps;
* **anomaly detection** — deterministic EWMA + threshold rules over
  any windowed series.

Determinism contract (the same one telemetry, causal and sanitize
honor): the monitor is a *pure observer*.  Windows close from a
:meth:`~repro.telemetry.core.Telemetry.add_ticker` callback inside the
TimelineSampler's existing daemon process, and the flight-recorder tap
only mirrors appends — health on/off never schedules a kernel event,
so ``events_processed`` and every scenario summary are bit-identical
either way (pinned by tests).

Subscribing a policy: ``monitor.subscribe(fn)`` delivers each
closed window record — ``fn(window)`` — after its SLO/anomaly pass.
A pure-observer subscriber keeps the run bit-identical; a *feedback*
policy that acts on what it sees (credit re-allocation, movement
throttling) changes the model deliberately and owns that divergence.

``repro bench <experiment> --observe health`` puts every environment
of a run under a monitor; :mod:`repro.experiments.observe` does the
wiring.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..params import HEALTH_WINDOW_NS as DEFAULT_WINDOW_NS
from ..params import SAMPLER_INTERVAL_NS as DEFAULT_INTERVAL_NS
from .attribution import SpanRecord, TransactionTrace
from .causal import CATEGORIES
from .core import Telemetry
from .metrics import Counter, Gauge, Histogram

__all__ = ["HealthError", "SloSpec", "HealthMonitor", "run_health",
           "check_cadence", "default_slo_spec", "validate_health_report",
           "DEFAULT_WINDOW_NS"]

#: float-noise guard for window-edge comparisons
_EPS = 1e-9

_OBJECTIVE_KINDS = ("attribution_share", "counter_ratio", "latency")


class HealthError(ValueError):
    """A health spec or report violated its contract."""


# --------------------------------------------------------------------------
# the declarative SloSpec
# --------------------------------------------------------------------------

class _Objective:
    """One parsed SLI objective: what fraction of a window was good.

    ``where`` is the JSON-path location errors carry (the topology
    loader's convention), e.g. ``slos[0].objective``.
    """

    __slots__ = ("kind", "fields")

    def __init__(self, payload: Dict[str, Any],
                 where: str = "objective") -> None:
        if not isinstance(payload, dict):
            raise HealthError(
                f"{where}: expected a JSON object, got "
                f"{type(payload).__name__}")
        kind = payload.get("kind")
        if kind not in _OBJECTIVE_KINDS:
            raise HealthError(
                f"{where}.kind: unknown objective kind {kind!r}; "
                f"choose from {', '.join(_OBJECTIVE_KINDS)}")
        self.kind = kind
        required = {"attribution_share": ("route", "category"),
                    "counter_ratio": ("bad", "total"),
                    "latency": ("metric", "threshold_ns")}[kind]
        self.fields: Dict[str, Any] = {}
        for key in required:
            if key not in payload:
                raise HealthError(
                    f"{where}.{key}: required by objective kind "
                    f"{kind!r}")
            self.fields[key] = payload[key]
        if kind == "attribution_share" \
                and self.fields["category"] not in CATEGORIES:
            raise HealthError(
                f"{where}.category: unknown attribution category "
                f"{self.fields['category']!r}; choose from "
                f"{', '.join(CATEGORIES)}")

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, **self.fields}

    def bad_fraction(self, window: Dict[str, Any]) -> Optional[float]:
        """The window's bad fraction in [0, 1], or None for no data."""
        if self.kind == "attribution_share":
            route = window["attribution"].get(self.fields["route"])
            if route is None:
                return None
            total = sum(route["ns"].values())
            if total <= _EPS:
                return None
            return route["ns"][self.fields["category"]] / total
        if self.kind == "counter_ratio":
            bad = _series_value(window["counters"], self.fields["bad"],
                                "counter")
            total = _series_value(window["counters"],
                                  self.fields["total"], "counter")
            if total <= 0:
                return None
            return bad / total
        # latency: share of the window's observations at or above the
        # threshold, at bucket granularity (a bucket is bad when it
        # lies entirely at/above threshold_ns).
        delta = _series_value(window["histograms"],
                              self.fields["metric"], "histogram")
        if not delta["count"]:
            return None
        threshold = self.fields["threshold_ns"]
        bad = sum(row["count"] for row in delta["buckets"]
                  if row["low"] >= threshold)
        return bad / delta["count"]


def _series_value(table: Dict[str, Any], name: str, kind: str) -> Any:
    try:
        return table[name]
    except KeyError:
        known = ", ".join(sorted(table)) or "(none)"
        raise HealthError(
            f"unknown {kind} metric {name!r} in SLO objective; "
            f"registered: {known}") from None


class _AlertRule:
    """One multi-window burn-rate rule with its episode history."""

    __slots__ = ("name", "burn_rate", "long_windows", "short_windows",
                 "episodes", "active")

    def __init__(self, payload: Dict[str, Any],
                 where: str = "alert") -> None:
        if not isinstance(payload, dict):
            raise HealthError(
                f"{where}: expected a JSON object, got "
                f"{type(payload).__name__}")
        self.name = payload.get("name", "burn")
        try:
            self.burn_rate = float(payload["burn_rate"])
            self.long_windows = int(payload.get("long_windows", 2))
            self.short_windows = int(payload.get("short_windows", 1))
        except (KeyError, TypeError, ValueError):
            raise HealthError(
                f"{where}: alert rule {self.name!r} needs numeric "
                "burn_rate (and optional integer "
                "long_windows/short_windows)") from None
        if self.burn_rate <= 0:
            raise HealthError(
                f"{where}.burn_rate: must be > 0, got "
                f"{self.burn_rate}")
        if not 1 <= self.short_windows <= self.long_windows:
            raise HealthError(
                f"{where}: need 1 <= short_windows <= long_windows, "
                f"got {self.short_windows} / {self.long_windows}")
        self.episodes: List[Dict[str, Optional[float]]] = []
        self.active = False

    def update(self, burns: List[Optional[float]], t: float) -> None:
        """Re-evaluate after a window close at sim time ``t``.

        Lookback means skip no-data windows (an idle route neither
        burns budget nor clears an alert); a lookback with no data at
        all reads as zero burn.
        """
        def mean(lookback: int) -> float:
            values = [b for b in burns[-lookback:] if b is not None]
            return sum(values) / len(values) if values else 0.0

        long_mean = mean(self.long_windows)
        short_mean = mean(self.short_windows)
        if not self.active and long_mean >= self.burn_rate \
                and short_mean >= self.burn_rate:
            self.active = True
            self.episodes.append({"fired_at": t, "cleared_at": None})
        elif self.active and short_mean < self.burn_rate:
            self.active = False
            self.episodes[-1]["cleared_at"] = t

    def to_dict(self) -> Dict[str, Any]:
        return {"rule": self.name, "burn_rate": self.burn_rate,
                "long_windows": self.long_windows,
                "short_windows": self.short_windows,
                "active": self.active,
                "episodes": [dict(e) for e in self.episodes]}


class _Slo:
    """One SLO: objective + target + its alert rules and burn series."""

    __slots__ = ("name", "objective", "target", "budget", "rules",
                 "sli", "burn")

    def __init__(self, payload: Dict[str, Any],
                 where: str = "slo") -> None:
        if not isinstance(payload, dict):
            raise HealthError(
                f"{where}: expected a JSON object, got "
                f"{type(payload).__name__}")
        name = payload.get("name")
        if not name or not isinstance(name, str):
            raise HealthError(
                f"{where}.name: every slo needs a non-empty string "
                "name")
        self.name = name
        self.objective = _Objective(payload.get("objective", {}),
                                    where=f"{where}.objective")
        try:
            self.target = float(payload["target"])
        except (KeyError, TypeError, ValueError):
            raise HealthError(
                f"{where}.target: slo {name!r} needs a numeric "
                "'target'") from None
        if not 0.0 < self.target < 1.0:
            raise HealthError(
                f"{where}.target: must be in (0, 1), got "
                f"{self.target}")
        self.budget = 1.0 - self.target
        self.rules = [_AlertRule(rule, where=f"{where}.alerts[{i}]")
                      for i, rule in
                      enumerate(payload.get("alerts", []))]
        self.sli: List[Optional[float]] = []
        self.burn: List[Optional[float]] = []

    def observe(self, window: Dict[str, Any], t: float) -> None:
        bad = self.objective.bad_fraction(window)
        if bad is None:
            self.sli.append(None)
            self.burn.append(None)
        else:
            self.sli.append(1.0 - bad)
            self.burn.append(bad / self.budget)
        for rule in self.rules:
            rule.update(self.burn, t)


class _AnomalyRule:
    """Deterministic EWMA + threshold detector over one window series."""

    __slots__ = ("name", "series", "alpha", "factor", "warmup", "floor",
                 "_ewma", "_seen", "points")

    def __init__(self, payload: Dict[str, Any],
                 where: str = "anomaly") -> None:
        if not isinstance(payload, dict):
            raise HealthError(
                f"{where}: expected a JSON object, got "
                f"{type(payload).__name__}")
        name = payload.get("name")
        if not name or not isinstance(name, str):
            raise HealthError(
                f"{where}.name: every anomaly rule needs a non-empty "
                "string name")
        self.name = name
        series = payload.get("series")
        if not isinstance(series, dict) or "kind" not in series:
            raise HealthError(
                f"{where}.series: anomaly rule {name!r} needs a "
                "series object with a 'kind'")
        if series["kind"] not in ("counter_delta", "attribution_share"):
            raise HealthError(
                f"{where}.series.kind: unknown series kind "
                f"{series['kind']!r}; choose from counter_delta, "
                "attribution_share")
        self.series = dict(series)
        self.alpha = float(payload.get("alpha", 0.3))
        self.factor = float(payload.get("factor", 3.0))
        self.warmup = int(payload.get("warmup", 2))
        self.floor = float(payload.get("floor", 0.0))
        if not 0.0 < self.alpha <= 1.0:
            raise HealthError(
                f"{where}.alpha: must be in (0, 1], got {self.alpha}")
        self._ewma: Optional[float] = None
        self._seen = 0
        self.points: List[Dict[str, float]] = []

    def _value(self, window: Dict[str, Any]) -> Optional[float]:
        if self.series["kind"] == "counter_delta":
            return _series_value(window["counters"],
                                 self.series.get("metric", ""),
                                 "counter")
        route = window["attribution"].get(self.series.get("route", ""))
        if route is None:
            return None
        total = sum(route["ns"].values())
        if total <= _EPS:
            return None
        return route["ns"][self.series.get("category", "")] / total

    def observe(self, window: Dict[str, Any], index: int,
                t: float) -> None:
        value = self._value(window)
        if value is None:
            return
        if self._seen >= self.warmup and value > self.floor \
                and self._ewma is not None \
                and value > self.factor * self._ewma:
            self.points.append({"window": index, "t": t,
                                "value": round(value, 6),
                                "ewma": round(self._ewma, 6)})
        self._ewma = value if self._ewma is None else \
            self.alpha * value + (1.0 - self.alpha) * self._ewma
        self._seen += 1


class SloSpec:
    """A parsed health spec: SLOs with alert rules + anomaly rules.

    The JSON shape::

        {"schema": 1,
         "slos": [{"name": ..., "objective": {"kind": ...},
                   "target": 0.9, "alerts": [{"name": ...,
                   "burn_rate": 4.0, "long_windows": 2,
                   "short_windows": 1}]}],
         "anomaly": [{"name": ..., "series": {"kind": ...}, ...}]}

    Objective kinds: ``attribution_share`` (route + category),
    ``counter_ratio`` (bad / total counter deltas) and ``latency``
    (histogram metric + threshold_ns, bucket-granular).
    """

    def __init__(self, payload: Dict[str, Any]) -> None:
        if not isinstance(payload, dict):
            raise HealthError("slo spec must be a JSON object")
        if payload.get("schema", 1) != 1:
            raise HealthError(
                f"unsupported slo spec schema {payload.get('schema')!r}")
        self.slos = [_Slo(item, where=f"slos[{i}]")
                     for i, item in enumerate(payload.get("slos", []))]
        names = [slo.name for slo in self.slos]
        if len(set(names)) != len(names):
            raise HealthError(f"duplicate slo names in spec: {names}")
        self.anomalies = [
            _AnomalyRule(item, where=f"anomaly[{i}]")
            for i, item in enumerate(payload.get("anomaly", []))]

    @classmethod
    def load(cls, path) -> "SloSpec":
        try:
            payload = json.loads(Path(path).read_text())
        except OSError as exc:
            raise HealthError(f"cannot read slo spec {path}: {exc}") \
                from exc
        except json.JSONDecodeError as exc:
            raise HealthError(f"slo spec {path} is not JSON: {exc}") \
                from exc
        return cls(payload)


def default_slo_spec(scenario: str) -> Dict[str, Any]:
    """The built-in spec for an environment labelled ``scenario``.

    The starvation experiment gets the canonical pair: a quiet-route
    credit-stall SLO whose fast-burn rule is the §3 C5 pager (fires
    under RampUpPolicy, stays quiet under fair StaticEqualPolicy —
    golden-pinned), plus an EWMA spike detector on the egress stall
    counter.  Other environments default to windows-only reports
    (``run_health(..., spec=...)`` sets custom objectives).
    """
    if scenario == "starvation":
        return {
            "schema": 1,
            "slos": [
                {"name": "quiet_route_stall",
                 "objective": {"kind": "attribution_share",
                               "route": "quiet",
                               "category": "credit_stall"},
                 "target": 0.90,
                 "alerts": [{"name": "fast_burn", "burn_rate": 4.0,
                             "long_windows": 2, "short_windows": 1}]},
            ],
            "anomaly": [
                {"name": "stall_spike",
                 "series": {"kind": "counter_delta",
                            "metric": "credits.egress0.stalls"},
                 "alpha": 0.3, "factor": 3.0, "warmup": 2,
                 "floor": 4.0},
            ],
        }
    return {"schema": 1, "slos": [], "anomaly": []}


# --------------------------------------------------------------------------
# the monitor
# --------------------------------------------------------------------------

class HealthMonitor:
    """Closes tumbling windows over one telemetry-instrumented run.

    Construct against a :class:`Telemetry` (with a causal recorder)
    *before* the model is built, so the recorder tap sees every causal
    record.  Windows close from the TimelineSampler's ticker hook;
    ``window_ns`` must be a multiple of the sampler interval so window
    edges land exactly on tick times.  Call :meth:`finalize` after the
    run to flush the trailing partial window.
    """

    def __init__(self, telemetry: Telemetry, scenario: str,
                 window_ns: float = DEFAULT_WINDOW_NS,
                 spec: Optional[SloSpec] = None) -> None:
        if window_ns <= 0:
            raise ValueError(
                f"window_ns must be > 0, got {window_ns}")
        if telemetry.causal is None:
            raise ValueError(
                "HealthMonitor needs a causal recorder; construct "
                "Telemetry(causal=CausalRecorder(...))")
        self.telemetry = telemetry
        self.scenario = scenario
        self.window_ns = window_ns
        self.spec = spec if spec is not None \
            else SloSpec(default_slo_spec(scenario))
        self.windows: List[Dict[str, Any]] = []
        self.analyzed = 0
        self._subscribers: List[Callable[[Dict[str, Any]], None]] = []
        self._boundary = window_ns
        self._prev_counters: Dict[str, float] = {}
        self._prev_hists: Dict[str, Dict[str, Any]] = {}
        # Incremental flight-recorder state: mirrors
        # attribution.collect_transactions, fed by the tap instead of
        # an end-of-run ring scan.
        self._txns: Dict[int, Dict[str, Any]] = {}
        self._open_spans: Dict[int, SpanRecord] = {}
        self._pending: List[Tuple] = []
        telemetry.causal.tap = self._pending.append
        telemetry.add_ticker(self._tick)
        self._finalized = False

    def subscribe(self, fn: Callable[[Dict[str, Any]], None]) -> None:
        """Deliver every closed window record to ``fn(window)``.

        This is the feedback-policy hook: the record carries the
        window's counter deltas, gauge levels, histogram deltas and
        per-route attribution.  Subscribers run after the SLO/anomaly
        pass, inside the sampler tick (sim time == the window edge).
        """
        self._subscribers.append(fn)

    # -- streaming ---------------------------------------------------------

    def _tick(self, now: float) -> None:
        while now >= self._boundary - _EPS:
            self._close_window(self._boundary)
            self._boundary += self.window_ns

    def finalize(self, now: float) -> None:
        """Flush the trailing partial window at the end of the run."""
        if self._finalized:
            return
        self._tick(now)
        if now > self._boundary - self.window_ns + _EPS:
            self._close_window(now, final=True)
        self._finalized = True

    def _drain_pending(self) -> None:
        txns, open_spans = self._txns, self._open_spans
        for record in self._pending:
            tag = record[0]
            if tag == "B":
                _, ts, tid, sid, parent, category, site = record
                txn = txns.get(tid)
                if txn is not None:
                    span = SpanRecord(sid=sid, parent=parent,
                                      category=category, site=site,
                                      t0=ts, t1=ts)
                    open_spans[sid] = span
                    txn["spans"].append(span)
            elif tag == "E":
                _, ts, tid, sid = record
                span = open_spans.pop(sid, None)
                if span is not None:
                    span.t1 = ts
            elif tag == "T":
                _, ts, tid, kind, route = record
                txns[tid] = {"begin": ts, "end": None, "kind": kind,
                             "route": route, "spans": []}
            elif tag == "F":
                _, ts, tid = record
                txn = txns.get(tid)
                if txn is not None:
                    txn["end"] = ts
        self._pending.clear()

    def _close_window(self, t1: float, final: bool = False) -> None:
        index = len(self.windows)
        t0 = index * self.window_ns
        registry = self.telemetry.registry
        counters: Dict[str, float] = {}
        gauges: Dict[str, float] = {}
        histograms: Dict[str, Dict[str, Any]] = {}
        for name in registry.names():
            metric = registry.get(name)
            if isinstance(metric, Counter):
                counters[name] = metric.value \
                    - self._prev_counters.get(name, 0.0)
                self._prev_counters[name] = metric.value
            elif isinstance(metric, Gauge):
                gauges[name] = metric.value
            elif isinstance(metric, Histogram):
                histograms[name] = metric.snapshot_delta(
                    self._prev_hists.get(name))
                self._prev_hists[name] = metric.to_dict()
        self._drain_pending()
        attribution: Dict[str, Dict[str, Any]] = {}
        done = [tid for tid in sorted(self._txns)
                if self._txns[tid]["end"] is not None
                and self._txns[tid]["end"] <= t1 + _EPS]
        for tid in done:
            txn = self._txns.pop(tid)
            for span in txn["spans"]:
                if span.t1 < span.t0:
                    span.t1 = span.t0
                if span.sid in self._open_spans:   # wait still blocked
                    span.t1 = max(span.t0, txn["end"])   # at txn end:
                    del self._open_spans[span.sid]       # clamp, like
            trace = TransactionTrace(                    # offline
                trace_id=tid, kind=txn["kind"], route=txn["route"],
                begin=txn["begin"], end=txn["end"],
                spans=txn["spans"], marks=[])
            route = attribution.setdefault(
                txn["route"],
                {"txns": 0,
                 "ns": {category: 0.0 for category in CATEGORIES}})
            route["txns"] += 1
            for category, ns in trace.attribution().items():
                route["ns"][category] += ns
            self.analyzed += 1
        window = {"index": index, "t0": t0, "t1": t1, "final": final,
                  "counters": counters, "gauges": gauges,
                  "histograms": histograms, "attribution": attribution}
        self.windows.append(window)
        for slo in self.spec.slos:
            slo.observe(window, t1)
        for rule in self.spec.anomalies:
            rule.observe(window, index, t1)
        for fn in self._subscribers:
            fn(window)

    # -- the report --------------------------------------------------------

    def build_report(self, policy: Optional[str] = None,
                     interval_ns: float = DEFAULT_INTERVAL_NS,
                     summary: Optional[Dict[str, Any]] = None,
                     control: Optional[Dict[str, Any]] = None
                     ) -> Dict[str, Any]:
        """The schema-stable ``health`` observer document.  ``policy``
        names the run's credit policy (None when the run has none)."""
        recorder = self.telemetry.causal
        windows = [{"index": w["index"], "t0": round(w["t0"], 3),
                    "t1": round(w["t1"], 3), "final": w["final"]}
                   for w in self.windows]
        counter_names = sorted({name for w in self.windows
                                for name in w["counters"]})
        gauge_names = sorted({name for w in self.windows
                              for name in w["gauges"]})
        hist_names = sorted({name for w in self.windows
                             for name in w["histograms"]})

        def column(kind: str, name: str) -> List[Any]:
            return [w[kind].get(name) for w in self.windows]

        route_names = sorted({route for w in self.windows
                              for route in w["attribution"]})
        routes: Dict[str, Any] = {}
        for route in route_names:
            txns = []
            ns: Dict[str, List[float]] = {c: [] for c in CATEGORIES}
            share: Dict[str, List[float]] = {c: [] for c in CATEGORIES}
            for w in self.windows:
                entry = w["attribution"].get(route)
                txns.append(entry["txns"] if entry else 0)
                total = sum(entry["ns"].values()) if entry else 0.0
                for category in CATEGORIES:
                    value = entry["ns"][category] if entry else 0.0
                    ns[category].append(round(value, 3))
                    share[category].append(
                        round(value / total, 6) if total > _EPS else 0.0)
            routes[route] = {"txns": txns, "ns": ns, "share": share}

        payload: Dict[str, Any] = {
            "schema": 1,
            "tool": "repro-health",
            "scenario": self.scenario,
            "policy": policy,
            "window_ns": self.window_ns,
            "interval_ns": interval_ns,
            "windows": windows,
            "series": {
                "counters": {name: column("counters", name)
                             for name in counter_names},
                "gauges": {name: column("gauges", name)
                           for name in gauge_names},
                "histograms": {name: column("histograms", name)
                               for name in hist_names},
            },
            "attribution": {"routes": routes},
            "slos": [
                {"name": slo.name,
                 "objective": slo.objective.to_dict(),
                 "target": slo.target,
                 "budget": round(slo.budget, 6),
                 "sli": [None if v is None else round(v, 6)
                         for v in slo.sli],
                 "burn": [None if v is None else round(v, 4)
                          for v in slo.burn],
                 "alerts": [rule.to_dict() for rule in slo.rules]}
                for slo in self.spec.slos
            ],
            "anomalies": [
                {"name": rule.name, "series": dict(rule.series),
                 "alpha": rule.alpha, "factor": rule.factor,
                 "warmup": rule.warmup, "floor": rule.floor,
                 "points": [dict(p) for p in rule.points]}
                for rule in self.spec.anomalies
            ],
            "trace": {
                "sample": recorder.sample,
                "roots_seen": recorder.roots_seen,
                "started": recorder.started,
                "finished": recorder.finished,
                "analyzed": self.analyzed,
                "pending": len(self._txns),
            },
        }
        if control is not None:
            payload["control"] = control
        if summary is not None:
            payload["summary"] = summary
        return payload


# --------------------------------------------------------------------------
# cadence checks and the one-experiment runner
# --------------------------------------------------------------------------

def check_cadence(interval_ns: float,
                  window_ns: Optional[float] = None) -> None:
    """Raise :class:`HealthError` unless the sampler ticks every
    ``interval_ns > 0`` and ``window_ns`` is a positive multiple of it,
    so window edges land on sampler ticks."""
    if interval_ns <= 0:
        raise HealthError(f"interval_ns must be > 0, got {interval_ns}")
    if window_ns is None:
        return
    remainder = window_ns % interval_ns
    if min(remainder, abs(interval_ns - remainder)) > _EPS \
            or window_ns < interval_ns:
        raise HealthError(
            f"window_ns ({window_ns}) must be a positive multiple of "
            f"interval_ns ({interval_ns}) so window edges land on "
            "sampler ticks")


def run_health(scenario: str, feedback=None, spec=None, **params):
    """Run one experiment under the health monitor; returns
    ``(observation, report)``.  See
    :func:`repro.experiments.observe.run_health`."""
    from ..experiments.observe import run_health as _run_health
    return _run_health(scenario, feedback=feedback, spec=spec, **params)


# --------------------------------------------------------------------------
# schema validation (the CI gate)
# --------------------------------------------------------------------------

def validate_health_report(payload: Dict[str, Any]) -> int:
    """Validate a ``health`` observer document; returns the window
    count.  Raises :class:`HealthError` on schema or accounting
    violations: misaligned series lengths, non-contiguous windows,
    alert episodes outside window edges, or route shares that do not
    sum to one.
    """
    def fail(message: str) -> None:
        raise HealthError(message)

    if not isinstance(payload, dict):
        fail("payload must be a JSON object")
    if payload.get("schema") != 1 or payload.get("tool") != "repro-health":
        fail("payload is not a repro-health schema-1 document")
    for key in ("scenario", "policy", "window_ns", "windows", "series",
                "attribution", "slos", "anomalies", "trace"):
        if key not in payload:
            fail(f"missing top-level key {key!r}")
    windows = payload["windows"]
    count = len(windows)
    width = payload["window_ns"]
    edges = set()
    for i, window in enumerate(windows):
        if window["index"] != i:
            fail(f"window {i}: index {window['index']} out of order")
        if abs(window["t0"] - i * width) > 1e-3:
            fail(f"window {i}: t0 {window['t0']} != {i * width}")
        if window["t1"] <= window["t0"]:
            fail(f"window {i}: empty interval "
                 f"[{window['t0']}, {window['t1']}]")
        if not window["final"] and abs(window["t1"] - (i + 1) * width) \
                > 1e-3:
            fail(f"window {i}: non-final t1 {window['t1']} off-grid")
        if window["final"] and i != count - 1:
            fail(f"window {i}: final window before the last")
        edges.add(window["t1"])
    series = payload["series"]
    for kind in ("counters", "gauges", "histograms"):
        for name, column in series.get(kind, {}).items():
            if len(column) != count:
                fail(f"series.{kind}[{name!r}]: {len(column)} points "
                     f"for {count} windows")
    for route, data in payload["attribution"]["routes"].items():
        for key in ("txns", "ns", "share"):
            if key not in data:
                fail(f"route {route!r}: missing {key!r}")
        if len(data["txns"]) != count:
            fail(f"route {route!r}: txns length {len(data['txns'])}")
        if set(data["ns"]) != set(CATEGORIES):
            fail(f"route {route!r}: categories {sorted(data['ns'])}")
        for i in range(count):
            total_share = sum(data["share"][c][i] for c in CATEGORIES)
            total_ns = sum(data["ns"][c][i] for c in CATEGORIES)
            if total_ns > 1e-3 and abs(total_share - 1.0) > 1e-3:
                fail(f"route {route!r} window {i}: shares sum to "
                     f"{total_share}")
            if total_ns <= 1e-3 and data["txns"][i] \
                    and total_share != 0.0:
                fail(f"route {route!r} window {i}: share without ns")
    for slo in payload["slos"]:
        for key in ("name", "objective", "target", "budget", "sli",
                    "burn", "alerts"):
            if key not in slo:
                fail(f"slo missing key {key!r}")
        if len(slo["sli"]) != count or len(slo["burn"]) != count:
            fail(f"slo {slo['name']!r}: series length mismatch")
        for alert in slo["alerts"]:
            previous = -1.0
            for episode in alert["episodes"]:
                fired = episode["fired_at"]
                cleared = episode["cleared_at"]
                if fired not in edges:
                    fail(f"slo {slo['name']!r} alert "
                         f"{alert['rule']!r}: fired_at {fired} is not "
                         "a window edge")
                if fired <= previous:
                    fail(f"slo {slo['name']!r} alert "
                         f"{alert['rule']!r}: episodes out of order")
                if cleared is not None:
                    if cleared not in edges or cleared <= fired:
                        fail(f"slo {slo['name']!r} alert "
                             f"{alert['rule']!r}: bad cleared_at "
                             f"{cleared}")
                    previous = cleared
                else:
                    previous = fired
            open_episodes = [e for e in alert["episodes"]
                             if e["cleared_at"] is None]
            if len(open_episodes) > 1 or \
                    (open_episodes and not alert["active"]):
                fail(f"slo {slo['name']!r} alert {alert['rule']!r}: "
                     "inconsistent open episodes vs active flag")
    for rule in payload["anomalies"]:
        for point in rule["points"]:
            if not 0 <= point["window"] < count:
                fail(f"anomaly {rule['name']!r}: point outside "
                     "windows")
            if point["t"] not in edges:
                fail(f"anomaly {rule['name']!r}: t {point['t']} is "
                     "not a window edge")
    control = payload.get("control")
    if control is not None:
        for key in ("policy", "actuators", "actions"):
            if key not in control:
                fail(f"control: missing key {key!r}")
        final_edges = {w["t1"] for w in windows if w["final"]}
        previous_t = float("-inf")
        for i, action in enumerate(control["actions"]):
            for key in ("t", "actuator", "rule", "set", "before",
                        "after", "window"):
                if key not in action:
                    fail(f"control.actions[{i}]: missing key {key!r}")
            if action["t"] not in edges:
                fail(f"control.actions[{i}]: t {action['t']} is not "
                     "a window edge")
            if action["t"] in final_edges:
                fail(f"control.actions[{i}]: acted on the final "
                     "(post-run) window")
            if action["t"] < previous_t:
                fail(f"control.actions[{i}]: actions out of order")
            previous_t = action["t"]
            if not 0 <= action["window"] < count:
                fail(f"control.actions[{i}]: window "
                     f"{action['window']} outside report")
    trace = payload["trace"]
    for key in ("sample", "started", "finished", "analyzed", "pending"):
        if not isinstance(trace.get(key), int):
            fail(f"trace.{key} must be an integer")
    if trace["analyzed"] + trace["pending"] > trace["started"]:
        fail("trace accounting: analyzed + pending > started")
    return count
