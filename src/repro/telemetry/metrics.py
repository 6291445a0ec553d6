"""Sim-time-keyed metrics: counters, gauges, log-bucketed histograms.

Metrics are hierarchically named with dots
(``pcie.switch0.port2.queue_depth``) and live in a
:class:`MetricRegistry`.  Updates are deliberately tiny — an attribute
bump on a pre-looked-up object — so instrumented hot paths pay one
``is None`` branch when telemetry is off and one integer add when it
is on.  Registry lookups (``registry.counter(name)``) build the name
string once, at component construction time; doing the lookup (or any
string formatting) per event is what lint rule FCC006 flags.

Timestamps are simulation time (nanoseconds by repo convention),
passed in by the caller — the registry never touches a clock.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

__all__ = ["Counter", "Gauge", "Histogram", "MetricRegistry"]


class Counter:
    """A monotonically increasing count (flits forwarded, bytes moved).

    The per-flit sites (``LinkLayer.transmit_loop``,
    ``FabricSwitch._sent``) inline :meth:`inc` as a direct bump of
    ``value`` and ``last_time``; keep :meth:`inc` to exactly those two
    updates.
    """

    __slots__ = ("name", "value", "last_time")

    kind = "counter"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0
        self.last_time: Optional[float] = None

    def inc(self, n: float = 1.0, time: Optional[float] = None) -> None:
        self.value += n
        if time is not None:
            self.last_time = time

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "value": self.value,
                "last_time": self.last_time}


class Gauge:
    """A point-in-time level (queue depth, credit occupancy)."""

    __slots__ = ("name", "value", "last_time", "minimum", "maximum")

    kind = "gauge"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0
        self.last_time: Optional[float] = None
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None

    def set(self, value: float, time: Optional[float] = None) -> None:
        self.value = value
        if time is not None:
            self.last_time = time
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "value": self.value,
                "min": self.minimum, "max": self.maximum,
                "last_time": self.last_time}


class Histogram:
    """Log-bucketed (power-of-two) distribution of non-negative values.

    Bucket ``i`` covers ``[2**(i-1), 2**i)`` for ``i >= 1``; bucket 0
    covers ``[0, 1)``.  That resolution (±2x) is the right grain for
    latencies spanning 5 ns L1 hits to 100 us stalls, and keeps
    ``observe`` allocation-free: an int ``bit_length`` and a dict bump.
    """

    __slots__ = ("name", "count", "total", "minimum", "maximum",
                 "_buckets", "last_time", "_window_min", "_window_max")

    kind = "histogram"

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None
        self._buckets: Dict[int, int] = {}
        self.last_time: Optional[float] = None
        # Per-window extrema: reset by snapshot_delta, so consecutive
        # delta calls see exact min/max for their own window (the
        # cumulative pair above cannot recover these).
        self._window_min: Optional[float] = None
        self._window_max: Optional[float] = None

    def observe(self, value: float, time: Optional[float] = None) -> None:
        if value < 0:
            raise ValueError(f"histogram {self.name!r} observed {value}")
        index = int(value).bit_length()
        self._buckets[index] = self._buckets.get(index, 0) + 1
        self.count += 1
        self.total += value
        if time is not None:
            self.last_time = time
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value
        if self._window_min is None or value < self._window_min:
            self._window_min = value
        if self._window_max is None or value > self._window_max:
            self._window_max = value

    @property
    def mean(self) -> float:
        if not self.count:
            raise ValueError(f"no observations in histogram {self.name!r}")
        return self.total / self.count

    def buckets(self) -> List[Tuple[float, float, int]]:
        """Sorted ``(low, high, count)`` rows for the occupied buckets."""
        rows = []
        for index in sorted(self._buckets):
            low = 0.0 if index == 0 else float(2 ** (index - 1))
            rows.append((low, float(2 ** index), self._buckets[index]))
        return rows

    def quantile(self, q: float) -> Optional[float]:
        """Upper bound of the bucket holding the ``q`` quantile.

        Returns ``None`` when the histogram has no observations: a
        percentile snapshot of an idle series is an absent value, not
        an error (``mean`` still raises — an average of nothing is a
        caller bug, while dashboards legitimately snapshot idle
        histograms).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self.count:
            return None
        rank = q * self.count
        seen = 0
        for low, high, n in self.buckets():
            seen += n
            if seen >= rank:
                return high
        return float(self.maximum)

    def to_dict(self) -> Dict[str, Any]:
        # p50/p95/p99 ride along so EXPERIMENTS.md numbers come
        # straight from `repro metrics --json` (bucket upper bounds,
        # the same ±2x grain as the buckets themselves).
        return {"kind": self.kind, "count": self.count,
                "sum": self.total,
                "mean": self.total / self.count if self.count else None,
                "min": self.minimum, "max": self.maximum,
                "p50": self.quantile(0.50),
                "p95": self.quantile(0.95),
                "p99": self.quantile(0.99),
                "buckets": [{"low": low, "high": high, "count": n}
                            for low, high, n in self.buckets()],
                "last_time": self.last_time}

    def snapshot_delta(self, prev: Optional[Dict[str, Any]]
                       ) -> Dict[str, Any]:
        """The window between a previous :meth:`to_dict` and now.

        ``prev=None`` means "since the beginning" (the delta is the
        full cumulative state).  The result has the :meth:`to_dict`
        shape minus ``last_time``; count/sum/quantiles are derived
        exactly from the cumulative snapshots, while ``min``/``max``
        are *true per-window extremes* tracked directly in
        :meth:`observe` and reset here — calling ``snapshot_delta``
        closes the extrema window, so consecutive calls partition
        observations exactly (a window's min is not recoverable from
        two cumulative snapshots).  An empty window (no new
        observations) reports ``count 0`` with ``None``
        mean/min/max/quantiles, matching the idle-histogram convention
        of :meth:`quantile`; the error path (a *newer* ``prev``)
        leaves the extrema window untouched.
        """
        if prev is None:
            prev_count, prev_total = 0, 0.0
            prev_buckets: Dict[int, int] = {}
        else:
            prev_count = prev["count"]
            prev_total = prev["sum"]
            prev_buckets = {row["high"]: row["count"]
                            for row in prev["buckets"]}
        count = self.count - prev_count
        total = self.total - prev_total
        if count < 0:
            raise ValueError(
                f"histogram {self.name!r}: snapshot_delta given a "
                f"*newer* snapshot ({prev_count} > {self.count} "
                "observations)")
        rows = []
        for low, high, n in self.buckets():
            delta = n - prev_buckets.get(high, 0)
            if delta:
                rows.append((low, high, delta))

        def _quantile(q: float) -> Optional[float]:
            if not count:
                return None
            rank = q * count
            seen = 0
            for _low, high, n in rows:
                seen += n
                if seen >= rank:
                    return high
            return rows[-1][1]

        window_min, window_max = self._window_min, self._window_max
        self._window_min = None
        self._window_max = None
        return {"kind": self.kind, "count": count,
                "sum": total,
                "mean": total / count if count else None,
                "min": window_min if count else None,
                "max": window_max if count else None,
                "p50": _quantile(0.50),
                "p95": _quantile(0.95),
                "p99": _quantile(0.99),
                "buckets": [{"low": low, "high": high, "count": n}
                            for low, high, n in rows]}


class MetricRegistry:
    """Hierarchically named metrics, snapshottable to JSON.

    ``counter``/``gauge``/``histogram`` are get-or-create: asking for
    an existing name returns the same object (so several components
    may share one series), but asking for it as a different kind is an
    error — a name means one thing.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Any] = {}

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def _get(self, name: str, cls):
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name)
            self._metrics[name] = metric
        elif type(metric) is not cls:
            raise TypeError(
                f"metric {name!r} already registered as {metric.kind}, "
                f"not {cls.kind}")
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def register(self, name: str, kind: str):
        """Strictly create a metric; duplicates are an error.

        Unlike the get-or-create accessors (which let components share
        a series on purpose), ``register`` is for callers that *own* a
        name — an SLO spec, a health series — where silently aliasing
        an existing metric would mean two meanings for one name.  The
        error lists what is already registered, the same convention
        topology descriptors use.
        """
        cls = {"counter": Counter, "gauge": Gauge,
               "histogram": Histogram}.get(kind)
        if cls is None:
            raise ValueError(
                f"unknown metric kind {kind!r}; choose from counter, "
                f"gauge, histogram")
        if name in self._metrics:
            raise ValueError(
                f"metric {name!r} already registered as "
                f"{self._metrics[name].kind}; registered names: "
                f"{', '.join(sorted(self._metrics))}")
        metric = cls(name)
        self._metrics[name] = metric
        return metric

    def lookup(self, name: str):
        """The metric under ``name``; unknown names list the registry.

        The strict sibling of :meth:`get` (which returns None): SLO
        objectives and health series resolve their metric names through
        this so a typo'd spec fails with the full inventory instead of
        producing an empty series.
        """
        metric = self._metrics.get(name)
        if metric is None:
            known = ", ".join(sorted(self._metrics)) or "(none)"
            raise KeyError(
                f"unknown metric {name!r}; registered: {known}")
        return metric

    def get(self, name: str):
        """The metric registered under ``name``, or None."""
        return self._metrics.get(name)

    def names(self, prefix: str = "") -> List[str]:
        """Sorted metric names, optionally filtered by dotted prefix."""
        if not prefix:
            return sorted(self._metrics)
        dotted = prefix if prefix.endswith(".") else prefix + "."
        return sorted(name for name in self._metrics
                      if name == prefix or name.startswith(dotted))

    def snapshot(self) -> Dict[str, Any]:
        """Schema-stable JSON payload of every metric."""
        return {
            "schema": 1,
            "tool": "repro-telemetry",
            "count": len(self._metrics),
            "metrics": {name: self._metrics[name].to_dict()
                        for name in sorted(self._metrics)},
        }
