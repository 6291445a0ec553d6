"""Lightweight event tracing and statistics collection.

The tracer is deliberately simple: components call
``tracer.record(kind, **fields)`` and analyses filter the resulting
list.  :class:`StatSeries` accumulates scalar samples with O(1) memory
for the common mean/percentile queries benchmarks need.
"""

from __future__ import annotations

import dataclasses
import math
from collections import deque
from typing import Any, Dict, Iterator, List, Optional

__all__ = ["Tracer", "TraceRecord", "StatSeries"]


@dataclasses.dataclass(frozen=True)
class TraceRecord:
    """One traced occurrence."""

    time: float
    kind: str
    fields: Dict[str, Any]

    def __getattr__(self, name: str) -> Any:
        try:
            return self.fields[name]
        except KeyError:
            raise AttributeError(name) from None


class Tracer:
    """Collects :class:`TraceRecord` instances; can be disabled for speed.

    .. deprecated:: the ad-hoc record list predates
       :mod:`repro.telemetry`, which supersedes it (metrics registry,
       span tracing, Perfetto export).  The API keeps working: pass
       ``telemetry=`` to route every record through the new layer —
       each record becomes an instant event on its kind's track plus a
       ``trace.<kind>`` counter in the registry — and ``capacity=`` to
       bound the legacy list with a ring buffer instead of growing
       without limit for the life of the run.
    """

    def __init__(self, enabled: bool = True,
                 capacity: Optional[int] = None,
                 telemetry: Any = None) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.enabled = enabled
        self.capacity = capacity
        self.records: Any = ([] if capacity is None
                             else deque(maxlen=capacity))
        self._telemetry = telemetry

    def record(self, time: float, kind: str, **fields: Any) -> None:
        if not self.enabled:
            return
        self.records.append(TraceRecord(time, kind, fields))
        telemetry = self._telemetry
        if telemetry is not None:
            telemetry.instant(kind, ts=time, **fields)
            telemetry.registry.counter("trace." + kind).inc(time=time)

    def filter(self, kind: str) -> Iterator[TraceRecord]:
        return (r for r in self.records if r.kind == kind)

    def count(self, kind: str) -> int:
        return sum(1 for _ in self.filter(kind))

    def clear(self) -> None:
        self.records.clear()


class StatSeries:
    """Scalar sample accumulator with mean / percentile / rate queries.

    Keeps raw samples (simulations here are small enough) so exact
    percentiles are available; also tracks first/last sample times for
    throughput computation.
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.samples: List[float] = []
        self.first_time: Optional[float] = None
        self.last_time: Optional[float] = None

    def add(self, value: float, time: Optional[float] = None) -> None:
        self.samples.append(value)
        if time is not None:
            if self.first_time is None:
                self.first_time = time
            self.last_time = time

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def mean(self) -> float:
        if not self.samples:
            raise ValueError(f"no samples in series {self.name!r}")
        return sum(self.samples) / len(self.samples)

    @property
    def minimum(self) -> float:
        if not self.samples:
            raise ValueError(f"no samples in series {self.name!r}")
        return min(self.samples)

    @property
    def maximum(self) -> float:
        if not self.samples:
            raise ValueError(f"no samples in series {self.name!r}")
        return max(self.samples)

    @property
    def stddev(self) -> float:
        if len(self.samples) < 2:
            return 0.0
        mu = self.mean
        var = sum((s - mu) ** 2 for s in self.samples) / (len(self.samples) - 1)
        return math.sqrt(var)

    def percentile(self, p: float) -> float:
        """Exact percentile by nearest-rank (p in [0, 100])."""
        if not self.samples:
            raise ValueError(f"no samples in series {self.name!r}")
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        ordered = sorted(self.samples)
        rank = max(0, min(len(ordered) - 1,
                          math.ceil(p / 100.0 * len(ordered)) - 1))
        return ordered[rank]

    @property
    def p50(self) -> float:
        return self.percentile(50)

    @property
    def p99(self) -> float:
        return self.percentile(99)

    def rate_per_ns(self) -> float:
        """Completions per nanosecond over the sampled interval.

        Needs two timestamped samples at distinct times; raises
        :class:`ValueError` naming the series otherwise."""
        if self.first_time is None or self.last_time <= self.first_time:
            raise ValueError(
                f"series {self.name!r} needs two timestamped samples "
                f"at distinct times for a rate")
        span = self.last_time - self.first_time
        return (len(self.samples) - 1) / span

    def mops(self) -> float:
        """Million operations per second (time unit: nanoseconds)."""
        return self.rate_per_ns() * 1e3
