"""Statistics collection for benchmark results.

:class:`StatSeries` accumulates scalar samples for the mean /
percentile / rate queries experiments report.  Event tracing lives in
:mod:`repro.telemetry` (one record stream per environment).
"""

from __future__ import annotations

import math
from typing import List, Optional

__all__ = ["StatSeries"]


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
