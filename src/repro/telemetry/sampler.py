"""Periodic timeline sampling of live fabric state.

Instrumented components register *probes* (cheap reads of queue
depths, credit pool levels, heap bin occupancy) with their
environment's :class:`~repro.telemetry.core.Telemetry`; the
:class:`TimelineSampler` is a daemon process that polls every probe at
a configurable sim-time interval, updating the probe's gauge in the
metric registry and appending a counter record to the telemetry
stream, so the timeline is visible in Perfetto.

The sampler is a *pure observer*: it never blocks on model resources,
acquires nothing, and only ever yields its own timeout — so model
event ordering (and therefore every workload result) is bit-identical
with or without it running; ``tests/test_telemetry.py`` pins this the
same way the sanitize-on/off identity test does.
"""

from __future__ import annotations

from typing import Generator

from ..params import SAMPLER_INTERVAL_NS as DEFAULT_INTERVAL_NS

__all__ = ["TimelineSampler"]


class TimelineSampler:
    """Samples every registered probe each ``interval_ns`` of sim time."""

    def __init__(self, env, interval_ns: float = DEFAULT_INTERVAL_NS) -> None:
        if interval_ns <= 0:
            raise ValueError(f"interval_ns must be > 0, got {interval_ns}")
        telemetry = env.telemetry
        if telemetry is None:
            raise ValueError(
                "TimelineSampler needs telemetry; construct the "
                "environment with Environment(telemetry=True)")
        self.env = env
        self.telemetry = telemetry
        self.interval_ns = interval_ns
        self.samples_taken = 0
        self._running = False

    def start(self) -> "TimelineSampler":
        """Begin periodic sampling (idempotent); returns self."""
        if not self._running:
            self._running = True
            self.env.process(self._loop(), name="telemetry.sampler",
                             daemon=True)
        return self

    def sample_once(self) -> None:
        """Poll every probe now (also usable without the loop)."""
        telemetry = self.telemetry
        registry = telemetry.registry
        now = self.env.now
        for name, _track, fn in telemetry._probes:
            value = fn()
            registry.gauge(name).set(value, time=now)
            telemetry.counter_sample(name, now, value)
        for ticker in telemetry._tickers:
            ticker(now)
        self.samples_taken += 1

    def _loop(self) -> Generator:
        timeout = self.env.timeout
        interval = self.interval_ns
        while True:
            yield timeout(interval)
            self.sample_once()
