"""Fabric-wide observability: one record stream per environment.

The paper's section 3 claims — remote ≈10x slower, ~600 ns added
one-way under concurrent 64 B writes, CFC starvation, head-of-line
blocking — are time-series phenomena; aggregate counters cannot show
*when* a quiet flow stalled or *where* one read waited.  Each observed
environment carries one :class:`Telemetry` hub whose record stream
feeds every document:

* :mod:`repro.telemetry.core` — :class:`Telemetry`: the metric
  registry, the record stream (spans, instants, counter samples,
  sampled transactions with their stage intervals and marks) and its
  one recording API, ``begin``/``end``/``instant`` with :func:`span`
  (``with span(env, "cfc.rebalance"): ...``) as the context-manager
  form;
* :mod:`repro.telemetry.metrics` — a :class:`MetricRegistry` of
  sim-time-keyed counters, gauges and log-bucketed histograms with
  hierarchical names (``pcie.switch0.port2.queue_depth``),
  snapshottable to JSON;
* :mod:`repro.telemetry.sampler` — :class:`TimelineSampler`, a daemon
  process sampling link utilization, switch queue depths, credit
  occupancy and heap placement mix at a configurable interval;
* :mod:`repro.telemetry.attribution` — transactions rebuilt from the
  stream, their critical paths and the ``why`` document;
* :mod:`repro.telemetry.perfetto` — Chrome trace-event export
  (loadable at https://ui.perfetto.dev), one track per component and
  per sampled transaction, plus the schema validator CI runs;
* :mod:`repro.telemetry.health` — streaming windowed series, SLO
  burn-rate alerting and anomaly detection, with
  :mod:`repro.telemetry.dashboard` rendering the static HTML view.

Experiments never wire these by hand: ``repro bench <experiment>
--observe trace,metrics,why,health`` asks the run context
(:mod:`repro.experiments.observe`) to attach them to every
environment of the run.

Enable per environment — ``Environment(telemetry=True)`` (or pass a
:class:`Telemetry`) — and read it back as ``env.telemetry``.  Off is
the default and costs instrumented hot paths one ``is None`` branch,
the exact pattern of ``Environment(sanitize=True)``; a telemetry-on
run is scheduling-identical to a telemetry-off run.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "attribution": ("AttributionError", "TDigest", "build_report",
                    "validate_attribution"),
    "core": ("Telemetry", "TraceContext", "span"),
    "dashboard": ("render_dashboard",),
    "health": ("HealthError", "HealthMonitor", "SloSpec",
               "default_slo_spec", "run_health", "validate_health_report"),
    "metrics": ("Counter", "Gauge", "Histogram", "MetricRegistry"),
    "perfetto": ("ChromeTraceError", "to_chrome_trace",
                 "validate_chrome_trace"),
    "sampler": ("TimelineSampler",),
})
