"""repro.experiments: declarative experiment specs, registry, sweeps.

The pieces:

* :mod:`~repro.experiments.registry` — every runnable experiment
  registered by name with a typed parameter schema;
* :mod:`~repro.experiments.observe` — :class:`RunContext`, the one
  run path: each experiment gets its environments from
  ``ctx.env(label)`` with the requested observers attached;
* :mod:`~repro.experiments.spec` — :class:`ExperimentSpec`, the JSON
  description of one invocation (experiment + params + seed + outputs);
* :mod:`~repro.experiments.runner` — run a spec, get a schema-stable
  result document;
* :mod:`~repro.experiments.sweep` — the deterministic multiprocess
  parameter-sweep driver behind ``repro sweep``.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "format": ("fmt_row", "print_table"),
    "registry": ("ALL_OUTPUTS", "ExperimentDef", "ExperimentError", "Param",
                 "UnknownExperimentError", "describe", "experiment", "get",
                 "names", "register"),
    "observe": ("RunContext", "run_scenario"),
    "runner": ("render", "run_experiment", "run_summary"),
    "spec": ("ExperimentSpec", "SpecError"),
    "sweep": ("SweepConflictError", "SweepSpec", "load_sweep_spec",
              "run_sweep", "validate_sweep_report"),
})
