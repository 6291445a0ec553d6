"""Correctness tooling: static lint + runtime sanitizers (``fcc-check``).

The repository's reproduction contract is *determinism*: a run is a
pure function of its seed, and the paper-shape numbers (Table 2, C2,
A1) must be bit-stable across refactors.  The bugs that silently break
that contract — a wall-clock call, an unseeded RNG, a leaked credit, a
process blocked forever on an event nobody will trigger — do not
crash; they just quietly move numbers.  This package proves the
invariants instead of sampling them:

* :mod:`repro.analysis.lint` — an AST-based, pluggable static checker
  (stdlib ``ast`` only) with per-file determinism rules
  FCC001..FCC007; see :mod:`repro.analysis.checks`.
* :mod:`repro.analysis.program` — the whole-program engine: one
  :class:`~repro.analysis.program.ProjectIndex` over the package, a
  conservative call graph, and interprocedural rules FCC101..FCC103
  (determinism taint, static write-race, batch-protocol conformance)
  with baseline gating and SARIF export.
* :mod:`repro.analysis.sanitizers` — opt-in runtime sanitizers hooked
  into the simulation kernel via ``Environment(sanitize=True)``:
  credit conservation, event lifecycle, same-timestamp write-write
  races, and a drain-time deadlock reporter.  ``repro bench
  <experiment> --observe sanitize`` runs any registered experiment
  under them.

The static heads surface through ``python -m repro check`` (also
installed as the ``repro`` console script): ``--lint``, ``--program``,
``--explain``.
"""

from .lint import LintCheck, Violation, run_lint, violations_to_json
from .sanitizers import Finding, RuntimeSanitizer

__all__ = [
    "Finding",
    "LintCheck",
    "RuntimeSanitizer",
    "Violation",
    "run_lint",
    "violations_to_json",
]
