"""Whole-program analysis (``repro check --program``).

Where :mod:`repro.analysis.lint` judges one file at a time, this
subpackage parses the whole package **once** into a
:class:`~repro.analysis.program.index.ProjectIndex` — module table,
class/symbol resolution, import graph — derives a
:class:`~repro.analysis.program.callgraph.CallGraph` (ordinary calls,
``yield from`` process chains, ``env.process(...)`` /
``run_proc(...)`` spawn sites), and runs *interprocedural* checks over
it:

* **FCC101** (``process-taint``) — a simulation process transitively
  reaches a wall-clock / global-RNG / unordered-iteration sink in
  another function or module, where the per-file rules FCC001/002/005
  cannot see it.
* **FCC102** (``static-write-race``) — an order-sensitive store to a
  shared attribute reachable from two or more spawned processes with
  no intervening ``yield`` between the acquire (load) and the store:
  the static counterpart of the runtime write-race sanitizer.

Results are ordinary :class:`~repro.analysis.lint.Violation` records:
``# fcc: allow[...]`` pragmas suppress at the reported line, a
committed ``fcc-baseline.json`` (``--baseline``) downgrades known
findings to warnings so only *new* hazards fail CI, and ``--sarif``
exports SARIF 2.1.0 for code-scanning upload.
"""

from .baseline import Baseline, load_baseline, split_by_baseline
from .callgraph import CallGraph
from .checks import PROGRAM_CHECKS, ProgramCheck, run_program
from .index import ProjectIndex, build_index
from .sarif import violations_to_sarif

__all__ = [
    "Baseline",
    "CallGraph",
    "PROGRAM_CHECKS",
    "ProgramCheck",
    "ProjectIndex",
    "build_index",
    "load_baseline",
    "run_program",
    "split_by_baseline",
    "violations_to_sarif",
]
