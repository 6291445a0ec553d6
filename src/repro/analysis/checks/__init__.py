"""The fcc-check rule set.

============  ==================  ==================================
code          slug                flags
============  ==================  ==================================
``FCC001``    ``seeded-rng``      ``random`` / ``numpy.random``
                                  module use instead of the seeded
                                  :class:`repro.sim.SimRng` stream
``FCC002``    ``wall-clock``      ``time.time`` / ``datetime.now`` /
                                  ``perf_counter`` calls that break
                                  replayability (``benchmarks/`` is
                                  exempt by design)
``FCC003``    ``generator-return``  a generator process returning a
                                  value before its first ``yield``
``FCC004``    ``mutable-state``   mutable default arguments and
                                  module-level mutable containers
``FCC005``    ``unordered-iter``  iteration over unordered ``set``
                                  values feeding deterministic code
``FCC006``    ``eager-format``    f-string / ``%`` / ``.format``
                                  arguments built per-event inside
                                  ``record``/``span``/``instant``/
                                  ``inc``/``observe`` telemetry calls
``FCC007``    ``span-context``    ``span(...)`` context managers that
                                  are never entered, so the duration
                                  event is silently dropped
============  ==================  ==================================

To add a rule: subclass :class:`repro.analysis.lint.LintCheck` in a
new module here, give it the next free ``FCCnnn`` code and a slug, and
append the class to :data:`CHECKS`.  Fixture-test it in
``tests/test_analysis_lint.py`` (one bad fixture per rule, and keep
``tests/fixtures/lint/clean.py`` clean).

These rules are all *per-file*.  Their interprocedural closure —
FCC101..FCC102 over the whole package at once — lives in
:mod:`repro.analysis.program`.
"""

from .eager_format import EagerFormatCheck
from .generator_return import GeneratorReturnCheck
from .mutable_state import MutableStateCheck
from .rng_use import SeededRngCheck
from .span_context import SpanContextCheck
from .unordered_iter import UnorderedIterCheck
from .wall_clock import WallClockCheck

#: every registered rule, in code order
CHECKS = [
    SeededRngCheck,
    WallClockCheck,
    GeneratorReturnCheck,
    MutableStateCheck,
    UnorderedIterCheck,
    EagerFormatCheck,
    SpanContextCheck,
]

__all__ = ["CHECKS", "SeededRngCheck", "WallClockCheck",
           "GeneratorReturnCheck", "MutableStateCheck",
           "UnorderedIterCheck", "EagerFormatCheck",
           "SpanContextCheck"]
