"""The whole-program rules: FCC101, FCC102.

==========  ====================  =====================================
code        slug                  flags
==========  ====================  =====================================
``FCC101``  ``process-taint``     a spawned simulation process
                                  transitively reaches a wall-clock /
                                  global-RNG / unordered-iteration
                                  sink (the interprocedural closure of
                                  FCC001/002/005)
``FCC102``  ``static-write-race``  an order-sensitive read-modify-
                                  write of a shared attribute, with no
                                  intervening ``yield``, in code
                                  reachable from two or more spawned
                                  processes
==========  ====================  =====================================

To add a whole-program rule: subclass :class:`ProgramCheck`, give it
the next free ``FCC1nn`` code, and append it to
:data:`PROGRAM_CHECKS`; :func:`run_program` handles pragma
suppression and sorting.  Fixture projects live under
``tests/fixtures/program/`` — one *bad* and one *clean* package per
rule.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..checks.rng_use import SeededRngCheck
from ..checks.unordered_iter import UnorderedIterCheck
from ..checks.wall_clock import WallClockCheck
from ..lint import LintCheck, Violation
from .callgraph import CallGraph, build_callgraph
from .index import FunctionInfo, ProjectIndex, build_index

__all__ = ["ProgramCheck", "DeterminismTaintCheck", "StaticWriteRaceCheck",
           "PROGRAM_CHECKS", "run_program"]

#: the per-file rules whose hits become FCC101 taint *sinks*
_SINK_CHECKS: Sequence[type] = (SeededRngCheck, WallClockCheck,
                                UnorderedIterCheck)

_SINK_KIND = {"FCC001": "global-RNG", "FCC002": "wall-clock",
              "FCC005": "unordered-iteration"}


class ProgramCheck(LintCheck):
    """Base class for one whole-program rule.

    Same contract as :class:`~repro.analysis.lint.LintCheck` — code,
    slug, summary, rationale, example_fix — but
    :meth:`program_violations` sees the :class:`ProjectIndex` and
    :class:`CallGraph` instead of a single file.
    """

    def program_violations(self, index: ProjectIndex,
                           graph: CallGraph) -> Iterator[Violation]:
        raise NotImplementedError

    def violations(self, source, tree):   # pragma: no cover - not used
        raise TypeError(f"{self.code} is a whole-program check; "
                        "run it through run_program()")

    def at(self, path: str, node: ast.AST, message: str) -> Violation:
        line = getattr(node, "lineno", 0)
        return Violation(
            path=path, line=line,
            col=getattr(node, "col_offset", 0), code=self.code,
            rule=self.slug, message=message,
            end_line=getattr(node, "end_lineno", None) or line)


# ---------------------------------------------------------------------------
# FCC101: interprocedural determinism taint
# ---------------------------------------------------------------------------

class DeterminismTaintCheck(ProgramCheck):
    code = "FCC101"
    slug = "process-taint"
    summary = ("a simulation process transitively reaches a "
               "wall-clock/global-RNG/unordered-iteration sink")
    rationale = (
        "FCC001/002/005 judge one file at a time, so a determinism "
        "hazard hiding behind a helper in another module goes unseen: "
        "the process is clean, the helper is 'just a function'.  This "
        "rule closes the gap interprocedurally — every env.process(...) "
        "/ run_proc(...) spawn root is traversed through the project "
        "call graph (including yield-from chains), and any reachable "
        "sink taints the whole path.  A pragma on the sink line clears "
        "the taint for every process reaching it.")
    example_fix = (
        "bad:   # proc.py: yield env.timeout(helper.jitter())\n"
        "       # helper.py: return time.perf_counter() % 5.0\n"
        "good:  thread the Environment (env.now) or a SimRng stream "
        "into the helper instead of reading ambient state")

    #: cap on reported sink sites per (spawn, function) pair
    max_sites = 3

    def _collect_sinks(self, index: ProjectIndex) -> Dict[
            str, List[Tuple[Violation, str]]]:
        """function qualname -> [(sink violation, kind), ...]."""
        sinks: Dict[str, List[Tuple[Violation, str]]] = {}
        checks = [cls() for cls in _SINK_CHECKS]
        for info in index.modules.values():
            for check in checks:
                if not check.applies_to(info.source):
                    continue
                for violation in check.violations(info.source,
                                                  info.tree):
                    if info.source.suppressed(violation):
                        continue
                    func = index.function_at(info.name, violation.line)
                    if func is None:
                        continue   # module-level: not process code
                    kind = _SINK_KIND.get(violation.code,
                                          violation.rule)
                    sinks.setdefault(func.qualname, []).append(
                        (violation, kind))
        return sinks

    def program_violations(self, index: ProjectIndex,
                           graph: CallGraph) -> Iterator[Violation]:
        sinks = self._collect_sinks(index)
        if not sinks:
            return
        reported: Set[Tuple[str, int, str, str]] = set()
        for spawn in graph.spawns:
            spawn_path = index.modules[spawn.module].source.display
            for qualname in sorted(
                    graph.reachable_from(iter([spawn.root]))):
                hits = sinks.get(qualname)
                if not hits:
                    continue
                key = (spawn.module, spawn.lineno, spawn.root, qualname)
                if key in reported:
                    continue
                reported.add(key)
                chain = graph.shortest_chain(spawn.root, qualname) or \
                    [spawn.root, qualname]
                sites = ", ".join(
                    f"{v.path}:{v.line} ({kind})"
                    for v, kind in hits[:self.max_sites])
                more = len(hits) - self.max_sites
                if more > 0:
                    sites += f" and {more} more"
                node = _FakeNode(spawn.lineno, spawn.end_lineno)
                yield self.at(
                    spawn_path, node,
                    f"process {spawn.root!r} spawned here reaches "
                    f"determinism sink(s) {sites} via "
                    f"{' -> '.join(chain)}; a replay of the same seed "
                    "can diverge on this path")


class _FakeNode:
    """Line-span carrier for violations not anchored to one ast node."""

    def __init__(self, lineno: int, end_lineno: Optional[int] = None,
                 col_offset: int = 0) -> None:
        self.lineno = lineno
        self.end_lineno = end_lineno or lineno
        self.col_offset = col_offset


# ---------------------------------------------------------------------------
# FCC102: static same-timestamp write-race detection
# ---------------------------------------------------------------------------

#: augmented ops that commute with themselves (counter updates): two
#: processes incrementing at one timestamp land on the same total
#: regardless of dispatch order, so they are not order-sensitive
_COMMUTATIVE_AUG = (ast.Add, ast.Sub)


class StaticWriteRaceCheck(ProgramCheck):
    code = "FCC102"
    slug = "static-write-race"
    summary = ("read-modify-write of a shared attribute with no "
               "intervening yield, reachable from >= 2 processes")
    rationale = (
        "The runtime sanitizer flags two processes mutating one store "
        "at the same timestamp — but only on paths a scenario happens "
        "to exercise.  Statically, the same hazard is an attribute "
        "that is *read* and then *stored* with no yield in between "
        "(the window executes atomically, so when two process "
        "instances wake at one timestamp, the final value depends "
        "only on kernel dispatch order) in code reachable from two or "
        "more spawn sites, or from one spawn site inside a loop.  "
        "Commutative `+=`/`-=` counter updates are exempt: any "
        "dispatch order yields the same total.")
    example_fix = (
        "bad:   depth = self.depth        # acquire\n"
        "       self.depth = depth + self.step   # store: last writer "
        "wins at equal timestamps\n"
        "good:  self.depth += self.step   # commutative update, or "
        "route through one owner process / a Store")

    def _shared_key(self, node: ast.expr,
                    params: Set[str]) -> Optional[Tuple[str, str]]:
        """(receiver, attr) for `self.x` / `param.x`, else None."""
        if not isinstance(node, ast.Attribute):
            return None
        value = node.value
        if isinstance(value, ast.Name) and (value.id == "self"
                                            or value.id in params):
            return (value.id, node.attr)
        return None

    def _windows(self, func: FunctionInfo) -> Iterator[
            Tuple[ast.AST, Tuple[str, str], int]]:
        """(store node, shared key, acquire line) RMW windows."""
        args = getattr(func.node, "args", None)
        params: Set[str] = set()
        if args is not None:
            for arg in (list(args.posonlyargs) + list(args.args)
                        + list(args.kwonlyargs)):
                params.add(arg.arg)
        params.discard("self")
        # Events in *execution* order: RHS before target for assigns,
        # so `self.x = self.x + 1` sees the load first, and a yield
        # embedded in an expression clears windows at the right spot.
        events: List[Tuple[str, object]] = []

        def emit(node: ast.AST) -> None:
            if node is not func.node and isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef,
                           ast.Lambda)):
                return   # nested defs run on their own schedule
            if isinstance(node, (ast.Yield, ast.YieldFrom)):
                if node.value is not None:
                    emit(node.value)
                events.append(("yield", None))
                return
            if isinstance(node, ast.Assign):
                emit(node.value)
                for target in node.targets:
                    emit(target)
                return
            if isinstance(node, ast.AugAssign):
                emit(node.value)
                key = self._shared_key(node.target, params)
                if key is not None and not isinstance(
                        node.op, _COMMUTATIVE_AUG):
                    events.append(("rmw", (node, key)))
                return   # target handled above; don't re-emit it
            if isinstance(node, ast.Attribute):
                key = self._shared_key(node, params)
                if key is not None:
                    if isinstance(node.ctx, ast.Load):
                        events.append(("load", (node, key)))
                    elif isinstance(node.ctx, ast.Store):
                        events.append(("store", (node, key)))
                else:
                    emit(node.value)   # e.g. the `self.a` in `self.a.b`
                return
            for child in ast.iter_child_nodes(node):
                emit(child)

        emit(func.node)
        pending: Dict[Tuple[str, str], int] = {}
        for kind, payload in events:
            if kind == "yield":
                pending.clear()
            elif kind == "rmw":
                node, key = payload
                yield node, key, node.lineno
            elif kind == "load":
                node, key = payload
                pending.setdefault(key, node.lineno)
            elif kind == "store":
                node, key = payload
                acquired = pending.pop(key, None)
                if acquired is not None:
                    yield node, key, acquired

    def program_violations(self, index: ProjectIndex,
                           graph: CallGraph) -> Iterator[Violation]:
        reachable = graph.process_reachable()
        for qualname in sorted(reachable):
            func = index.functions.get(qualname)
            if func is None:
                continue
            sites = reachable[qualname]
            weight = sum(2 if s.in_loop else 1 for s in sites)
            if weight < 2:
                continue
            path = index.modules[func.module].source.display
            spawn_desc = ", ".join(
                f"{s.module}:{s.lineno}" + (" (in loop)"
                                            if s.in_loop else "")
                for s in sorted(sites,
                                key=lambda s: (s.module, s.lineno)))
            for store, key, acquire_line in self._windows(func):
                receiver, attr = key
                yield self.at(
                    path, store,
                    f"`{receiver}.{attr}` is read (line "
                    f"{acquire_line}) and stored with no intervening "
                    f"yield in {qualname!r}, reachable from "
                    f"{len(sites)} spawn site(s) [{spawn_desc}]; two "
                    "instances waking at one timestamp race on "
                    "dispatch order")


#: every registered whole-program rule, in code order
PROGRAM_CHECKS: List[type] = [
    DeterminismTaintCheck,
    StaticWriteRaceCheck,
]


def all_program_checks() -> List[ProgramCheck]:
    return [cls() for cls in PROGRAM_CHECKS]


def run_program(root: Optional[Path] = None,
                package: Optional[str] = None,
                checks: Optional[Sequence[ProgramCheck]] = None,
                ) -> List[Violation]:
    """Index ``root`` (default: the repro package) and run every
    whole-program check; returns sorted, pragma-filtered violations.
    """
    index = build_index(root, package)
    graph = build_callgraph(index)
    active = list(checks) if checks is not None else \
        all_program_checks()
    sources = {info.source.display: info.source
               for info in index.modules.values()}
    found: List[Violation] = []
    for display, lineno, col, msg in index.syntax_errors:
        found.append(Violation(
            path=display, line=lineno, col=col, code="FCC000",
            rule="syntax", message=f"could not parse: {msg}"))
    for check in active:
        for violation in check.program_violations(index, graph):
            source = sources.get(violation.path)
            if source is not None and source.suppressed(violation):
                continue
            found.append(violation)
    found.sort()
    return found
