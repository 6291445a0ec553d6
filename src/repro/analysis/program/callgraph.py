"""Call graph over a :class:`~repro.analysis.program.index.ProjectIndex`.

Edges are resolved conservatively — an edge exists only when the
callee can be pinned to a project function — through these idioms:

* plain calls to module-level names (defined locally or imported);
* ``mod.func(...)`` through an imported project module alias;
* ``self.method(...)`` via the enclosing class and its project bases;
* ``ClassName(...)`` -> ``ClassName.__init__``;
* ``var.method(...)`` where ``var`` is a local assigned
  ``ClassName(...)`` in the same function, or a parameter annotated
  with a project class;
* ``yield from <call>`` — the process-chaining idiom — with a
  unique-method-name fallback: if exactly one project class defines
  the method, the chain resolves even without type information (the
  ``yield from host.mem.access(...)`` shape).

Spawn sites — where a generator becomes a simulation *process* — are
calls matching ``<anything>.process(<call>, ...)`` (the
``Environment.process`` idiom) and ``run_proc(env, <call>)``; the
inner call's target is the spawned root.  A spawn site records whether
it sits inside a loop, which the write-race check uses as "two or more
instances of this process may run".
"""

from __future__ import annotations

import ast
import dataclasses
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .index import ClassInfo, FunctionInfo, ProjectIndex

__all__ = ["CallEdge", "SpawnSite", "CallGraph", "build_callgraph"]


@dataclasses.dataclass(frozen=True)
class CallEdge:
    """One resolved call: ``caller`` invokes ``callee`` at ``node``."""

    caller: str                  # FunctionInfo.qualname
    callee: str                  # FunctionInfo.qualname
    lineno: int
    is_yield_from: bool


@dataclasses.dataclass(frozen=True)
class SpawnSite:
    """One ``env.process(gen(...))`` / ``run_proc(env, gen(...))``."""

    spawner: str                 # enclosing function qualname ('' = top)
    root: str                    # spawned generator's qualname
    module: str
    lineno: int
    end_lineno: int
    in_loop: bool                # lexically inside for/while: >1 instance

    @property
    def key(self) -> Tuple[str, int]:
        return (self.module, self.lineno)


class CallGraph:
    """Resolved edges + spawn sites, with reachability queries."""

    def __init__(self, index: ProjectIndex) -> None:
        self.index = index
        self.edges: List[CallEdge] = []
        self.spawns: List[SpawnSite] = []
        self._out: Dict[str, List[CallEdge]] = {}

    def add_edge(self, edge: CallEdge) -> None:
        self.edges.append(edge)
        self._out.setdefault(edge.caller, []).append(edge)

    def callees(self, qualname: str) -> List[CallEdge]:
        return self._out.get(qualname, [])

    def reachable_from(self, roots: Iterator[str]) -> Set[str]:
        """Transitive closure over call edges from the given roots."""
        seen: Set[str] = set()
        stack = list(roots)
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            for edge in self._out.get(current, ()):
                if edge.callee not in seen:
                    stack.append(edge.callee)
        return seen

    def process_reachable(self) -> Dict[str, List[SpawnSite]]:
        """function qualname -> spawn sites whose process reaches it."""
        result: Dict[str, List[SpawnSite]] = {}
        for spawn in self.spawns:
            for qualname in self.reachable_from(iter([spawn.root])):
                sites = result.setdefault(qualname, [])
                if spawn not in sites:
                    sites.append(spawn)
        return result

    def shortest_chain(self, root: str,
                       target: str) -> Optional[List[str]]:
        """Fewest-edges call path root -> target (BFS), or None."""
        if root == target:
            return [root]
        parents: Dict[str, str] = {root: ""}
        queue = [root]
        while queue:
            current = queue.pop(0)
            for edge in self._out.get(current, ()):
                if edge.callee in parents:
                    continue
                parents[edge.callee] = current
                if edge.callee == target:
                    chain = [target]
                    while chain[-1] != root:
                        chain.append(parents[chain[-1]])
                    return chain[::-1]
                queue.append(edge.callee)
        return None


def _call_name(node: ast.expr) -> Optional[str]:
    """Dotted source text of a call target, or None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        inner = _call_name(node.value)
        return f"{inner}.{node.attr}" if inner else None
    return None


class _FunctionWalker(ast.NodeVisitor):
    """Collects call edges + spawn sites within one function body."""

    def __init__(self, graph: CallGraph, func: FunctionInfo,
                 cls: Optional[ClassInfo]) -> None:
        self.graph = graph
        self.index = graph.index
        self.func = func
        self.cls = cls
        self.loop_depth = 0
        #: local var -> class qualname, from `var = ClassName(...)`
        #: assignments and annotated parameters
        self.local_types: Dict[str, str] = {}
        self._collect_param_types()

    # -- type seeding ------------------------------------------------------

    def _collect_param_types(self) -> None:
        args = getattr(self.func.node, "args", None)
        if args is None:
            return
        for arg in (list(args.posonlyargs) + list(args.args)
                    + list(args.kwonlyargs)):
            if arg.annotation is None:
                continue
            name = _call_name(arg.annotation)
            if name is None:
                continue
            resolved = self.index.resolve(self.func.module, name,
                                          self.func.symbols)
            if resolved in self.index.classes:
                self.local_types[arg.arg] = resolved

    # -- resolution --------------------------------------------------------

    def _resolve_call(self, call: ast.Call,
                      from_yield: bool = False) -> Optional[str]:
        """The project function a call lands in, or None."""
        func = call.func
        index = self.index
        module = self.func.module
        # self.method(...) / cls attribute chains
        if isinstance(func, ast.Attribute):
            value = func.value
            if isinstance(value, ast.Name):
                if value.id == "self" and self.cls is not None:
                    target = index.mro_method(self.cls.qualname,
                                              func.attr)
                    if target is not None:
                        return target.qualname
                # var.method(...) with a known local type
                cls_qual = self.local_types.get(value.id)
                if cls_qual is not None:
                    target = index.mro_method(cls_qual, func.attr)
                    if target is not None:
                        return target.qualname
            dotted = _call_name(func)
            if dotted is not None:
                resolved = index.resolve(module, dotted, self.func.symbols)
                if resolved in index.functions:
                    return resolved
                if resolved in index.classes:
                    init = index.mro_method(resolved, "__init__")
                    return init.qualname if init is not None else None
            # unique-method-name fallback, for process chains only:
            # `yield from host.mem.access(...)` must link even though
            # we cannot type `host.mem`.  Restricted to yield-from to
            # keep plain-call false edges out of the graph.
            if from_yield:
                owners = index.method_index.get(func.attr, ())
                if len(owners) == 1:
                    target = index.classes[owners[0]].methods[func.attr]
                    return target.qualname
            return None
        if isinstance(func, ast.Name):
            resolved = index.resolve(module, func.id, self.func.symbols)
            if resolved in index.functions:
                return resolved
            if resolved in index.classes:
                init = index.mro_method(resolved, "__init__")
                return init.qualname if init is not None else None
        return None

    def _record(self, call: ast.Call, from_yield: bool) -> None:
        callee = self._resolve_call(call, from_yield=from_yield)
        if callee is not None:
            self.graph.add_edge(CallEdge(
                caller=self.func.qualname, callee=callee,
                lineno=call.lineno, is_yield_from=from_yield))

    def _spawn_root(self, call: ast.Call) -> Optional[ast.Call]:
        """The generator call spawned by this node, if it is a spawn."""
        func = call.func
        if isinstance(func, ast.Attribute) and func.attr == "process":
            if call.args and isinstance(call.args[0], ast.Call):
                return call.args[0]
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else None)
        if name == "run_proc" and len(call.args) >= 2 \
                and isinstance(call.args[1], ast.Call):
            return call.args[1]
        return None

    # -- visitors ----------------------------------------------------------

    def visit_For(self, node: ast.For) -> None:          # noqa: N802
        self.loop_depth += 1
        self.generic_visit(node)
        self.loop_depth -= 1

    visit_AsyncFor = visit_For

    def visit_While(self, node: ast.While) -> None:      # noqa: N802
        self.loop_depth += 1
        self.generic_visit(node)
        self.loop_depth -= 1

    def visit_FunctionDef(self, node) -> None:           # noqa: N802
        if node is self.func.node:
            self.generic_visit(node)
        # nested defs are indexed separately; don't double-walk

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Assign(self, node: ast.Assign) -> None:    # noqa: N802
        if isinstance(node.value, ast.Call):
            name = _call_name(node.value.func)
            if name is not None:
                resolved = self.index.resolve(self.func.module, name,
                                              self.func.symbols)
                if resolved in self.index.classes:
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            self.local_types[target.id] = resolved
        self.generic_visit(node)

    def visit_YieldFrom(self, node: ast.YieldFrom) -> None:  # noqa: N802
        if isinstance(node.value, ast.Call):
            self._record(node.value, from_yield=True)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:        # noqa: N802
        spawned = self._spawn_root(node)
        if spawned is not None:
            root = self._resolve_call(spawned, from_yield=True)
            if root is not None:
                self.graph.spawns.append(SpawnSite(
                    spawner=self.func.qualname, root=root,
                    module=self.func.module, lineno=node.lineno,
                    end_lineno=getattr(node, "end_lineno", node.lineno),
                    in_loop=self.loop_depth > 0))
        else:
            self._record(node, from_yield=False)
        self.generic_visit(node)


class _TopLevelWalker(_FunctionWalker):
    """Spawn sites can also appear at module top level (scripts)."""

    def __init__(self, graph: CallGraph, module: str,
                 tree: ast.Module) -> None:
        top = FunctionInfo(
            qualname=f"{module}.<module>", module=module, cls=None,
            name="<module>", node=tree, lineno=0,
            end_lineno=10**9, is_generator=False)
        super().__init__(graph, top, None)

    def visit_FunctionDef(self, node) -> None:           # noqa: N802
        pass   # real functions are walked by their own walker

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_ClassDef(self, node) -> None:              # noqa: N802
        pass


def build_callgraph(index: ProjectIndex) -> CallGraph:
    """Walk every indexed function once and resolve its edges."""
    graph = CallGraph(index)
    for info in index.modules.values():
        for func in info.functions.values():
            cls = index.class_of(func)
            _FunctionWalker(graph, func, cls).visit(func.node)
        _TopLevelWalker(graph, info.name, info.tree).visit(info.tree)
    return graph
