"""The ProjectIndex: every module of a package, parsed once.

The index is the shared substrate of all whole-program checks.  It is
a pure ``ast`` structure — nothing is imported or executed — built in
one pass over the package directory:

* **Module table** — dotted module name -> :class:`ModuleInfo`
  (its :class:`~repro.analysis.lint.SourceFile`, parsed tree, and
  symbol tables).
* **Symbol resolution** — per module, the mapping from a local name to
  the dotted project symbol it denotes: ``from ..sim import
  Environment`` binds ``Environment`` to ``repro.sim.Environment``;
  re-exports through ``__init__`` chase one level per hop, whether the
  package imports them or declares them in a ``lazy_exports`` map
  (:mod:`repro._lazy`).  Imports inside a function body bind in that
  function's own table (:attr:`FunctionInfo.symbols`).
* **Functions and classes** — every function/method keyed by its
  qualified name ``module.Class.method`` / ``module.func``, with line
  spans (for mapping per-file violations onto enclosing functions),
  generator-ness, and per-class base-name lists for method lookup.
* **Import graph** — module -> set of project modules its top level
  imports (what loading it runs), so tooling can reason about layering
  without re-parsing.

Everything downstream (call graph, taint, conformance) is derived
from this object; building it on the full ``repro`` package takes
well under a second.
"""

from __future__ import annotations

import ast
import dataclasses
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..lint import SourceFile, iter_source_files

__all__ = ["FunctionInfo", "ClassInfo", "ModuleInfo", "ProjectIndex",
           "build_index"]


@dataclasses.dataclass
class FunctionInfo:
    """One function or method definition."""

    qualname: str                 # module.Class.method / module.func
    module: str                   # dotted module name
    cls: Optional[str]            # class qualname within module, or None
    name: str
    node: ast.AST                 # FunctionDef / AsyncFunctionDef
    lineno: int
    end_lineno: int
    is_generator: bool
    #: local name -> dotted target, for imports inside the body
    symbols: Dict[str, str] = dataclasses.field(default_factory=dict)

    @property
    def display(self) -> str:
        return self.qualname


@dataclasses.dataclass
class ClassInfo:
    """One class definition and its (unresolved) base names."""

    qualname: str                 # module.Class
    module: str
    name: str
    node: ast.ClassDef
    bases: List[str]              # source-level base expressions
    methods: Dict[str, FunctionInfo] = dataclasses.field(
        default_factory=dict)


@dataclasses.dataclass
class ModuleInfo:
    """One parsed module plus its symbol tables."""

    name: str                     # dotted name, e.g. repro.sim.engine
    source: SourceFile
    tree: ast.Module
    #: local name -> dotted target ("repro.sim.Environment" or module)
    symbols: Dict[str, str] = dataclasses.field(default_factory=dict)
    functions: Dict[str, FunctionInfo] = dataclasses.field(
        default_factory=dict)     # local qualname ("f", "C.m") -> info
    classes: Dict[str, ClassInfo] = dataclasses.field(
        default_factory=dict)     # local name -> info
    imports: Set[str] = dataclasses.field(default_factory=set)
    is_package: bool = False      # an __init__.py module


def _function_is_generator(node: ast.AST) -> bool:
    stack: List[ast.AST] = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        if isinstance(child, (ast.Yield, ast.YieldFrom)):
            return True
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(child))
    return False


def _base_name(node: ast.expr) -> Optional[str]:
    """`Foo` -> "Foo", `mod.Foo` -> "mod.Foo", else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        inner = _base_name(node.value)
        return f"{inner}.{node.attr}" if inner else None
    return None


class ProjectIndex:
    """See the module docstring; build with :func:`build_index`."""

    def __init__(self, root: Path, package: str) -> None:
        self.root = root
        self.package = package
        self.modules: Dict[str, ModuleInfo] = {}
        #: files that failed to parse: (display path, line, col, msg)
        self.syntax_errors: List[Tuple[str, int, int, str]] = []
        #: every function in the project, by global qualname
        self.functions: Dict[str, FunctionInfo] = {}
        #: every class, by global qualname module.Class
        self.classes: Dict[str, ClassInfo] = {}
        #: method name -> class qualnames defining it (for unique-name
        #: fallback resolution of attribute calls)
        self.method_index: Dict[str, List[str]] = {}

    # -- queries -----------------------------------------------------------

    def resolve(self, module: str, name: str,
                scope: Optional[Dict[str, str]] = None) -> Optional[str]:
        """Resolve a (possibly dotted) local name to a project symbol.

        ``scope`` is the enclosing function's own import table, looked
        up before the module's.  Chases import aliases one module at a
        time, including one-level re-exports through package
        ``__init__`` modules.  Returns a dotted name present in
        :attr:`functions`, :attr:`classes`, or :attr:`modules` — or
        ``None`` for anything outside the project.
        """
        seen: Set[Tuple[str, str]] = set()
        while True:
            if (module, name) in seen:
                return None
            seen.add((module, name))
            info = self.modules.get(module)
            if info is None:
                return None
            head, _, rest = name.partition(".")
            target = scope.get(head) if scope else None
            scope = None
            if target is None:
                target = info.symbols.get(head)
            if target is None:
                # a module-local definition?
                candidate = f"{module}.{name}"
                if (candidate in self.functions
                        or candidate in self.classes
                        or candidate in self.modules):
                    return candidate
                return None
            dotted = target + ("." + rest if rest else "")
            if (dotted in self.functions or dotted in self.classes
                    or dotted in self.modules):
                return dotted
            # chase a re-export: target is "pkg.mod.sym" — recurse into
            # the module part with the trailing symbol
            mod_part, _, sym = dotted.rpartition(".")
            if mod_part in self.modules and sym:
                module, name = mod_part, sym
                continue
            return None

    def function_at(self, module: str,
                    lineno: int) -> Optional[FunctionInfo]:
        """The innermost function of ``module`` containing ``lineno``."""
        best: Optional[FunctionInfo] = None
        info = self.modules.get(module)
        if info is None:
            return None
        for func in info.functions.values():
            if func.lineno <= lineno <= func.end_lineno:
                if best is None or func.lineno > best.lineno:
                    best = func
        return best

    def iter_functions(self) -> Iterator[FunctionInfo]:
        return iter(self.functions.values())

    def class_of(self, func: FunctionInfo) -> Optional[ClassInfo]:
        if func.cls is None:
            return None
        return self.classes.get(f"{func.module}.{func.cls}")

    def mro_method(self, cls_qualname: str,
                   method: str) -> Optional[FunctionInfo]:
        """Look up ``method`` on a class or its project base classes."""
        seen: Set[str] = set()
        stack = [cls_qualname]
        while stack:
            current = stack.pop(0)
            if current in seen:
                continue
            seen.add(current)
            cls = self.classes.get(current)
            if cls is None:
                continue
            if method in cls.methods:
                return cls.methods[method]
            for base in cls.bases:
                resolved = self.resolve(cls.module, base)
                if resolved is not None:
                    stack.append(resolved)
        return None


def _module_name(package: str, root: Path, path: Path) -> str:
    rel = path.relative_to(root).with_suffix("")
    parts = list(rel.parts)
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join([package] + parts) if parts else package


def _resolve_relative(module: str, package: str, level: int,
                      target: Optional[str],
                      is_pkg: bool) -> Optional[str]:
    """Absolute dotted module for a ``from ...x import y`` statement."""
    if level == 0:
        return target
    parts = module.split(".")
    # level 1 from a plain module means "its package": drop the module
    # leaf, then one more component per extra level.
    drop = level if not is_pkg else level - 1
    if drop >= len(parts):
        return None
    base = parts[:len(parts) - drop]
    if target:
        base.append(target)
    return ".".join(base)


def _bind_import(node: ast.AST, info: ModuleInfo, package: str,
                 symbols: Dict[str, str], imports: Set[str]) -> None:
    """Record what an import statement binds, if it names the project."""
    if isinstance(node, ast.Import):
        for alias in node.names:
            if alias.name == package \
                    or alias.name.startswith(package + "."):
                local = alias.asname or alias.name.split(".")[0]
                target = (alias.name if alias.asname
                          else alias.name.split(".")[0])
                symbols[local] = target
                imports.add(alias.name)
    elif isinstance(node, ast.ImportFrom):
        base = _resolve_relative(info.name, package, node.level,
                                 node.module, info.is_package)
        if base is None or not (base == package
                                or base.startswith(package + ".")):
            return
        imports.add(base)
        for alias in node.names:
            if alias.name == "*":
                continue
            symbols[alias.asname or alias.name] = f"{base}.{alias.name}"


def _lazy_exports(node: ast.AST, module: str) -> Dict[str, str]:
    """The names a ``... = lazy_exports(__name__, {sub: names})`` binds.

    ``{"engine": ("Environment",)}`` maps ``Environment`` to
    ``<module>.engine.Environment``; the ``"."`` key exports
    submodules as themselves.  Anything else yields nothing.
    """
    if not (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
            and len(node.value.args) == 2
            and isinstance(node.value.args[1], ast.Dict)):
        return {}
    callee = _base_name(node.value.func) or ""
    if callee.rpartition(".")[2] != "lazy_exports":
        return {}
    bound: Dict[str, str] = {}
    exports = node.value.args[1]
    for key, value in zip(exports.keys, exports.values):
        if not (isinstance(key, ast.Constant) and isinstance(key.value, str)
                and isinstance(value, (ast.Tuple, ast.List))):
            continue
        home = module if key.value == "." else f"{module}.{key.value}"
        for name in value.elts:
            if isinstance(name, ast.Constant) and isinstance(name.value,
                                                             str):
                bound[name.value] = f"{home}.{name.value}"
    return bound


def _body_imports(node: ast.AST) -> Iterator[ast.AST]:
    """Import statements in a function body, nested scopes excluded."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            yield child
        elif not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                    ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(child))


def _index_module(index: ProjectIndex, info: ModuleInfo) -> None:
    module = info.name
    package = index.package

    def add_function(node, cls_name: Optional[str]) -> FunctionInfo:
        local = f"{cls_name}.{node.name}" if cls_name else node.name
        qualname = f"{module}.{local}"
        func = FunctionInfo(
            qualname=qualname, module=module, cls=cls_name,
            name=node.name, node=node, lineno=node.lineno,
            end_lineno=getattr(node, "end_lineno", node.lineno),
            is_generator=_function_is_generator(node))
        for statement in _body_imports(node):
            _bind_import(statement, info, package, func.symbols, set())
        info.functions[local] = func
        index.functions[qualname] = func
        return func

    for node in info.tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            _bind_import(node, info, package, info.symbols, info.imports)
        elif info.is_package and isinstance(node, ast.Assign):
            info.symbols.update(_lazy_exports(node, module))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            add_function(node, None)
        elif isinstance(node, ast.ClassDef):
            cls = ClassInfo(
                qualname=f"{module}.{node.name}", module=module,
                name=node.name, node=node,
                bases=[b for b in map(_base_name, node.bases) if b])
            info.classes[node.name] = cls
            index.classes[cls.qualname] = cls
            for child in node.body:
                if isinstance(child, (ast.FunctionDef,
                                      ast.AsyncFunctionDef)):
                    cls.methods[child.name] = add_function(
                        child, node.name)
                    index.method_index.setdefault(
                        child.name, []).append(cls.qualname)


def build_index(root: Optional[Path] = None,
                package: Optional[str] = None) -> ProjectIndex:
    """Parse a package directory into a :class:`ProjectIndex`.

    ``root`` defaults to the installed ``repro`` package; ``package``
    defaults to the directory's name.  Unparseable files are skipped
    here — :func:`~repro.analysis.program.checks.run_program` surfaces
    them as ``FCC000 [syntax]`` via the per-file machinery instead.
    """
    from ..lint import default_lint_root
    root = Path(root) if root is not None else default_lint_root()
    package = package or root.name
    index = ProjectIndex(root, package)
    for path in iter_source_files([root]):
        source = SourceFile(path)
        try:
            tree = source.parse()
        except SyntaxError as exc:
            index.syntax_errors.append(
                (source.display, exc.lineno or 0, exc.offset or 0,
                 exc.msg or "could not parse"))
            continue
        name = _module_name(package, root, path)
        info = ModuleInfo(name=name, source=source, tree=tree,
                          is_package=path.name == "__init__.py")
        index.modules[name] = info
    # Two passes: symbols may point at modules indexed later.
    for info in index.modules.values():
        _index_module(index, info)
    return index
