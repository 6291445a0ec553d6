"""Package exports that load their submodule on first use (PEP 562).

A package ``__init__`` declares its public names once, as a
``{submodule: (names, ...)}`` map, and hands the map to
:func:`lazy_exports`::

    __getattr__, __dir__, __all__ = lazy_exports(__name__, {
        ".": ("params",),                 # submodules exported as such
        "engine": ("Environment", "Event"),
    })

Importing the package then runs none of its submodules.  The first
``package.Environment`` (or ``from package import Environment``)
imports ``package.engine`` and stores the value in the package
namespace, so every later lookup is a plain attribute read.  A name
the map does not hold raises :class:`AttributeError` naming the
package.  The whole-program index (``repro.analysis.program.index``)
reads the same map to resolve re-exports without importing anything.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple

__all__ = ["lazy_exports"]


def lazy_exports(package: str, exports: Mapping[str, Sequence[str]]
                 ) -> Tuple[Callable[[str], Any], Callable[[], List[str]],
                            List[str]]:
    """``(__getattr__, __dir__, __all__)`` for ``package``'s map."""
    home: Dict[str, str] = {}
    for submodule, names in exports.items():
        for name in names:
            home[name] = submodule
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> Any:
        submodule = home.get(name)
        if submodule is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        if submodule == ".":
            value = import_module(f"{package}.{name}")
        else:
            value = getattr(import_module(f"{package}.{submodule}"), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(home))

    return __getattr__, __dir__, list(home)
