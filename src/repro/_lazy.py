"""Lazy package re-exports (PEP 562).

A package ``__init__`` that re-exports names from its submodules would
import every one of them on first ``import repro.<package>``, although a
run uses only a few.  :func:`lazy_exports` instead builds a module-level
``__getattr__`` that imports the owning submodule on first access of a
name and caches the value in the package namespace, so later lookups are
plain attribute reads.  The packages keep the eager imports under
``TYPE_CHECKING`` for type checkers and ``repro lint``'s symbol index.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Mapping, Sequence

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]]
) -> Callable[[str], Any]:
    """``__getattr__`` for ``package`` resolving ``{module: names}`` lazily.

    A name equal to its module's last path segment (``{"pkg.mod":
    ["mod"]}``) resolves to the submodule itself.
    """
    owner = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> Any:
        module_name = owner.get(name)
        if module_name is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        module = importlib.import_module(module_name)
        value = module if module_name == f"{package}.{name}" else getattr(module, name)
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__
