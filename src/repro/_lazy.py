"""Lazy package namespaces: public names resolve on first access.

A package ``__init__`` lists what it exports as a table of submodule →
names and binds the pair this module returns as its module-level
``__getattr__`` and ``__dir__`` (PEP 562)::

    __getattr__, __dir__ = lazy_namespace(__name__, {
        "repro.core.tokens": ("Token", "make_tokens"),
    })

Importing the package then imports none of its submodules.  The first
``package.Token`` (or ``from package import Token``) imports
``repro.core.tokens`` and binds ``Token`` in the package, so every later
access is a plain attribute lookup.  An attribute that names a public
submodule (``repro.api`` after ``import repro``) imports that submodule.
Type checkers read the same names from an ``if TYPE_CHECKING:`` import
block beside the table.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, List, Mapping, Sequence, Tuple


def lazy_namespace(
    package: str, exports: Mapping[str, Sequence[str]]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """``(__getattr__, __dir__)`` for ``package`` exporting ``exports``.

    ``exports`` maps each submodule's import path to the names the package
    re-exports from it.
    """
    owners = {name: module for module, names in exports.items() for name in names}
    namespace = sys.modules[package].__dict__

    def submodule(name: str) -> Any:
        if not name.startswith("_"):
            try:
                return importlib.import_module(f"{package}.{name}")
            except ModuleNotFoundError as error:
                if error.name != f"{package}.{name}":
                    raise
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    def __getattr__(name: str) -> Any:
        if name in owners:
            value = getattr(importlib.import_module(owners[name]), name)
        else:
            value = submodule(name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(owners))

    return __getattr__, __dir__
