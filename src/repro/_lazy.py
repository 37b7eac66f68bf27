"""Lazy package re-exports (PEP 562).

A package ``__init__`` that re-exports names from its submodules would
otherwise import every one of them — and numpy, the process pool, the
serve stack behind them — the moment anything under the package is
imported.  :func:`attach` returns the ``__getattr__`` / ``__dir__`` /
``__all__`` triple that defers each submodule import to the first
access of one of its names, so ``import repro.cli`` (and therefore
``repro --help``) pays only for what the command actually uses.
``from package import *``, ``dir()`` and attribute access behave as
with eager imports; ``tests/test_lazy_imports.py`` pins both the
laziness and the identity of every re-exported object.
"""

from __future__ import annotations

import importlib
import sys
from collections.abc import Callable, Mapping, Sequence
from typing import Any


def attach(package: str, exports: Mapping[str, Sequence[str]],
           ) -> tuple[Callable[[str], Any], Callable[[], list[str]], list[str]]:
    """``(__getattr__, __dir__, __all__)`` for ``package``.

    ``exports`` maps a submodule of ``package`` to the names it
    provides.  A resolved name is cached in the package namespace, so
    each lookup runs once.
    """
    origin = {name: f"{package}.{submodule}"
              for submodule, names in exports.items() for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> Any:
        module = origin.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(origin))

    return __getattr__, __dir__, list(origin)
