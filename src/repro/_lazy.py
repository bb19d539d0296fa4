"""Lazy package namespaces (PEP 562).

A package ``__init__`` names the submodule that defines each of its
public names and imports none of them: a submodule is imported the
first time one of its names is looked up on the package.  A process
therefore loads only the layers it runs — a checker worker never
imports the simulation kernel or numpy just because a package
``__init__`` mentions them — while ``from repro.sim import Simulation``,
``repro.Simulation``, ``from repro.obs import *`` and ``dir()`` behave
exactly as with eager imports.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Dict, List, Tuple


def lazy_namespace(package: str, exports: Dict[str, str]
                   ) -> Tuple[List[str], Callable[[str], Any],
                              Callable[[], List[str]]]:
    """``(__all__, __getattr__, __dir__)`` for the package ``package``.

    ``exports`` maps each public name, in ``__all__`` order, to the
    submodule defining it, relative to ``package`` (``"core.consensus"``
    in :mod:`repro`).  ``__getattr__`` imports that submodule on first
    access and stores the value in the package namespace, so later
    lookups never reach it again.  Any other name resolves to the
    submodule of that name if there is one (``repro.sim`` after a bare
    ``import repro``), and otherwise raises :class:`AttributeError`, so
    ``hasattr`` works.
    """
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> Any:
        sub = exports.get(name)
        if sub is not None:
            value = getattr(importlib.import_module(f"{package}.{sub}"),
                            name)
            namespace[name] = value
            return value
        if not name.startswith("__"):
            try:
                return importlib.import_module(f"{package}.{name}")
            except ModuleNotFoundError as exc:
                if exc.name != f"{package}.{name}":
                    raise
        raise AttributeError(
            f"module {package!r} has no attribute {name!r}")

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(exports))

    return list(exports), __getattr__, __dir__
