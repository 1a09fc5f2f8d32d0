"""Lazy re-exports for the package ``__init__`` modules (PEP 562).

A package whose ``__init__`` imports its submodules' names eagerly makes
every import of one submodule import all of them: ``import
repro.core.versions`` runs ``repro/__init__.py`` and
``repro/core/__init__.py`` first. A shard worker process needs five
modules of ``repro.core`` and would load the whole store, WAL and obs
stack with them. A package that sets its module ``__getattr__`` to
:func:`exports` imports a re-exported name from its submodule the first
time the name is read, and keeps it.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Dict, Iterable


def exports(package: str, origins: Dict[str, Iterable[str]]) -> Callable[[str], Any]:
    """The module ``__getattr__`` of ``package``.

    ``origins`` maps a module to the names ``package`` re-exports from
    it. A name that is the module's own last component (``"errors"``
    from ``"repro.errors"``) is the module itself.
    """
    where = {name: module for module, names in origins.items() for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> Any:
        module = where.get(name)
        if module is None:
            raise AttributeError("module %r has no attribute %r" % (package, name))
        found = importlib.import_module(module)
        value = found if module.rpartition(".")[2] == name else getattr(found, name)
        namespace[name] = value
        return value

    return __getattr__
