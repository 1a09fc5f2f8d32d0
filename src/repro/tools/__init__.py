"""Operational tooling: DAG inspection, DOT export, CLI entry points."""

from typing import TYPE_CHECKING

from repro._lazy import exports

if TYPE_CHECKING:
    from repro.tools.inspect import dag_to_dot, describe_store, store_summary

__all__ = ["dag_to_dot", "describe_store", "store_summary"]

# ``tardis top`` is a client alone: it need not import the store.
__getattr__ = exports(__name__, {"repro.tools.inspect": __all__})
