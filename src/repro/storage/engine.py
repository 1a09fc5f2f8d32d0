"""The record-engine layer: the pluggable substrate under the baselines.

The single-version baselines (strict 2PL, OCC) keep one current value
per key in an ordered map. A :class:`RecordEngine` is any object
implementing the small mapping protocol below, and a registry maps
engine names to factories, so ``TwoPhaseLockingStore(engine=...)`` and
``OCCStore(engine=...)`` take a name or an instance. The TARDiS store
has no engine: its per-key version lists hold the values themselves
(:mod:`repro.core.versions`).

Built-in engines:

* ``"btree"`` — :class:`~repro.storage.btree.BTree` (ordered; supports
  ``range``; the default, matching the paper's prototype);
* ``"hash"`` — :class:`~repro.storage.hashstore.HashStore` (dict-backed
  ablation engine; ``range`` degrades to a sort).

Register additional engines with :func:`register_engine`; anything that
satisfies the protocol (an LSM stub, an mmap'd table, a remote KV
client) plugs in without touching the stores.
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Protocol,
    Tuple,
    runtime_checkable,
)

from repro.storage.btree import BTree
from repro.storage.hashstore import HashStore


@runtime_checkable
class RecordEngine(Protocol):
    """The substrate contract shared by every store in the repo.

    A sorted (or sortable) map from keys to values. ``BTree`` and
    ``HashStore`` implement it natively; the stats object only needs to
    expose whatever counters the engine tracks (``as_dict`` optional).
    """

    def get(self, key: Any, default: Any = None) -> Any: ...

    def insert(self, key: Any, value: Any) -> None: ...

    def remove(self, key: Any) -> bool: ...

    def items(self) -> Iterator[Tuple[Any, Any]]: ...

    def keys(self) -> Iterator[Any]: ...

    def range(self, lo: Any, hi: Any) -> Iterator[Tuple[Any, Any]]: ...

    def __len__(self) -> int: ...

    def __contains__(self, key: Any) -> bool: ...


#: engine name -> factory(**options) -> RecordEngine
_REGISTRY: Dict[str, Callable[..., Any]] = {}


def register_engine(
    name: str, factory: Callable[..., Any], overwrite: bool = False
) -> None:
    """Register ``factory`` under ``name`` for :func:`create_engine`.

    Factories receive the keyword options passed to ``create_engine``
    (e.g. ``degree`` for the B-tree) and must tolerate — and ignore —
    options meant for other engines.
    """
    if name in _REGISTRY and not overwrite:
        raise ValueError("engine %r already registered" % name)
    _REGISTRY[name] = factory


def available_engines() -> List[str]:
    """Registered engine names, sorted."""
    return sorted(_REGISTRY)


def create_engine(spec: Any, **options: Any) -> Any:
    """Resolve ``spec`` to a :class:`RecordEngine` instance.

    ``spec`` may be a registered engine name (``"btree"``, ``"hash"``),
    or an already-constructed engine instance, which is passed through
    untouched (the hook for injecting a custom substrate in tests).
    """
    if isinstance(spec, str):
        factory = _REGISTRY.get(spec)
        if factory is None:
            raise ValueError(
                "unknown record engine %r (available: %s)"
                % (spec, ", ".join(available_engines()))
            )
        return factory(**options)
    if _looks_like_engine(spec):
        return spec
    raise ValueError("not a record engine: %r" % (spec,))


def _looks_like_engine(obj: Any) -> bool:
    return all(
        callable(getattr(obj, attr, None))
        for attr in ("get", "insert", "remove", "items")
    )


def _make_btree(degree: int = 16, **_: Any):
    return BTree(t=degree)


def _make_hash(**_: Any):
    return HashStore()


register_engine("btree", _make_btree)
register_engine("hash", _make_hash)
