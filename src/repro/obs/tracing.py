"""Branch-aware tracing: a bounded ring-buffer event log.

An event is a point-in-time record of a branch-level happening the paper
reasons about — commit, fork, merge, promotion, GC, replication apply —
a ``kind`` plus free-form attributes (state ids, key counts). A
:class:`Tracer` keeps the newest ``capacity`` events and counts the ones
it evicts, so tracing is safe to leave on in long runs: memory is fixed,
and recording is an O(1) deque append under one lock.

Routing: every event about a store's states goes to that store's
``tracer`` attribute, or to the module-level :data:`DEFAULT` when it is
None. Like metrics, :data:`DEFAULT` starts disabled — hot paths guard
with ``if tracer.enabled:`` and pay one attribute check.

Event kind catalogue (see docs/internals.md §8):

=====================  ===================================================
kind                   attrs
=====================  ===================================================
``txn.commit``         ``state``, ``writes``, ``ripple``, ``fork``
``txn.abort``          ``reason``
``branch.fork``        ``state``, ``parent``
``branch.merge``       ``state``, ``parents``, ``writes``
``gc.cycle``           ``marked``, ``removed``, ``promoted``, ``dropped``, ``live_states``
``gc.promotion``       ``state``, ``promoted_to``
``repl.send``          ``state``, ``src``
``repl.apply``         ``state``, ``src``
``repl.cache``         ``state``, ``missing``
``repl.fetch``         ``state``, ``peer``
``repl.drop``          ``state``
``spec.confirm``       ``tickets``
``spec.misspeculate``  ``tickets``
=====================  ===================================================

All but the ``spec.*`` events also carry ``site``, and every event that
names a state carries ``trace``/``parent`` (see :mod:`repro.obs.context`).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import Any, Dict, List, Optional

from repro.obs import metrics as _met

__all__ = [
    "TraceEvent",
    "Tracer",
    "DEFAULT",
    "set_default_tracer",
    "enable",
    "use_tracer",
]


class TraceEvent:
    """One entry of the event log."""

    __slots__ = ("ts", "kind", "attrs")

    def __init__(self, ts: float, kind: str, attrs: Dict[str, Any]):
        self.ts = ts
        self.kind = kind
        self.attrs = attrs

    def to_dict(self) -> Dict[str, Any]:
        data = {"ts": self.ts, "kind": self.kind}
        data.update(self.attrs)
        return data

    def __repr__(self) -> str:
        attrs = " ".join("%s=%r" % kv for kv in self.attrs.items())
        return "<%s %s>" % (self.kind, attrs)


class Tracer:
    """A bounded ring buffer of trace events with drop accounting."""

    _GUARDED_BY = {
        "_events": "self._lock",
        "dropped": "self._lock",
    }

    def __init__(
        self,
        capacity: int = 4096,
        enabled: bool = True,
        clock=time.perf_counter,
    ):
        self.enabled = enabled
        self.capacity = capacity
        self._clock = clock
        self._events: deque = deque(maxlen=capacity)
        self._lock = threading.Lock()
        #: events evicted by the ring buffer — a nonzero value means the
        #: oldest part of any reconstructed timeline is missing.
        self.dropped = 0
        #: cached tardis_trace_dropped_total counter (at capacity, every
        #: append evicts, so the metric lookup must not be per-event).
        self._drop_registry = None
        self._drop_counter = None

    # -- events ----------------------------------------------------------
    #
    # The ring stores raw ``(ts, kind, attrs)`` tuples, not TraceEvent
    # objects: recording is the hot path (several events per traced
    # commit) and the wrapper is only needed by readers, so it is
    # materialized lazily in :meth:`events`. Successive ``events()``
    # calls therefore return *new* TraceEvent wrappers, but they share
    # the underlying attrs dicts, so attr mutations (e.g. the site
    # tagging in ``merge_events``) stick across calls.

    def event(self, kind: str, **attrs: Any) -> None:
        """Record a point event; no-op when disabled."""
        if not self.enabled:
            return
        ts = self._clock()
        with self._lock:
            evicting = len(self._events) == self.capacity
            if evicting:
                self.dropped += 1
            self._events.append((ts, kind, attrs))
        if evicting:
            registry = _met.DEFAULT
            if registry.enabled:
                if self._drop_registry is not registry:
                    self._drop_registry = registry
                    self._drop_counter = registry.counter(
                        "tardis_trace_dropped_total"
                    )
                self._drop_counter.inc()

    def events(
        self, kind: Optional[str] = None, limit: Optional[int] = None
    ) -> List[TraceEvent]:
        """Newest-last view of the buffer, optionally filtered by kind."""
        with self._lock:
            raw = list(self._events)
        if kind is not None:
            raw = [entry for entry in raw if entry[1] == kind]
        if limit is not None:
            raw = raw[-limit:] if limit > 0 else []
        return [TraceEvent(ts, k, attrs) for ts, k, attrs in raw]

    def clear(self) -> None:
        with self._lock:
            self._events.clear()
            self.dropped = 0

    def __len__(self) -> int:
        return len(self._events)

    def to_list(self, limit: Optional[int] = None) -> List[Dict[str, Any]]:
        return [e.to_dict() for e in self.events(limit=limit)]

    def __repr__(self) -> str:
        return "<Tracer enabled=%s events=%d/%d>" % (
            self.enabled,
            len(self._events),
            self.capacity,
        )


#: The library-wide default tracer. Disabled until a consumer opts in.
DEFAULT = Tracer(enabled=False)


def set_default_tracer(tracer: Tracer) -> Tracer:
    """Install ``tracer`` as the module default; returns the previous one."""
    global DEFAULT
    previous = DEFAULT
    DEFAULT = tracer
    return previous


def enable(on: bool = True) -> None:
    """Toggle recording on the current default tracer."""
    DEFAULT.enabled = on


@contextmanager
def use_tracer(tracer: Tracer):
    """Temporarily install ``tracer`` as the default."""
    previous = set_default_tracer(tracer)
    try:
        yield tracer
    finally:
        set_default_tracer(previous)
