"""One recorder: a bounded ring of flat rows, one per store.

Everything the system records about what happened is a row of one
schema, :data:`ROW_COLUMNS`: ``(t_start, t_end, cpu, layer, name,
parent, txn, n)``. Two writers share it, each through its store's
:class:`Recorder` (``store.recorder``):

* **Branch rows** — a point-in-time branch event the paper reasons about
  (commit, fork, merge, promotion, GC, replication, speculation) is a row
  with ``t_start == t_end`` and ``cpu`` 0.0; ``layer`` is its family,
  ``name`` its kind, ``txn`` the trace id of the state it is about (a
  state id string, see :mod:`repro.obs.context`), ``parent`` the trace id
  of that state's first parent, and ``n`` its count. The store records
  them only while ``recorder.enabled`` is set (off by default; hot paths
  pay one attribute check).
* **Server rows** — the network server's slow requests (each with the
  three span rows that tile it) and GC cycles (docs/internals.md §14.1),
  written while the store's metrics registry is on, whatever ``enabled`` says.

A row's ``seq`` is its place in its recorder's stream; rows a writer
numbers but does not keep (:meth:`Recorder.skip`) leave gaps, so
``rows(after=seq)`` is a cursor. The ring keeps the newest ``capacity``
rows and counts the ones it evicts. Rows hold only atomic values and
tuples of strings (state ids as trace-id strings), so a resident ring
stays invisible to the cyclic GC.

Branch row catalogue (docs/internals.md §8 says what each column holds):

=======================  ==========  ===============  ======================
``layer.name``           ``txn``     ``n``            ``ref``
=======================  ==========  ===============  ======================
``txn.commit``           its state   writes
``txn.abort``                                         the reason
``branch.fork``          its state
``branch.merge``         its state   writes           the other parents
``gc.cycle``                         states removed
``gc.promotion``         its state                    the state promoted to
``repl.send``            its state
``repl.apply``           its state                    the sending site
``repl.cache``           its state                    the missing parent
``repl.fetch``           waiting                      the fetched state
``repl.drop``            its state
``spec.confirm``                     tickets
``spec.misspeculate``                tickets
=======================  ==========  ===============  ======================

A row with a ``txn`` has its first parent's trace id as ``parent``.
``ref`` is the one value a branch row holds beyond the columns (None on
every other row).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Dict, List, Sequence, Tuple

__all__ = ["ROW_COLUMNS", "ENTRY", "Recorder"]

#: the columns of a row. Times are seconds on the recorder's clock (the
#: server's are ``perf_counter``), ``cpu`` the recording thread's
#: ``thread_time`` inside the span.
ROW_COLUMNS = ("t_start", "t_end", "cpu", "layer", "name", "parent", "txn", "n")
#: a kept row as the ring holds it, and as :meth:`Recorder.rows` names it.
ENTRY = ("seq",) + ROW_COLUMNS + ("ref",)


class Recorder:
    """A bounded ring of rows with one numbering and drop accounting."""

    _GUARDED_BY = {
        "_rows": "self._lock",
        "seq": "self._lock",
        "dropped": "self._lock",
    }

    def __init__(self, capacity: int = 4096, enabled: bool = False, clock=time.perf_counter):
        #: gates the store's own (branch) rows only.
        self.enabled = enabled
        self.capacity = capacity
        self.clock = clock
        self._rows: deque = deque(maxlen=capacity)
        self._lock = threading.Lock()
        #: rows numbered so far: the next row's ``seq``.
        self.seq = 0
        #: rows evicted by the ring — a nonzero value means the oldest
        #: part of any reconstructed timeline is missing (the store
        #: mirrors it as tardis_trace_dropped_total).
        self.dropped = 0

    def event(
        self, layer: str, name: str, txn: Any, parent: Any = None, n: int = 0, ref: Any = None
    ) -> None:
        """Record a branch event as a point row now; callers check ``enabled``."""
        t = self.clock()
        with self._lock:
            seq = self.seq
            self.seq = seq + 1
            if len(self._rows) == self.capacity:
                self.dropped += 1
            self._rows.append((seq, t, t, 0.0, layer, name, parent, txn, n, ref))

    def add(
        self, row: Tuple[Any, ...], spans: Sequence[Tuple[float, float, float, str]] = ()
    ) -> None:
        """Keep ``row`` (see ROW_COLUMNS) and the spans that tile it, each
        ``(t_start, t_end, cpu, layer)``: a row of its own whose ``parent``
        is ``row``'s seq and whose ``name``, ``txn`` and ``n`` are ``row``'s.
        The rows take consecutive numbers."""
        _, _, _, _, name, _, txn, n = row
        with self._lock:
            seq = self.seq
            entries = [(seq,) + row + (None,)]
            entries += [
                (seq + i, start, end, cpu, layer, name, seq, txn, n, None)
                for i, (start, end, cpu, layer) in enumerate(spans, 1)
            ]
            self.seq = seq + len(entries)
            evicted = max(0, len(self._rows) + len(entries) - self.capacity)
            self.dropped += evicted
            self._rows.extend(entries)

    def skip(self, n: int) -> None:
        """Number ``n`` rows that are not kept."""
        with self._lock:
            self.seq += n

    def rows(self, after: int = -1) -> List[Dict[str, Any]]:
        """The kept rows numbered after ``after``, oldest first, as dicts
        keyed by :data:`ENTRY` (a cursor passes the last ``seq`` it read)."""
        with self._lock:
            kept = [entry for entry in self._rows if entry[0] > after]
        return [dict(zip(ENTRY, entry)) for entry in kept]

    def __len__(self) -> int:
        return len(self._rows)

    def __repr__(self) -> str:
        return "<Recorder enabled=%s rows=%d/%d seq=%d>" % (
            self.enabled,
            len(self._rows),
            self.capacity,
            self.seq,
        )
