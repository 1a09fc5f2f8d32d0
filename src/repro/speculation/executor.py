"""Speculation over TARDiS branches (§9 future work prototype).

Model: a geo-replicated system where the *global* serialization order of
update transactions is decided elsewhere (a sequencer, a consensus
group) and arrives at each site with wide-area delay. Waiting for it
before answering clients costs an RTT per transaction; executing
immediately risks having speculated against the wrong prefix.

With TARDiS, the site executes client transactions at once on a
**speculative branch** anchored at the last *confirmed* state. When a
batch of the confirmed order arrives:

* if none of the confirmed remote transactions conflict with the
  pending speculation (write sets vs speculative read sets), the remote
  transactions are applied and the speculative branch is merged over
  them — speculation stands, and the client latency was ~0 instead of
  an RTT;
* otherwise the speculative branch is abandoned (it is just a branch —
  nothing to roll back) and the speculated transactions re-execute on
  top of the new confirmed prefix, in order.

Readers choose their consistency: ``read_confirmed`` sees only the
confirmed trunk; ``read_speculative`` sees the freshest (speculative)
values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.constraints import (
    AncestorConstraint,
    SerializabilityConstraint,
    StateIdConstraint,
)
from repro.core.store import TardisStore
from repro.errors import TransactionAborted

PENDING = "pending"
CONFIRMED = "confirmed"
REEXECUTED = "re-executed"
FAILED = "failed"


@dataclass
class Speculation:
    """One speculatively executed client transaction."""

    ticket: int
    program: Callable
    status: str = PENDING
    result: Any = None
    commit_id: Any = None
    read_keys: frozenset = frozenset()
    write_keys: frozenset = frozenset()
    executions: int = 1
    #: the exception that failed the program, when status == "failed".
    error: Optional[BaseException] = None


@dataclass
class RemoteTxn:
    """One transaction of the confirmed global order."""

    writes: Dict[Any, Any]
    read_keys: Tuple = ()


class SpeculativeExecutor:
    """Executes client programs speculatively; reconciles with the
    confirmed global order as it arrives."""

    def __init__(self, store: Optional[TardisStore] = None):
        self.store = store or TardisStore("spec")
        self._confirmed_session = self.store.session("spec:confirmed")
        self._spec_session = self.store.session("spec:speculative")
        self._confirmed_tip = self.store.dag.root.id
        self._spec_tip = self.store.dag.root.id
        self._pending: List[Speculation] = []
        self._tickets = 0
        self.misspeculations = 0
        self.confirmed_count = 0
        self.reexecutions = 0

    # -- client side ---------------------------------------------------------

    def submit(self, program: Callable) -> Speculation:
        """Execute ``program(txn)`` now, on the speculative branch.

        The returned :class:`Speculation` carries the program's result
        computed against the speculative state; its ``status`` moves to
        ``confirmed`` or ``re-executed`` once the global order covers it.
        """
        self._tickets += 1
        spec = Speculation(ticket=self._tickets, program=program)
        self._execute(spec, self._spec_session, anchor=self._spec_tip)
        self._spec_tip = spec.commit_id or self._spec_tip
        self._pending.append(spec)
        m = self.store.registry
        if m.enabled:
            m.inc("tardis_spec_submit_total")
        return spec

    def _execute(self, spec: Speculation, session, anchor) -> None:
        txn = self.store.begin(
            StateIdConstraint([anchor]), session=session
        )
        try:
            spec.result = spec.program(txn)
        except Exception as exc:  # tardis: ignore[bare-except]
            # API contract (pinned by tests/test_speculation.py): a
            # program exception fails *this* speculation, future-style,
            # instead of unwinding the pipeline. The exception is kept
            # on the speculation rather than swallowed.
            txn.abort()
            spec.status = FAILED
            spec.error = exc
            return
        spec.read_keys = frozenset(txn.read_keys)
        spec.write_keys = frozenset(txn.writes)
        try:
            spec.commit_id = txn.commit(SerializabilityConstraint())
        except TransactionAborted:  # pragma: no cover - Ser from fresh tip
            spec.status = FAILED

    # -- reads -----------------------------------------------------------------

    def read_confirmed(self, key: Any, default: Any = None) -> Any:
        hit = self._visible(key, self._confirmed_tip)
        return default if hit is None else hit[1]

    def read_speculative(self, key: Any, default: Any = None) -> Any:
        hit = self._visible(key, self._spec_tip)
        return default if hit is None else hit[1]

    def _visible(self, key: Any, tip: Any) -> Optional[Tuple[Any, Any]]:
        with self.store._lock:
            return self.store.versions.read_visible(
                key, self.store.dag.resolve(tip), self.store.dag
            )

    @property
    def pending(self) -> List[Speculation]:
        return [s for s in self._pending if s.status == PENDING]

    # -- the confirmed order arrives ----------------------------------------------

    def deliver_confirmed(self, remote_txns: List[RemoteTxn]) -> bool:
        """Apply a batch of the confirmed global order.

        Returns True when the pending speculation survived, False on a
        misspeculation (pending transactions were replayed).
        """
        pending = self.pending
        conflict = any(
            set(remote.writes) & (spec.read_keys | spec.write_keys)
            for remote in remote_txns
            for spec in pending
        )
        # Extend the confirmed trunk with the remote transactions.
        tip = self._confirmed_tip
        for remote in remote_txns:
            txn = self.store.begin(
                StateIdConstraint([tip]), session=self._confirmed_session
            )
            for key, value in remote.writes.items():
                txn.put(key, value)
            tip = txn.commit(SerializabilityConstraint())
        self._confirmed_tip = tip

        if not pending:
            self._spec_tip = self._confirmed_tip
            return True

        if not conflict:
            # Speculation stands: fold the speculative branch over the
            # confirmed trunk with one merge (speculative values win the
            # keys they wrote; they conflict with nothing by the check).
            if remote_txns:
                merge = self.store.begin_merge(
                    session=self._spec_session,
                    states=[self._confirmed_tip, self._spec_tip],
                )
                for spec in pending:
                    for key in spec.write_keys:
                        hit = self._visible(key, self._spec_tip)
                        if hit is not None:
                            merge.put(key, hit[1])
                merged_id = merge.commit()
                self._confirmed_tip = merged_id
                self._spec_tip = merged_id
            else:
                self._confirmed_tip = self._spec_tip
            for spec in pending:
                spec.status = CONFIRMED
                self.confirmed_count += 1
            self._pending = []
            m = self.store.registry
            if m.enabled:
                m.inc("tardis_spec_confirm_total", len(pending))
            if self.store.recorder.enabled:
                self.store.recorder.event("spec", "confirm", None, n=len(pending))
            return True

        # Misspeculation: abandon the branch, replay in ticket order on
        # the new confirmed prefix.
        self.misspeculations += 1
        m = self.store.registry
        if m.enabled:
            m.inc("tardis_spec_misspec_total")
            m.inc("tardis_spec_reexec_total", len(pending))
        if self.store.recorder.enabled:
            self.store.recorder.event("spec", "misspeculate", None, n=len(pending))
        self._spec_tip = self._confirmed_tip
        for spec in pending:
            spec.executions += 1
            self.reexecutions += 1
            self._execute(spec, self._spec_session, anchor=self._spec_tip)
            if spec.status != FAILED:
                self._spec_tip = spec.commit_id
                spec.status = REEXECUTED
        self._confirmed_tip = self._spec_tip
        self._pending = []
        return False

    # -- housekeeping -----------------------------------------------------------

    def collect_abandoned(self) -> int:
        """Garbage-collect abandoned speculative branches."""
        self._confirmed_session.last_commit_id = self._confirmed_tip
        self._confirmed_session.place_ceiling()
        stats = self.store.collect_garbage()
        return stats.states_removed
