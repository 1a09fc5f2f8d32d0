"""Optimistic concurrency control baseline (§7.1.1).

A modified Kung-Robinson validator, as in the paper: transactions read
the committed store freely, buffer writes, and validate at commit
against the write sets of every transaction that committed during their
lifetime — except that read-write transactions are not validated
against read-only ones (read-only transactions publish no writes, so
they can never invalidate anybody; they still validate their own reads,
which is the cost the paper observes on read-heavy workloads, §7.1.2).

Contrast with TARDiS commit validation, which only examines transactions
that committed *as children of the selected read state* — a branch-local
check instead of a global one (§7.1.2); and with TARDiS semantics, a
validation failure here is an abort, never a branch.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Set, Tuple

from repro.errors import KeyNotFound, TransactionClosed, ValidationError
from repro.obs.metrics import MetricsRegistry

ACTIVE = "active"
COMMITTED = "committed"
ABORTED = "aborted"


class OCCTransaction:
    """One optimistic transaction: private read/write buffers."""

    _ids = itertools.count(1)

    def __init__(self, store: "OCCStore", start_seq: int):
        self._store = store
        self.txn_id = next(OCCTransaction._ids)
        #: commit sequence number current when this transaction began;
        #: validation covers committers with a later sequence.
        self.start_seq = start_seq
        self.status = ACTIVE
        self.reads: Set[Any] = set()
        self.writes: Dict[Any, Any] = {}

    def get(self, key: Any, default: Any = KeyNotFound) -> Any:
        value = self._store.read(self, key)
        if value is _MISSING:
            if default is KeyNotFound:
                raise KeyNotFound(key)
            return default
        return value

    def put(self, key: Any, value: Any) -> None:
        self._store.write(self, key, value)

    def commit(self) -> None:
        self._store.commit(self)

    def abort(self) -> None:
        self._store.abort(self)


class OCCStore:
    """Single-version KV store with backward OCC validation."""

    def __init__(self) -> None:
        self._records: Dict[Any, Any] = {}
        #: committed write sets: list of (commit_seq, frozenset(keys)).
        self._history: List[Tuple[int, frozenset]] = []
        self._commit_seq = 0
        self._active_starts: Dict[int, int] = {}
        self.commits = 0
        self.aborts = 0
        self.validation_failures = 0
        #: total number of (committed-writer, reader) set checks, for the
        #: cost model — this is OCC's expensive validation phase.
        self.validation_checks = 0
        #: this store's metrics, off until a reader turns them on.
        self.registry = MetricsRegistry(enabled=False)

    def __len__(self) -> int:
        return len(self._records)

    def begin(self) -> OCCTransaction:
        txn = OCCTransaction(self, self._commit_seq)
        self._active_starts[txn.txn_id] = txn.start_seq
        return txn

    def _check(self, txn: OCCTransaction) -> None:
        if txn.status != ACTIVE:
            raise TransactionClosed("transaction is %s" % txn.status)

    def read(self, txn: OCCTransaction, key: Any) -> Any:
        """Read committed state (own writes first); never blocks."""
        self._check(txn)
        txn.reads.add(key)
        if key in txn.writes:
            return txn.writes[key]
        return self._records.get(key, _MISSING)

    def write(self, txn: OCCTransaction, key: Any, value: Any) -> None:
        """Buffer a write; never blocks."""
        self._check(txn)
        txn.writes[key] = value

    def validate(self, txn: OCCTransaction) -> int:
        """Backward validation; returns the number of checks performed.

        Raises :class:`~repro.errors.ValidationError` when a transaction
        that committed after ``txn`` began wrote a key ``txn`` read.
        """
        checks = 0
        for seq, write_set in reversed(self._history):
            if seq <= txn.start_seq:
                break
            checks += 1
            if write_set & txn.reads:
                self.validation_checks += checks
                raise ValidationError(
                    "read set invalidated by concurrent committer (seq %d)" % seq
                )
        self.validation_checks += checks
        return checks

    def commit(self, txn: OCCTransaction) -> None:
        self._check(txn)
        try:
            checks = self.validate(txn)
        except ValidationError:
            txn.status = ABORTED
            self.aborts += 1
            self.validation_failures += 1
            self._active_starts.pop(txn.txn_id, None)
            m = self.registry
            if m.enabled:
                m.inc("baseline_occ_abort_total")
                m.inc("baseline_occ_validation_fail_total")
            raise
        self._records.update(txn.writes)
        if txn.writes:
            # Only read-write transactions enter the validation history:
            # the paper's modification (no validation against read-only).
            self._commit_seq += 1
            self._history.append((self._commit_seq, frozenset(txn.writes)))
        txn.status = COMMITTED
        self.commits += 1
        self._active_starts.pop(txn.txn_id, None)
        m = self.registry
        if m.enabled:
            m.inc("baseline_occ_commit_total")
            m.observe("baseline_occ_validation_checks", checks)
        self._prune_history()

    def abort(self, txn: OCCTransaction) -> None:
        self._check(txn)
        txn.status = ABORTED
        self.aborts += 1
        self._active_starts.pop(txn.txn_id, None)

    def _prune_history(self) -> None:
        """Drop history no active transaction can be validated against."""
        if not self._history:
            return
        floor = min(self._active_starts.values(), default=self._commit_seq)
        if len(self._history) > 64 and self._history[0][0] <= floor:
            self._history = [entry for entry in self._history if entry[0] > floor]


class _Missing:
    def __repr__(self) -> str:  # pragma: no cover
        return "<missing>"


_MISSING = _Missing()
