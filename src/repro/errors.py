"""Exception hierarchy for the TARDiS reproduction.

Every error raised by the library derives from :class:`TardisError`, so
applications can catch a single base class. Errors are split along the
paper's fault lines: transaction lifecycle (§6.1), merge mode (§6.2),
garbage collection (§6.3), storage (§4), and replication (§6.4).
"""

from __future__ import annotations


class TardisError(Exception):
    """Base class for every error raised by this library."""


class TransactionError(TardisError):
    """Base class for transaction lifecycle errors."""


class TransactionAborted(TransactionError):
    """The transaction could not commit.

    Raised when no state satisfies the transaction's end constraint
    (§6.1.2), when the read state was garbage collected under the
    transaction (§6.4, optimistic GC), or when the user calls ``abort``.
    """

    def __init__(self, reason: str = "transaction aborted"):
        super().__init__(reason)
        self.reason = reason


class BeginError(TransactionError):
    """No state in the DAG satisfies the begin constraint (§6.1.1)."""


class TransactionClosed(TransactionError):
    """An operation was issued on a committed or aborted transaction."""


class ReadOnlyViolation(TransactionError):
    """A write was issued inside a transaction opened read-only."""


class MergeError(TardisError):
    """Base class for merge-mode errors (§6.2)."""


class MultipleValuesError(MergeError):
    """``get`` found conflicting values for a key across merged branches.

    The application should resolve the conflict explicitly with
    ``get_for_id``/``find_conflict_writes`` and ``put`` the merged value.
    """

    def __init__(self, key, candidates):
        super().__init__(
            "key %r has %d conflicting values across merged branches"
            % (key, len(candidates))
        )
        self.key = key
        #: list of (state_id, value) pairs, one per maximal version.
        self.candidates = candidates


class StorageError(TardisError):
    """Base class for storage-layer errors."""


class KeyNotFound(StorageError):
    """The key has no visible version on the selected branch."""

    def __init__(self, key):
        super().__init__("key not found: %r" % (key,))
        self.key = key


class CorruptLogError(StorageError):
    """The commit log failed an integrity check during recovery (§6.5)."""


class ShardError(StorageError):
    """Base class for shard-plane errors (router and shard workers)."""


class ShardUnavailableError(ShardError):
    """A shard's backing worker is dead or unresponsive.

    Raised by any request routed to a dead shard, or to one that
    exceeds the worker timeout. ``shard`` is the shard index.
    """

    def __init__(self, shard, reason=""):
        super().__init__(
            "shard %r unavailable%s" % (shard, ": " + reason if reason else "")
        )
        self.shard = shard
        self.reason = reason


class CrossShardAbort(TransactionAborted):
    """Typed abort: a sharded commit failed to install, and its state
    was removed from the DAG.

    Subclasses :class:`TransactionAborted` so retry loops written for
    ordinary aborts handle worker failures unchanged, while the type
    and ``shard`` attribute keep the cause observable (§6.4).
    """

    def __init__(self, shard, reason="cross-shard commit aborted"):
        super().__init__(reason)
        self.shard = shard


class GarbageCollectedError(TardisError):
    """A state needed by the operation was garbage collected (§6.3-6.4)."""

    def __init__(self, state_id):
        super().__init__("state %r was garbage collected" % (state_id,))
        self.state_id = state_id


class ReplicationError(TardisError):
    """Base class for replication errors (§6.4)."""


class UnknownSiteError(ReplicationError):
    """A message was addressed to a site the cluster does not know."""


class NetworkError(TardisError):
    """Base class for the network front-end (``server/`` and ``client/``)."""


class ProtocolError(NetworkError):
    """A wire-protocol frame violated the framing rules (bad length
    header, non-JSON payload, non-object document)."""


class FrameTooLarge(ProtocolError):
    """A frame's declared payload length exceeded the codec's cap."""

    def __init__(self, size, limit):
        super().__init__("frame of %d bytes exceeds the %d-byte cap" % (size, limit))
        self.size = size
        self.limit = limit


class ServerError(NetworkError):
    """An error response from the TARDiS server, carrying its wire code.

    ``code`` is one of :data:`repro.server.protocol.ERROR_CODES`; the
    client library re-raises :class:`TransactionAborted` for the
    ``TXN_ABORTED`` code so application retry loops work unchanged
    against the in-process and the networked store.
    """

    def __init__(self, code, message=""):
        super().__init__("%s: %s" % (code, message) if message else code)
        self.code = code
        self.message = message


class DeadlockError(TardisError):
    """The lock manager detected a deadlock (baseline 2PL store only)."""

    def __init__(self, txn_id, cycle=None):
        super().__init__("deadlock detected for transaction %r" % (txn_id,))
        self.txn_id = txn_id
        self.cycle = cycle or []


class ValidationError(TardisError):
    """OCC backward validation failed (baseline OCC store only)."""
