"""Client library for the TARDiS network server.

:class:`TardisClient` — blocking sockets, mirrors the in-process API. It
speaks the length-prefixed JSON protocol of :mod:`repro.server.protocol`
(docs/internals.md §12).
"""

from repro.client.client import (
    ClientMergeTransaction,
    ClientTransaction,
    TardisClient,
)

__all__ = [
    "ClientMergeTransaction",
    "ClientTransaction",
    "TardisClient",
]
