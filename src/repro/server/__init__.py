"""The TARDiS network front-end: wire protocol and TCP server.

``tardis serve`` (see :mod:`repro.tools.cli`) wraps
:class:`TardisServer` with signal handling and a shutdown report; tests
and in-process demos call ``TardisServer(...).start()`` and later its
``shutdown()``. The protocol is specified in docs/internals.md §12; §12.3
maps the three modules (protocol: framing, catalogues, client channel,
error table · handlers: what a request runs, socket-free · server: the
store thread that accepts and serves every socket, and the watchdog
thread that answers ``TIMEOUT``).
"""

from repro.server.protocol import (
    ERROR_CODES,
    MAX_FRAME,
    OPS,
    PROTOCOL_VERSION,
    FrameDecoder,
    encode_frame,
    error_response,
    ok_response,
)
from repro.server.server import TardisServer

__all__ = [
    "ERROR_CODES",
    "MAX_FRAME",
    "OPS",
    "PROTOCOL_VERSION",
    "FrameDecoder",
    "encode_frame",
    "error_response",
    "ok_response",
    "TardisServer",
]
