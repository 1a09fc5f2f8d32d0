"""The TARDiS network front-end: wire protocol and asyncio TCP server.

``tardis serve`` (see :mod:`repro.tools.cli`) wraps
:class:`TardisServer` with signal handling and a shutdown report; tests
and in-process demos use :func:`start_in_thread`. The protocol is
specified in docs/internals.md §12; §12.3 maps the three modules
(protocol: framing, catalogues, client channel, error table · handlers:
executor thread, socket-free · server: loop-thread transport).
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
from repro.server.server import ServerThread, TardisServer, start_in_thread

__all__ = [
    "ERROR_CODES",
    "MAX_FRAME",
    "OPS",
    "PROTOCOL_VERSION",
    "FrameDecoder",
    "encode_frame",
    "error_response",
    "ok_response",
    "ServerThread",
    "TardisServer",
    "start_in_thread",
]
