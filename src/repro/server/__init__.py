"""The UUCS server (paper §2, Figure 1).

The server holds the master testcase and result stores, registers clients
(assigning each "a globally unique identifier" from its hardware/software
snapshot), and answers client-initiated hot syncs: new testcases flow down
as a growing random sample, new results flow up.
"""

from repro.server.protocol import (
    PROTOCOL_VERSION,
    Message,
    decode_message,
    encode_message,
)
from repro.server.registry import ClientRecord, ClientRegistry
from repro.server.sampling import GrowingSampler
from repro.server.server import (
    InProcessTransport,
    TCPClientTransport,
    UUCSServer,
)

__all__ = [
    "PROTOCOL_VERSION",
    "ClientRecord",
    "ClientRegistry",
    "GrowingSampler",
    "InProcessTransport",
    "Message",
    "TCPClientTransport",
    "UUCSServer",
    "decode_message",
    "encode_message",
]
