"""Networking for the Internet-facing UUCS deployment (paper §4).

The server's protocol logic lives in one transport-agnostic
:class:`RequestDispatcher`; :class:`AsyncioServerTransport` puts it on a
socket, one event loop holding thousands of concurrent connections.
"""

from repro.errors import ValidationError
from repro.net.dispatcher import RequestDispatcher
from repro.net.asyncio_server import AsyncioServerTransport

__all__ = [
    "AsyncioServerTransport",
    "RequestDispatcher",
    "default_backend",
    "serve_transport",
]


# Compatibility shim for perfbench/traced.py, which still selects a
# transport by name; delete both functions with its next revision.
def default_backend() -> str:
    """The name of the one server transport."""
    return "asyncio"


def serve_transport(server, backend="asyncio", host="127.0.0.1", port=0, **options):
    """``AsyncioServerTransport(server, host, port, **options)``; any
    ``backend`` other than ``"asyncio"`` is a :class:`ValidationError`."""
    if backend != "asyncio":
        raise ValidationError(
            f"unknown server backend {backend!r} (only 'asyncio' exists)"
        )
    return AsyncioServerTransport(server, host, port, **options)
