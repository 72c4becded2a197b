"""Span tracing: nested timed regions recorded to the event log.

A :class:`Tracer` hands out ``span(...)`` context managers.  Each span
measures wall time (injectable clock), tracks nesting through a
:mod:`contextvars` stack, and on exit emits one ``"span"`` event
carrying the span name, duration, outcome (``ok`` or the exception
type), and its position in the trace tree (ids, trace id, depth).

**Why contextvars, not threading.local.**  The asyncio server transport
serves every connection from one event loop thread; a thread-local
stack would interleave concurrent requests' spans into one bogus
ancestry.  ``ContextVar`` state is copied per :class:`asyncio.Task`, so
each coroutine sees only its own stack, while plain threaded code keeps
the old per-thread behaviour (each thread starts from the default
empty stack).

**Id scheme.**  Span ids are ``"<process-guid>:<seq>"``: a
deterministic per-process guid (a short hash of host and pid — no
randomness is drawn, so enabling tracing can never perturb a seeded
run) and a process-wide monotonically increasing sequence number shared
by every tracer in the process.  Ids from different processes therefore
never collide when their event logs are merged, and ids within a
process stay unique even across many short-lived telemetry hubs (e.g. a
shard worker serving several shards).  Every span also carries the
``trace`` id — the id of its root span — which is what lets
:mod:`repro.telemetry.traces` reassemble one request tree from the
logs of many processes.

**Cross-process propagation.**  :meth:`Span.context` (or
:meth:`Tracer.current_context`) yields a :class:`TraceContext`; its
:meth:`~TraceContext.to_wire` dict travels in a protocol payload or
shard-IPC argument, and the receiving process passes the parsed context
as ``parent_context=`` to its root span, which then records the remote
span as its parent.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import socket
import time
from contextvars import ContextVar
from typing import Callable, Iterator, Mapping

from contextlib import contextmanager

from repro.telemetry.events import EventLog

__all__ = ["Span", "TraceContext", "Tracer", "process_guid"]

#: Process-wide span sequence.  Shared by every Tracer so two telemetry
#: hubs in one process can never mint the same span id; ``count`` is a C
#: iterator, so ``next`` is atomic without a lock.
_SEQ = itertools.count(1)

#: ``(pid, guid)`` memo so :func:`process_guid` costs one ``getpid`` per
#: call.  Keyed by pid rather than computed once at import: a forked
#: shard worker inherits this module's state, and spans it mints must
#: carry *its* guid, not its parent's.
_GUID_CACHE: tuple[int, str] | None = None


def process_guid() -> str:
    """A deterministic 8-hex guid for this process.

    Derived from ``(hostname, pid)`` alone — no clock reads, no
    randomness — so it is stable for the life of the process and
    trivially greppable across merged event logs.  Pid recycling can
    alias two *non-overlapping* processes on one host; merged logs from
    such runs should be assembled separately (or tracers given explicit
    ``guid`` overrides, as the shard engine does).
    """
    global _GUID_CACHE
    pid = os.getpid()
    if _GUID_CACHE is None or _GUID_CACHE[0] != pid:
        raw = f"{socket.gethostname()}:{pid}"
        _GUID_CACHE = (pid, hashlib.blake2s(raw.encode(), digest_size=4).hexdigest())
    return _GUID_CACHE[1]


class TraceContext:
    """The propagatable position of a span: ``(trace_id, span_id)``.

    Immutable and JSON-safe via :meth:`to_wire`/:meth:`from_wire`, the
    wire form being ``{"trace": ..., "span": ...}`` — the exact dict
    carried in protocol payloads under the ``"trace"`` key.
    """

    __slots__ = ("trace_id", "span_id")

    def __init__(self, trace_id: str, span_id: str):
        self.trace_id = str(trace_id)
        self.span_id = str(span_id)

    def to_wire(self) -> dict[str, str]:
        """The JSON-safe dict carried on the wire."""
        return {"trace": self.trace_id, "span": self.span_id}

    @classmethod
    def from_wire(cls, data: object) -> "TraceContext | None":
        """Parse a wire dict; ``None`` for anything malformed.

        Lenient by design: trace context is an observability side
        channel, so a peer sending garbage must degrade to "no parent",
        never to a protocol error.
        """
        if not isinstance(data, Mapping):
            return None
        trace_id = data.get("trace")
        span_id = data.get("span")
        if not isinstance(trace_id, str) or not isinstance(span_id, str):
            return None
        if not trace_id or not span_id:
            return None
        return cls(trace_id, span_id)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TraceContext)
            and self.trace_id == other.trace_id
            and self.span_id == other.span_id
        )

    def __hash__(self) -> int:
        return hash((self.trace_id, self.span_id))

    def __repr__(self) -> str:
        return f"TraceContext(trace={self.trace_id!r}, span={self.span_id!r})"


class Span:
    """One open timed region (created via :meth:`Tracer.span`)."""

    __slots__ = (
        "name", "span_id", "parent_id", "trace_id", "depth", "fields",
        "started",
    )

    def __init__(
        self,
        name: str,
        span_id: str,
        parent_id: str | None,
        trace_id: str,
        depth: int,
        fields: dict[str, object],
        started: float,
    ):
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.trace_id = trace_id
        self.depth = depth
        self.fields = fields
        self.started = started

    @property
    def context(self) -> TraceContext:
        """This span's position, ready to propagate to another process."""
        return TraceContext(self.trace_id, self.span_id)

    def annotate(self, **fields: object) -> None:
        """Attach extra fields to the span's closing event."""
        self.fields.update(fields)


class Tracer:
    """Creates nested spans and records them to an event log."""

    def __init__(
        self,
        events: EventLog,
        clock: Callable[[], float] = time.perf_counter,
        guid: str | None = None,
    ):
        self._events = events
        self._clock = clock
        # None means "this process's guid, resolved per span": a forked
        # worker that inherited this tracer then stamps its own guid.
        self._guid = guid
        # The stack is an immutable tuple: pushing installs a new tuple
        # rather than mutating a shared list, so an asyncio task that
        # inherited its parent context at creation can never corrupt a
        # sibling's view of the stack.
        self._stack: ContextVar[tuple[Span, ...]] = ContextVar(
            f"repro-span-stack-{id(self):x}", default=()
        )

    @property
    def guid(self) -> str:
        """The guid namespacing this tracer's span ids."""
        return self._guid if self._guid is not None else process_guid()

    @property
    def active(self) -> Span | None:
        """The innermost open span in this context, if any."""
        stack = self._stack.get()
        return stack[-1] if stack else None

    def current_context(self) -> TraceContext | None:
        """The active span's :class:`TraceContext` (None outside a span)."""
        span = self.active
        return span.context if span is not None else None

    @contextmanager
    def span(
        self,
        name: str,
        parent_context: TraceContext | None = None,
        **fields: object,
    ) -> Iterator[Span]:
        """Open a timed region; emits a ``"span"`` event when it closes.

        The event records ``span`` (name), ``id``, ``parent`` (enclosing
        span id or None), ``trace`` (root span id of the trace), ``depth``
        (local nesting), ``duration_s``, ``outcome`` (``"ok"`` or
        ``"error:<ExcType>"``), plus any fields passed here or added via
        :meth:`Span.annotate`.  Exceptions propagate unchanged.

        ``parent_context`` grafts this span under a span from *another*
        process (the client span that carried the request, the study
        parent that spawned this shard).  It only applies when no local
        span is open — a remote parent cannot splice into the middle of
        a local stack.
        """
        span_id = f"{self.guid}:{next(_SEQ)}"
        stack = self._stack.get()
        parent = stack[-1] if stack else None
        if parent is not None:
            parent_id = parent.span_id
            trace_id = parent.trace_id
        elif parent_context is not None:
            parent_id = parent_context.span_id
            trace_id = parent_context.trace_id
        else:
            # A root span starts a new trace named after itself.
            parent_id = None
            trace_id = span_id
        span = Span(
            name=name,
            span_id=span_id,
            parent_id=parent_id,
            trace_id=trace_id,
            depth=len(stack),
            fields=dict(fields),
            started=self._clock(),
        )
        token = self._stack.set(stack + (span,))
        outcome = "ok"
        try:
            yield span
        except BaseException as exc:
            outcome = f"error:{type(exc).__name__}"
            raise
        finally:
            self._stack.reset(token)
            self._events.emit(
                "span",
                span=span.name,
                id=span.span_id,
                parent=span.parent_id,
                trace=span.trace_id,
                depth=span.depth,
                duration_s=self._clock() - span.started,
                outcome=outcome,
                **span.fields,
            )
