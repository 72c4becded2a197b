"""In-memory span recorder for the benchmark's traced run.

Spans are recorded from the benchmark's own files by wrapping the public
functions each layer exposes (``Tracer.patch``); nothing under ``src/``
is edited.  Every span is ``(name, start, end, parent, thread)``; the
parent is the innermost span open on the same thread when it began.  A
layer's self time is its span durations minus the time its direct child
spans cover.  Spans stay in memory until :meth:`Tracer.dump` writes them
out at the end of the run.
"""

from __future__ import annotations

import contextlib
import functools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        #: Each entry is ``[name, start, end, parent_index, thread_id]``.
        self.spans: list[list] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        span = [name, time.perf_counter(), 0.0, parent, threading.get_ident()]
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack().pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A context manager recording one span called ``name``."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def inside(self, name: str) -> bool:
        """Whether a span called ``name`` is open on this thread."""
        return any(self.spans[i][0] == name for i in self._stack())

    def wrap(self, fn, name: str, when=None):
        """``fn`` recording a span per call (only while ``when()`` holds)."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if when is not None and not when():
                return fn(*args, **kwargs)
            index = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        return traced

    def wrap_iter(self, fn, name: str, when=None):
        """Like :meth:`wrap` for a generator function: one span per item."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if when is not None and not when():
                yield from fn(*args, **kwargs)
                return
            inner = fn(*args, **kwargs)
            while True:
                index = tracer._open(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer._close(index)
                yield item

        return traced

    def patch(self, owner, attr: str, name: str, when=None, iterator=False):
        """Replace ``owner.attr`` by a traced wrapper until :meth:`restore`.

        ``owner`` is the module or class the caller looks the name up in,
        so a function imported by name is patched in the importing module.
        """
        if isinstance(owner, type):
            own = attr in owner.__dict__
            original = next(k.__dict__[attr] for k in owner.__mro__ if attr in k.__dict__)
        else:
            own, original = True, getattr(owner, attr)
        fn, kind = original, None
        if isinstance(original, (classmethod, staticmethod)):
            fn, kind = original.__func__, type(original)
        wrapper = (self.wrap_iter if iterator else self.wrap)(fn, name, when)
        setattr(owner, attr, kind(wrapper) if kind else wrapper)
        self._patches.append((owner, attr, original if own else None))

    def restore(self) -> None:
        """Undo every :meth:`patch`, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, minus the time of direct children."""
        totals: dict[str, float] = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            duration = end - start
            totals[name] += duration
            if parent >= 0:
                totals[self.spans[parent][0]] -= duration
        return dict(totals)

    def totals(self) -> dict[str, float]:
        """Inclusive seconds per span name."""
        totals: dict[str, float] = defaultdict(float)
        for name, start, end, _, _ in self.spans:
            totals[name] += end - start
        return dict(totals)

    def dump(self, path: Path) -> None:
        """Write every span as one JSON line (index order)."""
        with open(path, "w") as fh:
            for index, (name, start, end, parent, thread) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": index, "name": name, "start": start, "end": end,
                    "parent": parent, "thread": thread,
                }) + "\n")
