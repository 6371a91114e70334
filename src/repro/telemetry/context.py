"""Request-scoped trace context: W3C-style ids, thread-local activation.

One :class:`TraceContext` identifies one end-to-end request: the serve
tier generates a ``trace_id`` at ingress (:meth:`SolveService.submit`)
and every downstream observation — spans, ``slog`` lifecycle records,
flight-recorder events, metric exemplars — carries it, so a timed-out
or stalled solve can be reassembled from any one of those streams.

The context is *thread-local* because the serve tier hops threads: a
worker takes a batch off the queue and calls :func:`activate` with the
batch head's context before running the solve, so spans opened
on the worker thread inherit the right ``trace_id`` without any solver
knowing about requests.

Id format follows W3C Trace Context / OTLP: 16-byte (32 hex digit)
trace ids, 8-byte (16 hex digit) span ids, generated from ``os.urandom``
(no seedable RNG — ids must be unique across threads and processes,
not reproducible).
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator


def new_trace_id() -> str:
    """A fresh 32-hex-digit trace id (16 random bytes)."""
    return os.urandom(16).hex()


def new_span_id() -> str:
    """A fresh 16-hex-digit span id (8 random bytes)."""
    return os.urandom(8).hex()


@dataclass
class TraceContext:
    """One request's identity, threaded through every telemetry stream.

    ``attrs`` carries small request-scoped facts (request id, operator
    name) that exporters may attach to root spans and log records.
    """

    trace_id: str = field(default_factory=new_trace_id)
    attrs: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"trace_id": self.trace_id, "attrs": dict(self.attrs)}


_local = threading.local()


def current_trace() -> TraceContext | None:
    """The trace context active on this thread, if any."""
    return getattr(_local, "ctx", None)


def current_trace_id() -> str | None:
    """Shorthand: the active trace id, or None outside any request."""
    ctx = current_trace()
    return ctx.trace_id if ctx is not None else None


@contextmanager
def activate(ctx: TraceContext | None) -> Iterator[TraceContext | None]:
    """Make ``ctx`` the thread's active trace context for the block.

    Nests correctly (the previous context is restored on exit) and
    tolerates ``None`` (the block runs context-free), so call sites can
    pass through whatever they were handed.
    """
    prev = getattr(_local, "ctx", None)
    _local.ctx = ctx
    try:
        yield ctx
    finally:
        _local.ctx = prev
