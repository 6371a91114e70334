"""Hierarchical span tracer.

A *span* is a named, timed region of execution; spans nest by call
order, so the finished trace is a forest whose shape mirrors the solve
recursion (outer GCR → K-cycle per level → smoother / restrict /
prolong / coarse-solve → halo exchange).  Each span records a monotonic
duration (``time.perf_counter``), the wall-clock instant it started
(``time.time``), and arbitrary key/value attributes (most importantly
``level``); the numerics' spans are opened by
:mod:`repro.telemetry.boundary`.

Design constraints, in order:

1. **Near-zero overhead when disabled.**  ``Tracer.span`` on a disabled
   tracer returns one shared no-op context manager: a single attribute
   test, no allocation, no timestamp.
2. **Thread safety.**  The open-span stack is thread-local (each thread
   traces its own call tree); finished root spans are appended to a
   shared list under a lock.
3. **No global mutable surprises.**  The module-level tracer is the one
   the boundary table and the serving layers record into, but
   :class:`Tracer` instances are independent and fully testable in
   isolation.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Iterator

from .context import current_trace_id, new_span_id, new_trace_id


class _NullSpan:
    """Shared do-nothing span returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def annotate(self, **attrs) -> "_NullSpan":
        return self

    def attribute(self, flops: float = 0.0, bytes: float = 0.0) -> "_NullSpan":
        return self

    def event(self, name: str, severity: str = "info", **attrs) -> "_NullSpan":
        return self


_NULL_SPAN = _NullSpan()


class Span:
    """One timed region; also its own context manager.

    Spans are created by :meth:`Tracer.span` and must be used as
    ``with`` blocks; entering records the timestamps and pushes the
    span onto the tracer's (thread-local) open stack, exiting pops it
    and attaches it to its parent (or to the tracer's finished roots).
    """

    #: per-span cap on recorded events; convergence histories longer than
    #: this are subsampled by the emitters, anything else is dropped and
    #: counted in ``dropped_events``
    MAX_EVENTS = 256

    __slots__ = (
        "name",
        "attrs",
        "children",
        "start_s",
        "end_s",
        "wall_start",
        "trace_id",
        "span_id",
        "parent_id",
        "events",
        "dropped_events",
        "_tracer",
    )

    def __init__(self, name: str, attrs: dict[str, Any], tracer: "Tracer"):
        self.name = name
        self.attrs = attrs
        self.children: list[Span] = []
        self.start_s: float | None = None
        self.end_s: float | None = None
        self.wall_start: float | None = None
        self.trace_id: str = ""
        self.span_id: str = ""
        self.parent_id: str | None = None
        self.events: list[dict] = []
        self.dropped_events = 0
        self._tracer = tracer

    # -- context manager ------------------------------------------------
    def __enter__(self) -> "Span":
        self.wall_start = time.time()
        self.start_s = time.perf_counter()
        parent = self._tracer.current()
        if parent is not None:
            self.trace_id = parent.trace_id
            self.parent_id = parent.span_id
        else:
            # root span: join the thread's active request trace if one
            # is open (serve propagation), otherwise start a new trace
            self.trace_id = current_trace_id() or new_trace_id()
        self.span_id = new_span_id()
        self._tracer._push(self)
        return self

    def __exit__(self, *exc) -> bool:
        self.end_s = time.perf_counter()
        self._tracer._pop(self)
        return False

    # -- API ------------------------------------------------------------
    def annotate(self, **attrs) -> "Span":
        """Attach attributes to an open span (e.g. iteration counts)."""
        self.attrs.update(attrs)
        return self

    def attribute(self, flops: float = 0.0, bytes: float = 0.0) -> "Span":
        """Book a floating-point/memory-traffic cost onto this span.

        Costs accumulate across calls and describe only work performed
        *directly* in this span (child spans book their own), so the
        perf layer can pair them with ``self_time_s`` to derive achieved
        GFLOPS, GB/s, arithmetic intensity and roofline fraction
        (:mod:`repro.perf.attribution`).
        """
        if flops:
            self.attrs["flops"] = self.attrs.get("flops", 0.0) + float(flops)
        if bytes:
            self.attrs["bytes"] = self.attrs.get("bytes", 0.0) + float(bytes)
        return self

    def event(self, name: str, severity: str = "info", **attrs) -> "Span":
        """Append one timestamped event to this span's bounded series.

        Events are the per-iteration stream the per-span attributes
        cannot carry: residual norms, stall/plateau verdicts, phase
        transitions.  The series is bounded at :attr:`MAX_EVENTS`;
        overflow is dropped (never reallocated) and tallied in
        ``dropped_events``, so a runaway solver cannot turn the tracer
        into a memory leak.
        """
        if len(self.events) >= self.MAX_EVENTS:
            self.dropped_events += 1
            return self
        t_s = (
            time.perf_counter() - self.start_s if self.start_s is not None else 0.0
        )
        record = {"name": name, "t_s": t_s, "severity": severity}
        if attrs:
            record["attrs"] = attrs
        self.events.append(record)
        return self

    @property
    def duration_s(self) -> float:
        if self.start_s is None or self.end_s is None:
            return 0.0
        return self.end_s - self.start_s

    def self_time_s(self) -> float:
        """Duration minus the time covered by direct children."""
        return self.duration_s - sum(c.duration_s for c in self.children)

    def walk(self) -> Iterator["Span"]:
        """Depth-first iteration over this span and its descendants."""
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self) -> dict:
        """JSON-serializable form (schema ``repro.telemetry/v1``).

        Trace-context ids and the event series are additive fields of
        the v1 schema: older readers that only walk
        name/duration/attrs/children keep working unchanged.
        """
        out = {
            "name": self.name,
            "wall_start": self.wall_start,
            "duration_s": self.duration_s,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "attrs": dict(self.attrs),
            "children": [c.to_dict() for c in self.children],
        }
        if self.events:
            out["events"] = [dict(e) for e in self.events]
        if self.dropped_events:
            out["dropped_events"] = self.dropped_events
        return out

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, duration_s={self.duration_s:.6f}, "
            f"children={len(self.children)}, attrs={self.attrs})"
        )


class Tracer:
    """A span factory plus the forest of finished root spans."""

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self.roots: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    # -- hot path -------------------------------------------------------
    def span(self, name: str, **attrs):
        """Open a span; with tracing disabled this is one attribute test."""
        if not self.enabled:
            return _NULL_SPAN
        return Span(name, attrs, self)

    # -- stack maintenance (called by Span) -----------------------------
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _push(self, span: Span) -> None:
        self._stack().append(span)

    def _pop(self, span: Span) -> None:
        stack = self._stack()
        # tolerate disable-while-open: only pop what we actually pushed
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:
            stack.remove(span)
        if stack:
            stack[-1].children.append(span)
        else:
            with self._lock:
                self.roots.append(span)

    # -- inspection -----------------------------------------------------
    def current(self) -> Span | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def level(self) -> int | None:
        """The ``level`` of the innermost open span that carries one."""
        for span in reversed(self._stack()):
            if "level" in span.attrs:
                return span.attrs["level"]
        return None

    def recent_roots(self, n: int) -> list[Span]:
        """The last ``n`` finished root spans (for bounded dumps)."""
        with self._lock:
            return list(self.roots[-n:]) if n > 0 else []

    def iter_spans(self) -> Iterator[Span]:
        """Depth-first iteration over every finished span."""
        with self._lock:
            roots = list(self.roots)
        for root in roots:
            yield from root.walk()

    def find(self, name: str) -> list[Span]:
        return [s for s in self.iter_spans() if s.name == name]

    def total_s(self, name: str) -> float:
        return sum(s.duration_s for s in self.find(name))

    def reset(self) -> None:
        with self._lock:
            self.roots.clear()
        self._local = threading.local()


_GLOBAL = Tracer(enabled=False)


def get_tracer() -> Tracer:
    """The process-wide tracer traced solves and the serving layers report into."""
    return _GLOBAL


def span(name: str, **attrs):
    """Open a span on the global tracer."""
    return _GLOBAL.span(name, **attrs)
