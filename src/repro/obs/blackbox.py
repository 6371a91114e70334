"""Flight recorder: an always-on bounded ring buffer of recent events.

Production postmortems need the events *leading up to* a failure, not
just the failure itself — by the time a request has timed out, the
interesting history (queue depth climbing, batches slowing, residuals
plateauing) has already scrolled past.  The flight recorder keeps the
last ``capacity`` events in a lock-cheap ring buffer that is always on:
recording is one dict build and one ``deque.append`` (atomic in
CPython), cheap enough that the serve hot path feeds it unconditionally
— unlike the tracer and metrics registry, there is no enabled flag to
forget.

On request timeout, solver failure, or a detected convergence stall,
the serve tier snapshots the ring (plus the trace context, the metrics
registry and the recent span forest) into a dump — the "black box" a
postmortem starts from, inspectable with ``repro blackbox <file>``.  A
dump is a ``repro.telemetry/v1`` trace document whose ``meta`` names
the incident and whose top-level ``events`` list is the ring, so every
trace reader (``repro perf diff``, the critical path, Perfetto export)
reads it too.
"""

from __future__ import annotations

import pathlib
import threading
import time
from collections import deque
from datetime import datetime, timezone
from typing import Any

from ..telemetry.export import SCHEMA, SCHEMA_VERSION, write_document

#: default ring capacity; at ~10 events per request this holds the last
#: ~50 requests of lifecycle history
DEFAULT_CAPACITY = 512

#: root spans included in a dump (bounds dump size on long-lived tracers)
MAX_DUMP_SPANS = 16


def iso_ts(ts: float | None = None) -> str:
    """ISO-8601 UTC rendering of an epoch timestamp (second precision
    is not enough for solve latencies; keep microseconds)."""
    dt = datetime.fromtimestamp(ts if ts is not None else time.time(), timezone.utc)
    return dt.isoformat().replace("+00:00", "Z")


class FlightRecorder:
    """Bounded ring buffer of recent observability events.

    ``record`` is the hot-path entry: it must stay allocation-light and
    lock-free (a ``deque`` with ``maxlen`` drops the oldest entry
    atomically).  ``snapshot`` takes the lock only to get a consistent
    copy for dumping.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._ring: deque[dict] = deque(maxlen=self.capacity)
        self._lock = threading.Lock()
        self._recorded = 0

    def record(self, kind: str, **fields: Any) -> None:
        """Append one event; oldest events fall off past ``capacity``."""
        event = {"ts": time.time(), "kind": kind}
        event.update(fields)
        self._ring.append(event)  # atomic; maxlen evicts the oldest
        self._recorded += 1

    @property
    def recorded(self) -> int:
        """Total events ever recorded (>= len(snapshot()))."""
        return self._recorded

    def snapshot(self, last: int | None = None) -> list[dict]:
        """Consistent copy of the ring, oldest first (tail with ``last``)."""
        with self._lock:
            events = list(self._ring)
        if last is not None:
            events = events[-last:]
        return [dict(e) for e in events]

    def clear(self) -> None:
        with self._lock:
            self._ring.clear()
            self._recorded = 0


_GLOBAL = FlightRecorder()


def get_recorder() -> FlightRecorder:
    """The process-wide flight recorder every event stream feeds."""
    return _GLOBAL


# ----------------------------------------------------------------------
# dump assembly, round-trip, rendering
# ----------------------------------------------------------------------
def blackbox_document(
    reason: str,
    trace_id: str | None = None,
    recorder: FlightRecorder | None = None,
    registry=None,
    tracer=None,
    meta: dict[str, Any] | None = None,
) -> dict:
    """Assemble one postmortem dump: a ``repro.telemetry/v1`` document.

    Its spans are the most recent finished roots (bounded at
    :data:`MAX_DUMP_SPANS`), its ``events`` the flight-recorder ring,
    and its ``meta`` the caller's plus the triggering ``reason``,
    ``trace_id``, ``ts``/``ts_iso`` and ``events_recorded`` —
    everything a postmortem needs to reconnect one request's slog
    lifecycle, spans and convergence behavior.
    """
    from ..telemetry.metrics import get_registry
    from ..telemetry.tracer import get_tracer

    recorder = recorder if recorder is not None else get_recorder()
    registry = registry if registry is not None else get_registry()
    tracer = tracer if tracer is not None else get_tracer()
    now = time.time()
    return {
        "schema": SCHEMA,
        "version": SCHEMA_VERSION,
        "meta": {
            **(meta or {}),
            "reason": reason,
            "trace_id": trace_id,
            "ts": now,
            "ts_iso": iso_ts(now),
            "events_recorded": recorder.recorded,
        },
        "spans": [root.to_dict() for root in tracer.recent_roots(MAX_DUMP_SPANS)],
        "metrics": registry.snapshot(),
        "events": recorder.snapshot(),
    }


def is_blackbox(doc: dict) -> bool:
    """Whether a (validated) trace document is a postmortem dump."""
    return isinstance(doc.get("events"), list) and "reason" in (doc.get("meta") or {})


def write_blackbox(
    directory: str | pathlib.Path,
    doc: dict,
) -> pathlib.Path:
    """Write one dump into ``directory`` with a self-describing name."""
    meta = doc["meta"]
    stamp = iso_ts(meta["ts"]).replace(":", "").replace("-", "").replace(".", "")
    trace8 = (meta.get("trace_id") or "notrace")[:8]
    name = f"blackbox-{stamp}-{meta['reason']}-{trace8}.json"
    return write_document(pathlib.Path(directory) / name, doc)


def render_blackbox(doc: dict, last_events: int = 20) -> str:
    """Human-readable postmortem summary (the ``repro blackbox`` view)."""
    meta = dict(doc["meta"])
    lines = [
        f"blackbox dump — reason: {meta.pop('reason')}  at {meta.pop('ts_iso', '?')}",
        f"trace_id: {meta.pop('trace_id', None) or '(none)'}",
        f"events: {len(doc['events'])} in ring "
        f"({meta.pop('events_recorded', len(doc['events']))} recorded), "
        f"spans: {len(doc['spans'])} roots",
    ]
    meta.pop("ts", None)
    if meta:
        lines.append("meta: " + ", ".join(f"{k}={v}" for k, v in sorted(meta.items())))
    counters = doc.get("metrics", {}).get("counter", {})
    interesting = {
        name: sum(s["value"] for s in series)
        for name, series in sorted(counters.items())
        if name.startswith(("serve.", "mg.", "verify."))
    }
    if interesting:
        lines.append(
            "counters: "
            + ", ".join(f"{k}={v:g}" for k, v in interesting.items())
        )
    lines.append("")
    lines.append(f"last {min(last_events, len(doc['events']))} events:")
    for e in doc["events"][-last_events:]:
        ts = iso_ts(e["ts"]) if isinstance(e.get("ts"), (int, float)) else "?"
        fields = ", ".join(
            f"{k}={v}" for k, v in sorted(e.items()) if k not in ("ts", "kind")
        )
        lines.append(f"  {ts}  {e.get('kind', '?'):<12} {fields}")
    return "\n".join(lines)
