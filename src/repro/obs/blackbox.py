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
registry and the recent span forest) into a ``repro.blackbox/v1`` JSON
dump — the "black box" a postmortem starts from, inspectable with
``repro blackbox <file>``.
"""

from __future__ import annotations

import json
import pathlib
import threading
import time
from collections import deque
from datetime import datetime, timezone
from typing import Any

BLACKBOX_SCHEMA = "repro.blackbox/v1"
BLACKBOX_VERSION = 1

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
    """Assemble one ``repro.blackbox/v1`` postmortem document.

    Bundles the flight-recorder ring, the metrics-registry snapshot and
    the most recent finished root spans (bounded at
    :data:`MAX_DUMP_SPANS`) under the triggering ``reason`` and
    ``trace_id`` — everything a postmortem needs to reconnect one
    request's slog lifecycle, spans and convergence behavior.
    """
    from ..telemetry.metrics import get_registry
    from ..telemetry.tracer import get_tracer

    recorder = recorder if recorder is not None else get_recorder()
    registry = registry if registry is not None else get_registry()
    tracer = tracer if tracer is not None else get_tracer()
    now = time.time()
    roots = tracer.recent_roots(MAX_DUMP_SPANS)
    return {
        "schema": BLACKBOX_SCHEMA,
        "version": BLACKBOX_VERSION,
        "reason": reason,
        "ts": now,
        "ts_iso": iso_ts(now),
        "trace_id": trace_id,
        "events": recorder.snapshot(),
        "events_recorded": recorder.recorded,
        "spans": [root.to_dict() for root in roots],
        "metrics": registry.snapshot(),
        "meta": dict(meta or {}),
    }


def validate_blackbox(doc: dict) -> dict:
    """Check the dump shape; returns ``doc`` for chaining."""
    if not isinstance(doc, dict):
        raise ValueError("blackbox document must be a mapping")
    if doc.get("schema") != BLACKBOX_SCHEMA:
        raise ValueError(f"unknown blackbox schema {doc.get('schema')!r}")
    if doc.get("version") != BLACKBOX_VERSION:
        raise ValueError(f"unsupported blackbox version {doc.get('version')!r}")
    for key, typ in (("reason", str), ("events", list), ("spans", list),
                     ("metrics", dict)):
        if not isinstance(doc.get(key), typ):
            raise ValueError(f"blackbox document missing {key!r}")
    return doc


def write_blackbox(
    directory: str | pathlib.Path,
    doc: dict,
) -> pathlib.Path:
    """Write one dump into ``directory`` with a self-describing name."""
    out_dir = pathlib.Path(directory)
    out_dir.mkdir(parents=True, exist_ok=True)
    stamp = iso_ts(doc["ts"]).replace(":", "").replace("-", "").replace(".", "")
    trace8 = (doc.get("trace_id") or "notrace")[:8]
    path = out_dir / f"blackbox-{stamp}-{doc['reason']}-{trace8}.json"
    path.write_text(json.dumps(doc, indent=1, sort_keys=True, default=str) + "\n")
    return path


def load_blackbox(path: str | pathlib.Path) -> dict:
    """Read and validate a dump written by :func:`write_blackbox`."""
    return validate_blackbox(json.loads(pathlib.Path(path).read_text()))


def render_blackbox(doc: dict, last_events: int = 20) -> str:
    """Human-readable postmortem summary (the ``repro blackbox`` view)."""
    lines = [
        f"blackbox dump — reason: {doc['reason']}  at {doc.get('ts_iso', '?')}",
        f"trace_id: {doc.get('trace_id') or '(none)'}",
        f"events: {len(doc['events'])} in ring "
        f"({doc.get('events_recorded', len(doc['events']))} recorded), "
        f"spans: {len(doc['spans'])} roots",
    ]
    meta = doc.get("meta") or {}
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
