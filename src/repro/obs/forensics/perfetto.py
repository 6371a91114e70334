"""Chrome/Perfetto trace-event export of ``repro.telemetry/v1`` traces.

Emits the JSON-object trace-event format (``{"traceEvents": [...]}``)
that ui.perfetto.dev and ``chrome://tracing`` open directly:

* one **process track per shard** — the ``shard`` span attribute
  (stamped by the serve tier when a :class:`~repro.serve.ServeConfig`
  carries a label, i.e. per fleet node), inherited from the nearest
  ancestor, defaulting to a single ``repro`` track for local solves;
* one **thread track per multigrid level** — the ``level`` attribute,
  inherited exactly like the per-level aggregation, so the timeline
  reads as the paper's Figure 4 with real time on the x-axis;
* ``"X"`` complete events for spans (microsecond ``ts``/``dur`` from
  the recorded wall-clock start and monotonic duration), with all span
  attributes as ``args``;
* ``"i"`` thread-scoped instant events for the span event streams
  (iteration residuals, plateau/stall verdicts), so convergence
  behavior is visible on the same timeline.

Child intervals are clamped into their parent's interval before
emission: the wall-clock start comes from ``time.time`` while the
duration comes from ``time.perf_counter``, so naive conversion could
leak a child a few microseconds outside its parent and break the
viewer's nesting.  :func:`perfetto_document` also accepts a *list* of
documents and stitches them onto one timeline (fleet runs: one trace
per shard, cross-shard ``trace_id``s preserved in the args).
"""

from __future__ import annotations

import pathlib
from typing import Any, Iterable

from ...telemetry.export import walk, write_document

#: fallback process name when no span carries a shard attribute
DEFAULT_TRACK = "repro"


def _json_safe(value: Any) -> Any:
    """Args must serialize; anything exotic is stringified."""
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    return str(value)


def _collect_tracks(docs: list[dict]) -> tuple[dict[str, int], dict[int, int]]:
    """Stable pid per shard name and tid per level across all documents."""
    roots = [root for doc in docs for root in doc.get("spans", [])]
    levels = {level for _, level in walk(roots)} or {0}
    # the inherited shard of every span is an explicit one, or the
    # default track for spans under a root that names none
    shards = {
        str(span["attrs"]["shard"])
        for span, _ in walk(roots)
        if "shard" in span.get("attrs", {})
    }
    if not shards or any("shard" not in root.get("attrs", {}) for root in roots):
        shards.add(DEFAULT_TRACK)
    pid_of = {name: i + 1 for i, name in enumerate(sorted(shards))}
    tid_of = {level: i + 1 for i, level in enumerate(sorted(levels))}
    return pid_of, tid_of


def perfetto_document(doc_or_docs: dict | Iterable[dict]) -> dict:
    """Convert one or many v1 trace documents into a trace-event object.

    A list stitches every document onto one shared timeline (the fleet
    case: each shard exports its own trace, the router's ``trace_id``
    joins them and the ``shard`` attribute separates the tracks).
    """
    docs = (
        [doc_or_docs] if isinstance(doc_or_docs, dict) else list(doc_or_docs)
    )
    pid_of, tid_of = _collect_tracks(docs)

    # normalize the timeline to the earliest recorded wall start
    starts = [
        span.get("wall_start")
        for doc in docs
        for span in doc.get("spans", [])
        if span.get("wall_start")
    ]
    t0 = min(starts) if starts else 0.0

    events: list[dict] = []

    def emit(span: dict, shard: str, level: int, lo_us: int, hi_us: int) -> None:
        attrs = span.get("attrs", {})
        shard = str(attrs.get("shard", shard))
        level = int(attrs.get("level", level))
        wall = span.get("wall_start")
        ts = int((wall - t0) * 1e6) if wall else lo_us
        dur = max(int(span["duration_s"] * 1e6), 0)
        # clamp into the parent interval so nesting survives the mixed
        # wall-clock/monotonic timestamp sources
        ts = min(max(ts, lo_us), hi_us)
        dur = min(dur, hi_us - ts)
        args = {k: _json_safe(v) for k, v in attrs.items()}
        if span.get("trace_id"):
            args["trace_id"] = span["trace_id"]
        events.append(
            {
                "name": span["name"],
                "cat": span["name"].split(".", 1)[0],
                "ph": "X",
                "ts": ts,
                "dur": dur,
                "pid": pid_of[shard],
                "tid": tid_of[level],
                "args": args,
            }
        )
        for e in span.get("events", []):
            e_ts = min(max(ts + int(e.get("t_s", 0.0) * 1e6), ts), ts + dur)
            events.append(
                {
                    "name": f"{span['name']}:{e['name']}",
                    "cat": "event",
                    "ph": "i",
                    "s": "t",
                    "ts": e_ts,
                    "pid": pid_of[shard],
                    "tid": tid_of[level],
                    "args": _json_safe(
                        {"severity": e.get("severity", "info"), **e.get("attrs", {})}
                    ),
                }
            )
        for child in span.get("children", []):
            emit(child, shard, level, ts, ts + dur)

    horizon = 1 << 62  # roots are unclamped
    for doc in docs:
        for root in doc.get("spans", []):
            emit(root, DEFAULT_TRACK, 0, 0, horizon)

    events.sort(key=lambda e: (e["ts"], -e.get("dur", 0)))

    metadata: list[dict] = []
    for shard, pid in sorted(pid_of.items(), key=lambda kv: kv[1]):
        metadata.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "args": {"name": f"shard {shard}" if shard != DEFAULT_TRACK else shard},
            }
        )
        for level, tid in sorted(tid_of.items(), key=lambda kv: kv[1]):
            metadata.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": f"level {level}"},
                }
            )

    meta = {}
    for doc in docs:
        meta.update(doc.get("meta", {}))
    return {
        "traceEvents": metadata + events,
        "displayTimeUnit": "ms",
        "otherData": _json_safe({"schema": "repro.telemetry/v1", **meta}),
    }


def write_perfetto(
    path: str | pathlib.Path, doc_or_docs: dict | Iterable[dict]
) -> pathlib.Path:
    """Serialize the trace-event conversion to ``path`` (parents created)."""
    return write_document(path, perfetto_document(doc_or_docs))
