"""Trace export: one JSON schema for solves, benchmarks and profiling.

A *trace document* bundles the span forest of a tracer and the metric
snapshot of a registry (plus caller metadata) under the versioned
schema ``repro.telemetry/v1``.  The same document is produced by
``repro trace <dataset>``, by ``--telemetry out.json`` on measured-mode
artifacts, by ``tools/profile_solve.py --json`` and — with the
flight-recorder ring as a top-level ``events`` list — by the serve
tier's blackbox dumps, so the profiling workflow, the reporting
pipeline and a postmortem read identical data.

Every JSON document the package writes goes through
:func:`write_document` and every one it reads through
:func:`read_document`, which insists on a ``schema`` and validates
trace documents.

The level/self-time rule lives here and nowhere else: a span's level is
its ``level`` attribute, inherited from the nearest ancestor
(:func:`walk`), and its self-time is its duration minus its direct
children's (:func:`self_seconds`).  :func:`span_table` folds a forest
into one row per (level, span name) — self-seconds, span count, booked
flops and bytes — the measured analogue of the paper's Figure 4
breakdown that :func:`level_breakdown_table`, the roofline attribution
and ``repro perf diff`` all read.
"""

from __future__ import annotations

import json
import pathlib
from typing import Any, Iterable, Iterator

from .metrics import MetricsRegistry, get_registry
from .tracer import Tracer, get_tracer

SCHEMA = "repro.telemetry/v1"
SCHEMA_VERSION = 1


# ----------------------------------------------------------------------
# document assembly and round-trip
# ----------------------------------------------------------------------
def trace_document(
    tracer: Tracer | None = None,
    registry: MetricsRegistry | None = None,
    meta: dict[str, Any] | None = None,
) -> dict:
    """Bundle (tracer, registry) into one JSON-serializable document."""
    tracer = tracer if tracer is not None else get_tracer()
    registry = registry if registry is not None else get_registry()
    return {
        "schema": SCHEMA,
        "version": SCHEMA_VERSION,
        "meta": dict(meta or {}),
        "spans": [root.to_dict() for root in tracer.roots],
        "metrics": registry.snapshot(),
    }


def validate_trace(doc: dict) -> dict:
    """Check the document shape; returns ``doc`` for chaining."""
    if not isinstance(doc, dict):
        raise ValueError("trace document must be a mapping")
    if doc.get("schema") != SCHEMA:
        raise ValueError(f"unknown trace schema {doc.get('schema')!r}")
    if doc.get("version") != SCHEMA_VERSION:
        raise ValueError(f"unsupported trace version {doc.get('version')!r}")
    if not isinstance(doc.get("spans"), list):
        raise ValueError("trace document missing 'spans' list")
    if not isinstance(doc.get("metrics"), dict):
        raise ValueError("trace document missing 'metrics' mapping")
    for span in doc["spans"]:
        _validate_span(span)
    return doc


def _validate_span(span: dict) -> None:
    for key in ("name", "duration_s", "attrs", "children"):
        if key not in span:
            raise ValueError(f"span missing {key!r}: {span}")
    for child in span["children"]:
        _validate_span(child)


def write_document(path: str | pathlib.Path, doc: dict) -> pathlib.Path:
    """Write one JSON document to ``path`` (parents created).

    Keys are sorted and values that JSON cannot encode are written as
    their ``str`` (a dump's metadata must never fail to serialize).
    """
    out = pathlib.Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=1, sort_keys=True, default=str) + "\n")
    return out


def read_document(path: str | pathlib.Path) -> dict:
    """Read one document written by :func:`write_document`.

    It must be a mapping that names its ``schema``; a trace document
    (a blackbox dump included) is also checked by :func:`validate_trace`.
    """
    doc = json.loads(pathlib.Path(path).read_text())
    if not isinstance(doc, dict) or "schema" not in doc:
        raise ValueError(f"{path}: not a repro document (no 'schema')")
    if doc["schema"] == SCHEMA:
        validate_trace(doc)
    return doc


def write_trace(
    path: str | pathlib.Path,
    tracer: Tracer | None = None,
    registry: MetricsRegistry | None = None,
    meta: dict[str, Any] | None = None,
) -> pathlib.Path:
    """Serialize the current trace to ``path`` (parents created)."""
    return write_document(path, trace_document(tracer, registry, meta))


def load_trace(path: str | pathlib.Path) -> dict:
    """Read a document that must be a trace (or a blackbox dump)."""
    return validate_trace(read_document(path))


# ----------------------------------------------------------------------
# OTLP-style JSON export (OpenTelemetry trace shape)
# ----------------------------------------------------------------------
def _otlp_value(v: Any) -> dict:
    """Project one attribute value into the OTLP AnyValue union."""
    if isinstance(v, bool):
        return {"boolValue": v}
    if isinstance(v, int):
        return {"intValue": str(v)}  # OTLP JSON carries int64 as string
    if isinstance(v, float):
        return {"doubleValue": v}
    if isinstance(v, (list, tuple)):
        return {"arrayValue": {"values": [_otlp_value(x) for x in v]}}
    return {"stringValue": str(v)}


def _otlp_attributes(attrs: dict) -> list[dict]:
    return [{"key": str(k), "value": _otlp_value(v)} for k, v in attrs.items()]


def _otlp_span(span: dict, out: list[dict]) -> None:
    """Flatten one serialized span subtree into OTLP span records."""
    start_ns = int((span.get("wall_start") or 0.0) * 1e9)
    end_ns = start_ns + int(span["duration_s"] * 1e9)
    record = {
        "traceId": span.get("trace_id") or "0" * 32,
        "spanId": span.get("span_id") or "0" * 16,
        "name": span["name"],
        "kind": 1,  # SPAN_KIND_INTERNAL
        "startTimeUnixNano": str(start_ns),
        "endTimeUnixNano": str(end_ns),
        "attributes": _otlp_attributes(span.get("attrs", {})),
    }
    if span.get("parent_id"):
        record["parentSpanId"] = span["parent_id"]
    events = span.get("events", [])
    if events:
        record["events"] = [
            {
                "timeUnixNano": str(start_ns + int(e.get("t_s", 0.0) * 1e9)),
                "name": e["name"],
                "attributes": _otlp_attributes(
                    {"severity": e.get("severity", "info"), **e.get("attrs", {})}
                ),
            }
            for e in events
        ]
    if span.get("dropped_events"):
        record["droppedEventsCount"] = int(span["dropped_events"])
    out.append(record)
    for child in span.get("children", []):
        _otlp_span(child, out)


def otlp_document(doc: dict) -> dict:
    """Convert a ``repro.telemetry/v1`` document into OTLP/JSON traces.

    The nested span forest is flattened into the OpenTelemetry
    ``resourceSpans → scopeSpans → spans`` shape, with parenthood
    expressed through ``parentSpanId`` — the format OTLP collectors,
    Jaeger and Tempo ingest, so a solve trace can be dropped straight
    into standard trace tooling.
    """
    validate_trace(doc)
    spans: list[dict] = []
    for root in doc["spans"]:
        _otlp_span(root, spans)
    resource_attrs = {"service.name": "repro", **doc.get("meta", {})}
    return {
        "resourceSpans": [
            {
                "resource": {"attributes": _otlp_attributes(resource_attrs)},
                "scopeSpans": [
                    {
                        "scope": {"name": "repro.telemetry", "version": "1"},
                        "spans": spans,
                    }
                ],
            }
        ]
    }


def write_otlp(path: str | pathlib.Path, doc: dict) -> pathlib.Path:
    """Serialize ``doc`` (a v1 trace document) to OTLP JSON at ``path``."""
    return write_document(path, otlp_document(doc))


# ----------------------------------------------------------------------
# the span table (Figure 4 backing data)
# ----------------------------------------------------------------------
def self_seconds(span: dict) -> float:
    """Exclusive time of one serialized span: duration minus direct children."""
    return span["duration_s"] - sum(c["duration_s"] for c in span["children"])


def walk(spans: Iterable[dict], level: int = 0) -> Iterator[tuple[dict, int]]:
    """Pre-order ``(span, level)`` pairs over a serialized span forest.

    The level is the span's ``level`` attribute, inherited from the
    nearest ancestor that carries one (``level`` for the roots).
    """
    for span in spans:
        span_level = int(span.get("attrs", {}).get("level", level))
        yield span, span_level
        yield from walk(span.get("children", ()), span_level)


def iter_span_dicts(spans: Iterable[dict]) -> Iterator[dict]:
    """Depth-first walk over serialized spans."""
    return (span for span, _ in walk(spans))


def span_table(spans: Iterable[dict]) -> dict[tuple[int, str], dict[str, float]]:
    """One row of ``self_s``/``count``/``flops``/``bytes`` per (level, name).

    Rows appear in pre-order of first encounter.  Self-times partition
    the forest exactly, so ``self_s`` sums to the roots' total duration;
    costs are booked exclusively, so ``flops``/``bytes`` sum to the
    forest's.
    """
    table: dict[tuple[int, str], dict[str, float]] = {}
    for span, level in walk(spans):
        attrs = span.get("attrs", {})
        row = table.setdefault(
            (level, span["name"]),
            {"self_s": 0.0, "count": 0, "flops": 0.0, "bytes": 0.0},
        )
        row["self_s"] += self_seconds(span)
        row["count"] += 1
        row["flops"] += float(attrs.get("flops", 0.0))
        row["bytes"] += float(attrs.get("bytes", 0.0))
    return table


def level_breakdown_table(
    table: dict[tuple[int, str], dict[str, float]],
    title: str = "per-level breakdown",
) -> str:
    """Render a :func:`span_table`'s self-seconds: a row per level, a column per name."""
    per_level: dict[int, dict[str, float]] = {}
    for (level, name), row in table.items():
        per_level.setdefault(level, {})[name] = row["self_s"]
    levels = sorted(per_level)
    columns: list[str] = []
    for lvl in levels:
        for key in per_level[lvl]:
            if key not in columns:
                columns.append(key)
    header = ["level"] + columns + ["total [s]"]
    rows: list[list[str]] = []
    for lvl in levels:
        vals = per_level[lvl]
        rows.append(
            [str(lvl)]
            + [f"{vals.get(c, 0.0):.6g}" for c in columns]
            + [f"{sum(vals.values()):.6g}"]
        )
    widths = [
        max(len(header[i]), *(len(r[i]) for r in rows)) if rows else len(header[i])
        for i in range(len(header))
    ]
    lines = [title]
    lines.append("  ".join(h.rjust(w) for h, w in zip(header, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for r in rows:
        lines.append("  ".join(v.rjust(w) for v, w in zip(r, widths)))
    return "\n".join(lines)
