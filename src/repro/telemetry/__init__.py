"""Unified telemetry: hierarchical tracing, metrics, and trace export.

This package is the single measurement substrate for the reproduction
(ROADMAP "makes a hot path measurably faster" requires measuring it).
It has three parts, mirroring how QUDA bakes profiling/autotuning
instrumentation into the library itself (Clark et al., SC 2016):

* :mod:`~repro.telemetry.tracer` — a hierarchical span tracer.  Hot
  paths wrap themselves in ``with tracer.span("name", level=l):``
  blocks; nesting follows the call tree (outer GCR → K-cycle →
  smoother/restrict/prolong/coarse-solve → halo exchange), so a solve
  produces the same tree the paper's Figure 4 per-level breakdown is
  sliced from.  Disabled tracing returns a shared no-op span: one
  attribute test per call site, no allocation.
* :mod:`~repro.telemetry.metrics` — a registry of counters, gauges and
  labelled histograms into which every solve publishes the per-level
  ``LevelStats`` it counted and its outer iterations: matvecs,
  reductions, bytes moved and iteration counts all flow through one API.
* :mod:`~repro.telemetry.export` — serialization of a (tracer,
  registry) pair into one JSON trace document (schema
  ``repro.telemetry/v1``) plus the human-readable per-level breakdown
  table that backs ``repro.reporting.fig4`` in measured mode.

Telemetry is **off by default**; ``repro.telemetry.enable()`` (or the
CLI ``repro trace`` / ``--telemetry`` paths) switches both the global
tracer and registry on.  :class:`SolveTelemetry` is the typed payload
attached to every :class:`~repro.solvers.base.SolveResult`.
"""

from __future__ import annotations

from .context import (
    TraceContext,
    activate,
    current_trace,
    current_trace_id,
    new_span_id,
    new_trace_id,
)
from .export import (
    SCHEMA,
    SCHEMA_VERSION,
    level_breakdown_table,
    load_trace,
    otlp_document,
    span_table,
    trace_document,
    validate_trace,
    write_otlp,
    write_trace,
)
from .instrument import instrumented_solver, record_invariant, record_solve
from .metrics import Counter, Gauge, Histogram, MetricsRegistry, get_registry
from .result import SolveTelemetry
from .tracer import Span, Tracer, get_tracer, span

__all__ = [
    "SCHEMA",
    "SCHEMA_VERSION",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SolveTelemetry",
    "Span",
    "TraceContext",
    "Tracer",
    "activate",
    "current_trace",
    "current_trace_id",
    "disable",
    "enable",
    "enabled",
    "get_registry",
    "get_tracer",
    "instrumented_solver",
    "level_breakdown_table",
    "load_trace",
    "new_span_id",
    "new_trace_id",
    "otlp_document",
    "record_invariant",
    "record_solve",
    "reset",
    "span",
    "span_table",
    "trace_document",
    "validate_trace",
    "write_otlp",
    "write_trace",
]


def enable() -> None:
    """Switch the global tracer and metrics registry on."""
    get_tracer().enabled = True
    get_registry().enabled = True


def disable() -> None:
    """Switch the global tracer and metrics registry off (the default)."""
    get_tracer().enabled = False
    get_registry().enabled = False


def enabled() -> bool:
    return get_tracer().enabled or get_registry().enabled


def reset() -> None:
    """Drop all recorded spans and metrics (enabled flags unchanged)."""
    get_tracer().reset()
    get_registry().reset()
