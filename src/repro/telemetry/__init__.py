"""Unified telemetry: hierarchical tracing, metrics, and trace export.

* :mod:`~repro.telemetry.tracer` — a hierarchical span tracer.  Spans
  nest by call order (outer GCR → K-cycle per level →
  smoother/restrict/prolong/coarse-solve), the tree the paper's
  Figure 4 per-level breakdown is sliced from.
* :mod:`~repro.telemetry.boundary` — the one table of what the numerics
  show in a trace (callable, span, level rule, cost); they open none.
* :mod:`~repro.telemetry.metrics` — counters, gauges and labelled
  histograms; every traced solve publishes its per-level ``LevelStats``
  and outer iterations here.
* :mod:`~repro.telemetry.export` — the ``repro.telemetry/v1`` trace
  document, the per-level breakdown table behind
  ``repro.reporting.fig4``'s measured mode, and the one JSON document
  writer and reader (:func:`write_document` / :func:`read_document`).

Telemetry is **off by default**.  :func:`enable` (or the CLI ``repro
trace`` / ``--telemetry`` paths) installs the boundary table and
switches the global tracer and registry on; :func:`disable` puts every
wrapped callable back — the one switch.  :class:`SolveTelemetry` is the
typed payload of every :class:`~repro.solvers.base.SolveResult`.
"""

from __future__ import annotations

import contextlib
import pathlib
import sys

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
    read_document,
    span_table,
    trace_document,
    validate_trace,
    write_document,
    write_otlp,
    write_trace,
)
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
    "level_breakdown_table",
    "load_trace",
    "new_span_id",
    "new_trace_id",
    "otlp_document",
    "prometheus_snapshot",
    "read_document",
    "reset",
    "span",
    "span_table",
    "trace_document",
    "validate_trace",
    "write_document",
    "write_otlp",
    "write_trace",
]


def enable() -> None:
    """Switch the global tracer and metrics registry on and install the
    boundary table."""
    from . import boundary

    boundary.install()
    get_tracer().enabled = True
    get_registry().enabled = True


def disable() -> None:
    """Switch the global tracer and metrics registry off (the default)
    and put every wrapped callable back."""
    get_tracer().enabled = False
    get_registry().enabled = False
    boundary = sys.modules.get(f"{__name__}.boundary")
    if boundary is not None:
        boundary.uninstall()


def enabled() -> bool:
    return get_tracer().enabled or get_registry().enabled


def reset() -> None:
    """Drop all recorded spans and metrics (enabled flags unchanged)."""
    get_tracer().reset()
    get_registry().reset()


@contextlib.contextmanager
def prometheus_snapshot(path):
    """Run the block with telemetry on and write the registry's final
    Prometheus exposition (with exemplars) to ``path`` when it ends.

    Telemetry already on stays on; otherwise it is switched on for the
    block and off again in ``finally``, also when the block raises (the
    snapshot is then not written).  With ``path`` None this does nothing.
    """
    if path is None:
        yield
        return
    forced = not enabled()
    if forced:
        enable()
    try:
        yield
        out = pathlib.Path(path)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(get_registry().expose_text(exemplars=True))
    finally:
        if forced:
            disable()
