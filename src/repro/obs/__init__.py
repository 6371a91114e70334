"""End-to-end solve observability: what happens when things go wrong.

:mod:`repro.telemetry` (PR 1) and :mod:`repro.perf` (PR 4) made a
*healthy* solve legible.  This package is the failure-path complement —
the substrate a production serve tier debugs itself with:

* :mod:`~repro.obs.convergence` — per-iteration residual event streams
  on solver spans, plus a plateau/stall/divergence detector that works
  on any residual history with telemetry off;
* :mod:`~repro.obs.blackbox` — an always-on flight recorder (bounded
  ring buffer of recent events) and the dump the serve tier writes on
  timeout, failure or detected stall (a ``repro.telemetry/v1`` trace
  carrying the ring as its ``events``);
* :mod:`~repro.obs.slo` — declarative SLO specs evaluated over sliding
  windows with burn-rate alerting into the structured log;
* :mod:`~repro.obs.forensics` — performance forensics over exported
  traces: critical-path extraction, the halo overlap-headroom report
  and Perfetto timeline export (two traces, like two ledger entries,
  are compared by ``repro perf diff``).

Everything here consumes the trace context of
:mod:`repro.telemetry.context`: one ``trace_id`` generated at serve
ingress connects a request's slog lifecycle, its span tree, its
convergence events, its metric exemplars and its blackbox dump.
"""

from __future__ import annotations

from .blackbox import (
    FlightRecorder,
    blackbox_document,
    get_recorder,
    render_blackbox,
    write_blackbox,
)
from .convergence import (
    DEFAULT_DETECTOR,
    ConvergenceVerdict,
    DetectorConfig,
    collect_convergence_series,
    convergence_report,
    detect_anomalies,
    record_convergence,
    subsample_history,
)
from .forensics import (
    CriticalPathReport,
    OverlapReport,
    critical_path,
    overlap_report,
    perfetto_document,
    render_critical_path,
    render_overlap,
    write_perfetto,
)
from .slo import (
    DEFAULT_SLOS,
    SLOMonitor,
    SLOSpec,
    SLOStatus,
    render_slo_table,
)

__all__ = [
    "ConvergenceVerdict",
    "CriticalPathReport",
    "DEFAULT_DETECTOR",
    "DEFAULT_SLOS",
    "DetectorConfig",
    "FlightRecorder",
    "OverlapReport",
    "SLOMonitor",
    "SLOSpec",
    "SLOStatus",
    "blackbox_document",
    "collect_convergence_series",
    "convergence_report",
    "critical_path",
    "detect_anomalies",
    "get_recorder",
    "overlap_report",
    "perfetto_document",
    "record_convergence",
    "render_blackbox",
    "render_critical_path",
    "render_overlap",
    "render_slo_table",
    "subsample_history",
    "write_blackbox",
    "write_perfetto",
]
