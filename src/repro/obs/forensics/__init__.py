"""Performance forensics over exported ``repro.telemetry/v1`` traces.

The observability layers so far answer "where did time go per level"
(:mod:`repro.perf.attribution`) and "what went wrong"
(:mod:`repro.obs.blackbox`).  This package answers the sharper
questions every later performance PR is judged by:

* :mod:`~repro.obs.forensics.critical_path` — the longest weighted
  root→leaf path through a span forest by *exclusive* self-time, with
  per-span shares and the roofline attributes carried along, so the
  one chain of spans that bounds wall-clock is named explicitly;
* :mod:`~repro.obs.forensics.overlap` — the comm/compute overlap
  headroom report: every ``halo.exchange`` span is classified
  hideable / partially-hideable / exposed against the interior compute
  of its enclosing apply (the arXiv:1011.0024 overlap model), the
  yardstick the future async pipeline must be measured by;
* :mod:`~repro.obs.forensics.perfetto` — Chrome/Perfetto trace-event
  export (track per shard, thread per multigrid level, convergence
  events as instants) so any trace — including stitched fleet runs —
  opens in ui.perfetto.dev.

The span-walking modules take a span's level and self-time from
:mod:`repro.telemetry.export` (``walk`` / ``self_seconds``), the same
rule the per-level span table uses; two traces are compared node by
node with ``repro perf diff`` (:mod:`repro.perf.diff`).
"""

from __future__ import annotations

from .critical_path import (
    CriticalPathNode,
    CriticalPathReport,
    critical_path,
    render_critical_path,
)
from .overlap import (
    COMM_SPAN_NAMES,
    OverlapGroup,
    OverlapReport,
    overlap_report,
    render_overlap,
)
from .perfetto import perfetto_document, write_perfetto

__all__ = [
    "COMM_SPAN_NAMES",
    "CriticalPathNode",
    "CriticalPathReport",
    "OverlapGroup",
    "OverlapReport",
    "critical_path",
    "overlap_report",
    "perfetto_document",
    "render_critical_path",
    "render_overlap",
    "write_perfetto",
]
