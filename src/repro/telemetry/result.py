"""Typed telemetry payload carried by every solve result.

Per-level work profiles, solver-scope metrics and (when tracing is
enabled) the span tree all live in named fields of
:class:`SolveTelemetry` with a JSON round-trip; solver-specific extras
(``reductions``, ``matvec_batches``, ...) go in
:attr:`SolveTelemetry.attrs`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass
class SolveTelemetry:
    """What one solve measured about itself.

    ``level_stats`` maps level index to that level's work-counter dict
    (op applies, smoother applies, GCR iterations, transfers, global
    reductions) — the data behind the paper's Figure 4 breakdown.
    ``spans`` holds serialized root spans (see
    :meth:`~repro.telemetry.tracer.Span.to_dict`) when tracing was on
    during the solve.  ``metrics`` carries scalar solve-scope metrics;
    ``attrs`` holds solver-specific extras.
    """

    level_stats: dict[int, dict[str, float]] = field(default_factory=dict)
    metrics: dict[str, float] = field(default_factory=dict)
    spans: list[dict] = field(default_factory=list)
    attrs: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "level_stats": {int(k): dict(v) for k, v in self.level_stats.items()},
            "metrics": dict(self.metrics),
            "spans": list(self.spans),
            "attrs": _jsonable(self.attrs),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SolveTelemetry":
        return cls(
            level_stats={int(k): dict(v) for k, v in d.get("level_stats", {}).items()},
            metrics=dict(d.get("metrics", {})),
            spans=list(d.get("spans", [])),
            attrs=dict(d.get("attrs", {})),
        )


def _jsonable(obj: Any) -> Any:
    """Best-effort JSON projection (keeps round-trips total)."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    if hasattr(obj, "to_dict"):
        return _jsonable(obj.to_dict())
    return repr(obj)
