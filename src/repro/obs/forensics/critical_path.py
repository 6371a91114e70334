"""Critical-path extraction over serialized span forests.

The per-level span table (:func:`repro.telemetry.span_table`) answers
"where did the time go in aggregate"; the critical path answers
"which single chain of nested spans bounds the wall clock".  Because
spans nest by call order and self-times partition a tree exactly, the
longest root→leaf path *weighted by exclusive self-time* is the chain
an optimization must shorten to move end-to-end latency — everything
off it is slack (or, for ``halo.exchange`` spans, overlap headroom; see
:mod:`repro.obs.forensics.overlap`).

Works on the serialized ``repro.telemetry/v1`` shape (``doc["spans"]``),
so it applies equally to live tracers (via ``to_dict``), written trace
files and blackbox dumps.  When the document went through
:func:`repro.perf.attribute_trace` first, each path node carries the
derived roofline attributes along, giving per-path roofline
attribution: the report shows not just *where* the critical time is
spent but how far each hop sits from the machine's ceiling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from ...telemetry.export import self_seconds, walk

#: roofline attributes copied onto path nodes when present
_CARRIED_ATTRS = (
    "gflops",
    "gbs",
    "arithmetic_intensity",
    "roofline_fraction",
    "flops",
    "bytes",
)


@dataclass
class CriticalPathNode:
    """One hop of the critical path."""

    name: str
    level: int
    depth: int
    self_s: float
    duration_s: float
    share: float  # self_s / path total
    cumulative_s: float  # path self-time up to and including this hop
    attrs: dict = field(default_factory=dict)


@dataclass
class CriticalPathReport:
    """The longest self-time-weighted chain through one span forest."""

    nodes: list[CriticalPathNode] = field(default_factory=list)
    path_s: float = 0.0  # summed self-time along the path
    total_s: float = 0.0  # summed duration of every root span
    root_s: float = 0.0  # duration of the root the path descends from

    @property
    def coverage(self) -> float:
        """Fraction of its root's wall time the path's self-times explain."""
        return self.path_s / self.root_s if self.root_s > 0.0 else 0.0


def critical_path(spans: Iterable[dict]) -> CriticalPathReport:
    """Longest root→leaf path by exclusive self-time over ``spans``.

    ``spans`` is the serialized forest (``doc["spans"]``).  The path
    weight of a span is its self-time plus the heaviest path weight
    among its children; the report follows the argmax chain from the
    heaviest root.  Each hop's level comes from
    :func:`repro.telemetry.export.walk`, exactly like the span table.
    """
    roots = list(spans)
    report = CriticalPathReport(total_s=sum(r["duration_s"] for r in roots))
    if not roots:
        return report

    def weight(span: dict) -> float:
        w = self_seconds(span)
        if span["children"]:
            w += max(weight(c) for c in span["children"])
        return w

    best_root = max(roots, key=weight)
    report.root_s = best_root["duration_s"]

    # follow the argmax chain
    level_of = {id(span): level for span, level in walk([best_root])}
    chain = [best_root]
    while chain[-1]["children"]:
        chain.append(max(chain[-1]["children"], key=weight))

    report.path_s = sum(self_seconds(s) for s in chain)
    cumulative = 0.0
    for depth, span in enumerate(chain):
        level = level_of[id(span)]
        self_s = self_seconds(span)
        cumulative += self_s
        attrs = span.get("attrs", {})
        carried = {k: attrs[k] for k in _CARRIED_ATTRS if k in attrs}
        report.nodes.append(
            CriticalPathNode(
                name=span["name"],
                level=level,
                depth=depth,
                self_s=self_s,
                duration_s=span["duration_s"],
                share=self_s / report.path_s if report.path_s > 0.0 else 0.0,
                cumulative_s=cumulative,
                attrs=carried,
            )
        )
    return report


def render_critical_path(
    report: CriticalPathReport, title: str = "critical path"
) -> str:
    """Aligned table: one row per hop, shares and roofline attribution."""
    lines = [
        f"{title}: {report.path_s:.6g}s self-time along {len(report.nodes)} "
        f"span(s) ({100.0 * report.coverage:.1f}% of the {report.root_s:.6g}s "
        f"root; {report.total_s:.6g}s traced in total)"
    ]
    if not report.nodes:
        lines.append("(empty trace: no spans recorded)")
        return "\n".join(lines)
    header = ["depth", "level", "span", "self [s]", "share", "cum [s]", "roof%"]
    rows: list[list[str]] = []
    for n in report.nodes:
        roof = n.attrs.get("roofline_fraction")
        rows.append(
            [
                str(n.depth),
                str(n.level),
                "  " * n.depth + n.name,
                f"{n.self_s:.6g}",
                f"{100.0 * n.share:.1f}%",
                f"{n.cumulative_s:.6g}",
                f"{100.0 * roof:.3g}" if roof is not None else "-",
            ]
        )
    widths = [
        max(len(header[i]), *(len(r[i]) for r in rows)) for i in range(len(header))
    ]
    lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for r in rows:
        lines.append("  ".join(v.ljust(w) for v, w in zip(r, widths)))
    return "\n".join(lines)
