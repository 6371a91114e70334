"""Comm/compute overlap-headroom analysis of halo-exchange spans.

The multi-GPU QUDA work (arXiv:1011.0024; ROADMAP open item) gets its
strong scaling from hiding halo exchange behind interior stencil
compute.  ``repro.comm`` today runs the exchange synchronously inline,
so every ``halo.exchange`` span is *exposed* wall-clock — but how much
of it an async pipeline could hide is already measurable from the span
tree: exchange time can overlap whatever sibling compute its enclosing
apply performs that does not depend on the ghost faces.

The model, per enclosing parent span (normally one
``comm.partitioned_apply``):

* ``comm_s``   — summed duration of the comm children (``halo.exchange``);
* ``compute_s`` — the parent's self-time plus all non-comm children:
  the interior work available to run concurrently with the exchange;
* ``hideable_s = min(comm_s, compute_s)`` — the overlap budget a
  perfectly pipelined schedule achieves.

Each comm span is then classified greedily against the remaining
budget: **hideable** (fits entirely), **partial** (some of it fits) or
**exposed** (budget exhausted — this exchange stays on the critical
path no matter how the pipeline is scheduled).  The report's headroom
percentage (hideable / total comm) is the yardstick the future async
``PartitionedOperator`` must be judged by, and ``ideal_s`` is the
wall-clock a perfect overlap schedule would reach.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from ...telemetry.export import self_seconds, walk

#: span names treated as communication (the halo exchange of
#: repro.comm.halo; "comm.halo" kept as an alias for older traces)
COMM_SPAN_NAMES = ("halo.exchange", "comm.halo")


@dataclass
class CommSpanVerdict:
    """One halo-exchange span's overlap classification."""

    name: str
    duration_s: float
    hidden_s: float  # how much of it the overlap budget absorbs
    verdict: str  # "hideable" | "partial" | "exposed"
    attrs: dict = field(default_factory=dict)


@dataclass
class OverlapGroup:
    """All comm spans under one enclosing apply, with its compute budget."""

    parent: str
    level: int
    comm_s: float
    compute_s: float
    hideable_s: float
    spans: list[CommSpanVerdict] = field(default_factory=list)


@dataclass
class OverlapReport:
    """Whole-trace overlap headroom (the async-pipeline yardstick)."""

    groups: list[OverlapGroup] = field(default_factory=list)
    comm_s: float = 0.0
    hideable_s: float = 0.0
    measured_s: float = 0.0  # total traced wall time (root durations)

    @property
    def headroom_fraction(self) -> float:
        """Fraction of halo time a perfect pipeline hides (0 when none)."""
        return self.hideable_s / self.comm_s if self.comm_s > 0.0 else 0.0

    @property
    def ideal_s(self) -> float:
        """Wall-clock under perfect overlap: measured minus hideable."""
        return self.measured_s - self.hideable_s

    @property
    def exposed_s(self) -> float:
        return self.comm_s - self.hideable_s


def overlap_report(
    spans: Iterable[dict],
    comm_names: tuple[str, ...] = COMM_SPAN_NAMES,
) -> OverlapReport:
    """Classify every comm span in the forest against sibling compute.

    ``spans`` is the serialized forest (``doc["spans"]``).  Each parent
    span with at least one direct child named in ``comm_names`` forms a
    group; the parent's self-time plus its non-comm children is the
    interior compute available for overlap, split greedily (in recorded
    order) across that group's comm spans.
    """
    roots = list(spans)
    report = OverlapReport(measured_s=sum(r["duration_s"] for r in roots))

    for span, level in walk(roots):
        comm = [c for c in span["children"] if c["name"] in comm_names]
        if comm:
            compute_s = self_seconds(span) + sum(
                c["duration_s"]
                for c in span["children"]
                if c["name"] not in comm_names
            )
            comm_s = sum(c["duration_s"] for c in comm)
            budget = min(comm_s, compute_s)
            group = OverlapGroup(
                parent=span["name"],
                level=level,
                comm_s=comm_s,
                compute_s=compute_s,
                hideable_s=budget,
            )
            remaining = budget
            for c in comm:
                d = c["duration_s"]
                hidden = min(d, remaining)
                remaining -= hidden
                if hidden >= d and d > 0.0:
                    verdict = "hideable"
                elif hidden > 0.0:
                    verdict = "partial"
                else:
                    verdict = "exposed"
                group.spans.append(
                    CommSpanVerdict(
                        name=c["name"],
                        duration_s=d,
                        hidden_s=hidden,
                        verdict=verdict,
                        attrs={
                            k: v
                            for k, v in c.get("attrs", {}).items()
                            if k in ("mu", "sign", "bytes")
                        },
                    )
                )
            report.groups.append(group)
            report.comm_s += comm_s
            report.hideable_s += group.hideable_s
    return report


def render_overlap(
    report: OverlapReport, title: str = "overlap headroom (halo exchange)"
) -> str:
    """Human-readable overlap report (printed by ``repro trace``)."""
    lines = [
        f"{title}: {report.comm_s:.6g}s comm, "
        f"{report.hideable_s:.6g}s hideable "
        f"({100.0 * report.headroom_fraction:.1f}% headroom), "
        f"{report.exposed_s:.6g}s exposed"
    ]
    if not report.groups:
        lines.append("(no halo-exchange spans in this trace)")
        return "\n".join(lines)
    lines.append(
        f"measured {report.measured_s:.6g}s -> ideal "
        f"{report.ideal_s:.6g}s under perfect comm/compute overlap"
    )
    counts = {"hideable": 0, "partial": 0, "exposed": 0}
    for group in report.groups:
        for s in group.spans:
            counts[s.verdict] += 1
    lines.append(
        f"halo spans: {counts['hideable']} hideable, "
        f"{counts['partial']} partial, {counts['exposed']} exposed"
    )
    header = ["parent", "level", "comm [s]", "compute [s]", "hideable [s]", "headroom"]
    rows = [
        [
            g.parent,
            str(g.level),
            f"{g.comm_s:.6g}",
            f"{g.compute_s:.6g}",
            f"{g.hideable_s:.6g}",
            f"{100.0 * (g.hideable_s / g.comm_s if g.comm_s else 0.0):.1f}%",
        ]
        for g in report.groups
    ]
    widths = [
        max(len(header[i]), *(len(r[i]) for r in rows)) for i in range(len(header))
    ]
    lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for r in rows:
        lines.append("  ".join(v.ljust(w) for v, w in zip(r, widths)))
    return "\n".join(lines)
