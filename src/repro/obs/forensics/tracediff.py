"""``repro trace diff A B``: span-granular trace comparison.

``repro perf diff`` compares headline series; this module aligns two
``repro.telemetry/v1`` documents *node by node* — spans are keyed by
``(level, name)`` with the level inherited from the nearest ancestor,
exactly like the Figure 4 aggregation — and reports per-node exclusive
self-time deltas **and** booked flops/bytes deltas.  Cost deltas matter
independently of timing: a kernel change that moves self-time but not
flops is a layout effect, one that changes flops is an algorithm
change, and the distinction is the first question a perf review asks.

The noise band mirrors :mod:`repro.perf.diff`: traces are single-shot
measurements, so a node gates only when it is slower than the relative
tolerance *and* above the :data:`~repro.perf.diff.MIN_GATED_SECONDS`
timer-noise floor.  Exit code 1 on any regression (0 under
``--warn-only``), so the command slots into CI exactly like
``perf diff``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from ...perf.diff import MIN_GATED_SECONDS
from ...telemetry.export import SCHEMA as TRACE_SCHEMA


@dataclass
class TraceNode:
    """One aligned (level, name) bucket of a trace."""

    key: str
    self_s: float = 0.0
    count: int = 0
    flops: float = 0.0
    bytes: float = 0.0


@dataclass
class TraceDiffRow:
    key: str
    a: TraceNode | None
    b: TraceNode | None
    verdict: str  # "ok" | "regression" | "improvement" | "added" | "removed"
    ratio: float | None = None  # self-time relative delta
    flops_ratio: float | None = None
    bytes_ratio: float | None = None

    def render(self) -> str:
        if self.a is None:
            return f"  + {self.key}: added ({self.b.self_s:.6g}s)"
        if self.b is None:
            return f"  - {self.key}: removed (was {self.a.self_s:.6g}s)"
        mark = {"regression": "✗", "improvement": "✓", "ok": " "}[self.verdict]
        cost = ""
        if self.flops_ratio is not None and abs(self.flops_ratio) > 1e-9:
            cost += f"  flops {self.flops_ratio:+.1%}"
        if self.bytes_ratio is not None and abs(self.bytes_ratio) > 1e-9:
            cost += f"  bytes {self.bytes_ratio:+.1%}"
        return (
            f"  {mark} {self.key}: {self.a.self_s:.6g}s -> {self.b.self_s:.6g}s "
            f"({self.ratio:+.1%}, n {self.a.count}->{self.b.count}){cost}"
        )

    def to_dict(self) -> dict:
        return {
            "key": self.key,
            "verdict": self.verdict,
            "ratio": self.ratio,
            "flops_ratio": self.flops_ratio,
            "bytes_ratio": self.bytes_ratio,
            "a_self_s": self.a.self_s if self.a else None,
            "b_self_s": self.b.self_s if self.b else None,
        }


@dataclass
class TraceDiff:
    """The aligned comparison; ``exit_code`` is the CI verdict."""

    rows: list[TraceDiffRow] = field(default_factory=list)
    tolerance: float = 0.25
    meta_a: dict = field(default_factory=dict)
    meta_b: dict = field(default_factory=dict)

    @property
    def regressions(self) -> list[TraceDiffRow]:
        return [r for r in self.rows if r.verdict == "regression"]

    @property
    def improvements(self) -> list[TraceDiffRow]:
        return [r for r in self.rows if r.verdict == "improvement"]

    @property
    def exit_code(self) -> int:
        return 1 if self.regressions else 0

    def render(self) -> str:
        label_a = self.meta_a.get("backend") or self.meta_a.get("dataset") or "A"
        label_b = self.meta_b.get("backend") or self.meta_b.get("dataset") or "B"
        lines = [
            f"trace diff ({label_a} -> {label_b}): {len(self.rows)} node(s), "
            f"{len(self.regressions)} regression(s), "
            f"{len(self.improvements)} improvement(s) "
            f"(tolerance {self.tolerance:.0%}, "
            f"noise floor {MIN_GATED_SECONDS * 1e6:.0f}us)"
        ]
        lines.extend(row.render() for row in self.rows)
        lines.append(f"verdict: {'REGRESSED' if self.regressions else 'OK'}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "schema": "repro.trace-diff/v1",
            "tolerance": self.tolerance,
            "verdict": "regression" if self.regressions else "ok",
            "rows": [r.to_dict() for r in self.rows],
        }


def trace_nodes(doc: dict) -> dict[str, TraceNode]:
    """Index one trace document by aligned (level, name) buckets."""
    if doc.get("schema") != TRACE_SCHEMA:
        raise ValueError(
            f"trace diff needs {TRACE_SCHEMA!r} documents, got "
            f"{doc.get('schema')!r}"
        )
    out: dict[str, TraceNode] = {}

    def visit(span: dict, level: int) -> None:
        attrs = span.get("attrs", {})
        level = int(attrs.get("level", level))
        key = f"L{level}/{span['name']}"
        node = out.setdefault(key, TraceNode(key))
        node.self_s += span["duration_s"] - sum(
            c["duration_s"] for c in span["children"]
        )
        node.count += 1
        node.flops += float(attrs.get("flops", 0.0))
        node.bytes += float(attrs.get("bytes", 0.0))
        for child in span["children"]:
            visit(child, level)

    for root in doc.get("spans", []):
        visit(root, 0)
    return out


def _rel(a: float, b: float) -> float | None:
    if a <= 0.0 and b <= 0.0:
        return None
    if a <= 0.0:
        return float("inf")
    return (b - a) / a


def diff_trace_documents(
    a: dict, b: dict, tolerance: float = 0.25
) -> TraceDiff:
    """Align ``a`` (baseline) and ``b`` (candidate) node-by-node.

    Single-shot traces carry no sample spread, so the default tolerance
    is wider than the ledger gate's; nodes under the timer-noise floor
    never gate regardless.  Rows are ordered by absolute self-time
    delta, biggest movers first.
    """
    nodes_a = trace_nodes(a)
    nodes_b = trace_nodes(b)
    diff = TraceDiff(
        tolerance=tolerance,
        meta_a=dict(a.get("meta", {})),
        meta_b=dict(b.get("meta", {})),
    )
    for key in set(nodes_a) | set(nodes_b):
        na, nb = nodes_a.get(key), nodes_b.get(key)
        if na is None:
            diff.rows.append(TraceDiffRow(key, None, nb, "added"))
            continue
        if nb is None:
            diff.rows.append(TraceDiffRow(key, na, None, "removed"))
            continue
        delta = nb.self_s - na.self_s
        ratio = delta / na.self_s if na.self_s > 0.0 else 0.0
        verdict = "ok"
        if max(na.self_s, nb.self_s) >= MIN_GATED_SECONDS:
            if delta > tolerance * na.self_s:
                verdict = "regression"
            elif -delta > tolerance * na.self_s:
                verdict = "improvement"
        diff.rows.append(
            TraceDiffRow(
                key,
                na,
                nb,
                verdict,
                ratio,
                flops_ratio=_rel(na.flops, nb.flops),
                bytes_ratio=_rel(na.bytes, nb.bytes),
            )
        )
    diff.rows.sort(
        key=lambda r: -abs(
            (r.b.self_s if r.b else 0.0) - (r.a.self_s if r.a else 0.0)
        )
    )
    return diff


def trace_diff_main(argv: Iterable[str]) -> int:
    """Entry point for ``repro trace diff A B`` (routed from repro.cli)."""
    import argparse
    import json
    import pathlib

    parser = argparse.ArgumentParser(
        prog="repro trace diff",
        description="span-granular comparison of two telemetry traces",
    )
    parser.add_argument("baseline", help="baseline trace document (A)")
    parser.add_argument("candidate", help="candidate trace document (B)")
    parser.add_argument(
        "--tolerance", type=float, default=0.25,
        help="relative self-time slowdown tolerated per node (default 0.25)",
    )
    parser.add_argument(
        "--top", type=int, default=0, metavar="N",
        help="only print the N biggest movers (default 0 = all)",
    )
    parser.add_argument(
        "--warn-only", action="store_true",
        help="always exit 0; print the verdict only (CI smoke mode)",
    )
    parser.add_argument(
        "--json", default=None, metavar="FILE",
        help="write the machine-readable diff to FILE",
    )
    args = parser.parse_args(list(argv))
    try:
        doc_a = json.loads(pathlib.Path(args.baseline).read_text())
        doc_b = json.loads(pathlib.Path(args.candidate).read_text())
        diff = diff_trace_documents(doc_a, doc_b, tolerance=args.tolerance)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}")
        return 2
    if args.top > 0:
        shown = TraceDiff(
            rows=diff.rows[: args.top],
            tolerance=diff.tolerance,
            meta_a=diff.meta_a,
            meta_b=diff.meta_b,
        )
        print(shown.render())
        if len(diff.rows) > args.top:
            print(f"({len(diff.rows) - args.top} smaller mover(s) not shown)")
    else:
        print(diff.render())
    if args.json is not None:
        out = pathlib.Path(args.json)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(diff.to_dict(), indent=1, sort_keys=True) + "\n")
    if args.warn_only:
        return 0
    return diff.exit_code
