"""``repro perf diff``: compare two measurements, gate on regression.

Compares two ledger entries (``repro.bench/v1``) or two trace documents
(``repro.telemetry/v1``) series-by-series.  A ledger entry gives one
series per benchmark.  A trace gives one per row of its
:func:`~repro.telemetry.span_table`, keyed ``L{level}/{name}``: the
node's exclusive self-time, its span count and its booked flops/bytes.
Cost deltas matter independently of timing — a node whose self-time
moved but whose flops did not is a layout effect, one whose flops moved
is an algorithm change.

A series regresses when it got slower by more than the relative
tolerance *and* the change clears the noise band — ``z`` robust
standard deviations estimated from the median absolute deviation of
both sample sets (``sigma ≈ 1.4826 MAD``).  Single-shot trace series
carry no spread, so they gate on the tolerance alone, which defaults
wider for traces (0.25) than for ledger entries (0.10); series under
:data:`MIN_GATED_SECONDS` never gate.  The verdict is an exit code: 0
clean, 1 regression — the CI perf-smoke job runs this warn-only against
the committed ``BENCH_quick.json`` baseline, and release branches can
make it blocking.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime, timezone

from ..telemetry.export import SCHEMA as TRACE_SCHEMA
from ..telemetry.export import span_table
from .ledger import BENCH_SCHEMA, median_mad

# 1.4826 scales the MAD of a normal distribution to its sigma
MAD_TO_SIGMA = 1.4826
# series faster than this are pure timer noise and never gate
MIN_GATED_SECONDS = 50e-6
# relative tolerance by the baseline's schema when none is given
DEFAULT_TOLERANCE = {BENCH_SCHEMA: 0.10, TRACE_SCHEMA: 0.25}


@dataclass
class Series:
    """One comparable measurement: a named median with a noise scale."""

    key: str
    median: float
    mad: float = 0.0
    count: int = 1
    flops: float = 0.0
    bytes: float = 0.0


def _cost_ratio(a: float, b: float) -> float | None:
    """Relative change of a booked cost; undefined when ``a`` booked none."""
    return (b - a) / a if a > 0.0 else None


@dataclass
class DiffRow:
    key: str
    a: Series | None
    b: Series | None
    verdict: str  # "ok" | "regression" | "improvement" | "added" | "removed"
    ratio: float | None = None
    flops_ratio: float | None = None
    bytes_ratio: float | None = None

    def render(self) -> str:
        if self.a is None:
            return f"  + {self.key}: added ({self.b.median:.6g}s)"
        if self.b is None:
            return f"  - {self.key}: removed (was {self.a.median:.6g}s)"
        mark = {"regression": "✗", "improvement": "✓", "ok": " "}[self.verdict]
        cost = ""
        for name, ratio in (("flops", self.flops_ratio), ("bytes", self.bytes_ratio)):
            if ratio is None and getattr(self.b, name) > 0.0:
                cost += f"  {name} added"
            elif ratio is not None and abs(ratio) > 1e-9:
                cost += f"  {name} {ratio:+.1%}"
        return (
            f"  {mark} {self.key}: {self.a.median:.6g}s -> {self.b.median:.6g}s "
            f"({self.ratio:+.1%}, n {self.a.count}->{self.b.count}){cost}"
        )

    def to_dict(self) -> dict:
        return {
            "key": self.key,
            "verdict": self.verdict,
            "ratio": self.ratio,
            "flops_ratio": self.flops_ratio,
            "bytes_ratio": self.bytes_ratio,
            "a_median": self.a.median if self.a else None,
            "b_median": self.b.median if self.b else None,
            "a_count": self.a.count if self.a else None,
            "b_count": self.b.count if self.b else None,
        }


@dataclass
class PerfDiff:
    """The full comparison; ``exit_code`` is the CI verdict."""

    rows: list[DiffRow] = field(default_factory=list)
    tolerance: float = 0.10
    z: float = 3.0
    #: where each side was measured (:func:`provenance`), baseline first
    provenance: tuple[str, str] = ("", "")

    @property
    def regressions(self) -> list[DiffRow]:
        return [r for r in self.rows if r.verdict == "regression"]

    @property
    def improvements(self) -> list[DiffRow]:
        return [r for r in self.rows if r.verdict == "improvement"]

    @property
    def exit_code(self) -> int:
        return 1 if self.regressions else 0

    def render(self) -> str:
        lines = [
            f"perf diff: {len(self.rows)} series, "
            f"{len(self.regressions)} regression(s), "
            f"{len(self.improvements)} improvement(s) "
            f"(tolerance {self.tolerance:.0%}, z={self.z:g})"
        ]
        for side, where in zip(("baseline", "candidate"), self.provenance):
            if where:
                lines.append(f"  {side}: {where}")
        lines.extend(row.render() for row in self.rows)
        verdict = "REGRESSED" if self.regressions else "OK"
        lines.append(f"verdict: {verdict}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "schema": "repro.perf-diff/v1",
            "tolerance": self.tolerance,
            "z": self.z,
            "verdict": "regression" if self.regressions else "ok",
            "rows": [r.to_dict() for r in self.rows],
        }


def provenance(doc: dict) -> str:
    """Where a document was measured, as far as it says: git revision,
    UTC date and Python version (``rev f265aac, 2026-10-17, python
    3.11.7``).  Timings from two host windows differ by more than most
    regressions, so the diff header names both sides."""
    meta = doc.get("meta") or {}
    parts = []
    rev = (meta.get("git") or {}).get("rev")
    if rev:
        parts.append(f"rev {rev[:7]}")
    ts = meta.get("timestamp", meta.get("ts"))
    if isinstance(ts, (int, float)):
        parts.append(f"{datetime.fromtimestamp(ts, timezone.utc):%Y-%m-%d}")
    python = (doc.get("host") or {}).get("python")
    if python:
        parts.append(f"python {python}")
    return ", ".join(parts)


# ----------------------------------------------------------------------
# extracting comparable series from the two document schemas
# ----------------------------------------------------------------------
def series_from_document(doc: dict) -> dict[str, Series]:
    """Index any supported measurement document by series key."""
    schema = doc.get("schema")
    if schema == BENCH_SCHEMA:
        return _series_from_bench(doc)
    if schema == TRACE_SCHEMA:
        return _series_from_trace(doc)
    raise ValueError(f"cannot diff documents with schema {schema!r}")


def _series_from_bench(doc: dict) -> dict[str, Series]:
    out: dict[str, Series] = {}
    for row in doc.get("rows", []):
        key = str(row.get("benchmark", row.get("name", "?")))
        samples = row.get("samples")
        if samples:
            med, mad = median_mad([float(s) for s in samples])
            out[key] = Series(key, med, mad, len(samples))
        elif "median" in row:
            out[key] = Series(key, float(row["median"]), float(row.get("mad", 0.0)))
    return out


def _series_from_trace(doc: dict) -> dict[str, Series]:
    out: dict[str, Series] = {}
    for (level, name), row in span_table(doc.get("spans", [])).items():
        key = f"L{level}/{name}"
        out[key] = Series(
            key, row["self_s"], count=row["count"],
            flops=row["flops"], bytes=row["bytes"],
        )
    return out


# ----------------------------------------------------------------------
# the comparison
# ----------------------------------------------------------------------
def compare_documents(
    a: dict, b: dict, tolerance: float | None = None, z: float = 3.0
) -> PerfDiff:
    """Compare measurement documents ``a`` (baseline) and ``b`` (new).

    Both must share one supported schema (``ValueError`` otherwise).
    ``tolerance`` defaults by that schema (:data:`DEFAULT_TOLERANCE`).
    Rows are ordered by absolute median delta, biggest movers first.
    """
    series_a = series_from_document(a)
    series_b = series_from_document(b)
    if a["schema"] != b["schema"]:
        raise ValueError(
            f"cannot diff a {a['schema']!r} baseline against a "
            f"{b['schema']!r} candidate"
        )
    if tolerance is None:
        tolerance = DEFAULT_TOLERANCE[a["schema"]]
    diff = PerfDiff(tolerance=tolerance, z=z, provenance=(provenance(a), provenance(b)))
    for key in sorted(set(series_a) | set(series_b)):
        sa, sb = series_a.get(key), series_b.get(key)
        if sa is None:
            diff.rows.append(DiffRow(key, None, sb, "added"))
            continue
        if sb is None:
            diff.rows.append(DiffRow(key, sa, None, "removed"))
            continue
        delta = sb.median - sa.median
        ratio = delta / sa.median if sa.median > 0.0 else 0.0
        noise = z * MAD_TO_SIGMA * max(sa.mad, sb.mad)
        threshold = max(tolerance * sa.median, noise)
        verdict = "ok"
        if max(sa.median, sb.median) >= MIN_GATED_SECONDS:
            if delta > threshold:
                verdict = "regression"
            elif -delta > threshold:
                verdict = "improvement"
        diff.rows.append(
            DiffRow(
                key, sa, sb, verdict, ratio,
                flops_ratio=_cost_ratio(sa.flops, sb.flops),
                bytes_ratio=_cost_ratio(sa.bytes, sb.bytes),
            )
        )
    diff.rows.sort(
        key=lambda r: -abs(
            (r.b.median if r.b else 0.0) - (r.a.median if r.a else 0.0)
        )
    )
    return diff
