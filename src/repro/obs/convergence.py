"""Convergence event streams: per-iteration residuals and anomaly detection.

The source paper's analysis (SC 2016, Figs 2/4) and the MRHS-multigrid
follow-up (Richtmann-Meyer-Wettig, arXiv:2211.13719) both hinge on
*per-iteration* convergence data; production serving additionally needs
to *notice* when a solve stops converging while it is still running up
its iteration budget.  This module supplies both halves:

* :func:`record_convergence` turns a solve's relative-residual history
  into a bounded event series on its span (evenly subsampled past the
  budget, never dropped silently) plus severity-tagged anomaly events;
* :func:`detect_anomalies` is the pure detector — plateau (warning),
  stall (error) and divergence (error) over a sliding window — usable
  on any residual history with no telemetry at all (the serve tier runs
  it on every result, traced or not);
* :func:`convergence_report` renders the per-level residual-history
  tables behind ``repro trace --convergence``.

Residual histories are *relative* (``|r|/|b|``, starting at 1.0), the
convention every Krylov driver in :mod:`repro.solvers` follows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from ..telemetry.export import walk


@dataclass(frozen=True)
class DetectorConfig:
    """Thresholds of the plateau/stall/divergence detector.

    ``window`` iterations are examined at the tail of the history;
    ``plateau_per_iter`` is the geometric-mean per-iteration reduction
    factor above which progress counts as plateaued (1.0 = no
    reduction); ``stall_ratio`` is the net reduction over the whole
    window above which the solve counts as stalled; ``divergence_factor``
    is how far above its own best residual a solve may rise before it
    counts as diverging.
    """

    window: int = 8
    plateau_per_iter: float = 0.97
    stall_ratio: float = 0.999
    divergence_factor: float = 10.0

    def __post_init__(self):
        if self.window < 2:
            raise ValueError(f"detector window must be >= 2, got {self.window}")
        if not 0.0 < self.plateau_per_iter <= 1.0:
            raise ValueError(
                f"plateau_per_iter must be in (0, 1], got {self.plateau_per_iter}"
            )
        if self.divergence_factor <= 1.0:
            raise ValueError(
                f"divergence_factor must be > 1, got {self.divergence_factor}"
            )


DEFAULT_DETECTOR = DetectorConfig()


@dataclass(frozen=True)
class ConvergenceVerdict:
    """One detected anomaly in a residual history."""

    kind: str  # "plateau" | "stall" | "divergence"
    severity: str  # "warning" | "error"
    iteration: int  # history index at which the anomaly was established
    ratio: float  # the evidence value that crossed the threshold
    detail: str

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "severity": self.severity,
            "iteration": self.iteration,
            "ratio": self.ratio,
            "detail": self.detail,
        }


def detect_anomalies(
    history: Sequence[float], config: DetectorConfig | None = None
) -> list[ConvergenceVerdict]:
    """Classify a relative-residual history; empty list = healthy.

    Pure and cheap (one pass), so callers may run it on every solve:

    * **divergence** (error): some residual rose ``divergence_factor``
      above the best residual seen before it;
    * **stall** (error): over the last ``window`` iterations the net
      reduction is less than ``1 - stall_ratio`` — the solver is burning
      iterations without progress;
    * **plateau** (warning): the geometric-mean per-iteration reduction
      over the last ``window`` iterations is worse than
      ``plateau_per_iter`` — converging, but far off the expected
      multigrid rate (only reported when not already stalled).
    """
    cfg = config if config is not None else DEFAULT_DETECTOR
    out: list[ConvergenceVerdict] = []
    hist = [float(r) for r in history]
    if len(hist) < 2:
        return out

    best = hist[0]
    for i, r in enumerate(hist[1:], start=1):
        if best > 0.0 and r > cfg.divergence_factor * best:
            out.append(
                ConvergenceVerdict(
                    kind="divergence",
                    severity="error",
                    iteration=i,
                    ratio=r / best,
                    detail=(
                        f"residual rose to {r:.3e} at iteration {i}, "
                        f"{r / best:.1f}x above the best {best:.3e}"
                    ),
                )
            )
            break
        best = min(best, r)

    if len(hist) > cfg.window:
        tail_start = hist[-1 - cfg.window]
        tail_end = hist[-1]
        if tail_start > 0.0 and tail_end > 0.0:
            net = tail_end / tail_start
            per_iter = net ** (1.0 / cfg.window)
            if net >= cfg.stall_ratio:
                out.append(
                    ConvergenceVerdict(
                        kind="stall",
                        severity="error",
                        iteration=len(hist) - 1,
                        ratio=net,
                        detail=(
                            f"no progress over the last {cfg.window} iterations "
                            f"(net reduction {net:.4f})"
                        ),
                    )
                )
            elif per_iter > cfg.plateau_per_iter:
                out.append(
                    ConvergenceVerdict(
                        kind="plateau",
                        severity="warning",
                        iteration=len(hist) - 1,
                        ratio=per_iter,
                        detail=(
                            f"reduction slowed to {per_iter:.4f}/iteration over "
                            f"the last {cfg.window} iterations"
                        ),
                    )
                )
    return out


def subsample_history(
    history: Sequence[float], max_points: int
) -> list[tuple[int, float]]:
    """Evenly subsample ``history`` to at most ``max_points`` (iter, r) pairs.

    The first and last entries are always kept, so the overall reduction
    and the final residual survive subsampling exactly.
    """
    n = len(history)
    if n <= max_points:
        return [(i, float(r)) for i, r in enumerate(history)]
    stride = (n - 1) / (max_points - 1)
    indices = sorted({round(i * stride) for i in range(max_points)} | {0, n - 1})
    return [(i, float(history[i])) for i in indices]


def record_convergence(
    span,
    history: Sequence[float],
    max_points: int = 64,
    config: DetectorConfig | None = None,
) -> list[ConvergenceVerdict]:
    """Attach a solve's residual history to its span as bounded events.

    Emits one ``iteration`` event per (subsampled) history point plus
    one severity-tagged event per detected anomaly, and returns the
    verdicts so the caller can escalate (registry counters, flight
    recorder, blackbox dump).  Works on the shared null span too —
    events are then dropped but the verdicts are still returned.
    """
    for i, r in subsample_history(history, max_points):
        span.event("iteration", iteration=i, residual=r)
    verdicts = detect_anomalies(history, config)
    for v in verdicts:
        span.event(v.kind, severity=v.severity, iteration=v.iteration, ratio=v.ratio)
    return verdicts


# ----------------------------------------------------------------------
# reporting (`repro trace --convergence`)
# ----------------------------------------------------------------------
def collect_convergence_series(spans: Iterable[dict]) -> list[dict]:
    """Extract every span-borne residual series from a serialized forest.

    Returns one record per span that carries ``iteration`` events:
    ``{"level", "span", "points": [(iter, residual)], "anomalies"}``,
    with the multigrid level inherited from the nearest ancestor.
    """
    out: list[dict] = []
    for span, level in walk(spans):
        events = span.get("events", [])
        points = [
            (int(e["attrs"]["iteration"]), float(e["attrs"]["residual"]))
            for e in events
            if e.get("name") == "iteration" and "attrs" in e
        ]
        if not points:
            continue
        anomalies = [
            {
                "kind": e["name"],
                "severity": e.get("severity", "info"),
                **e.get("attrs", {}),
            }
            for e in events
            if e.get("name") in ("plateau", "stall", "divergence")
        ]
        out.append(
            {
                "level": level,
                "span": span["name"],
                "points": points,
                "anomalies": anomalies,
            }
        )
    return out


def convergence_report(spans: Iterable[dict], max_rows: int = 12) -> str:
    """Per-level convergence-history tables from a serialized span forest.

    Two parts: a per-series summary (level, span, iterations, final
    residual, geometric-mean reduction per iteration, anomaly verdicts)
    and, per level, the residual history of that level's longest series
    — the measured analogue of the paper's per-iteration analysis.
    """
    series = collect_convergence_series(spans)
    if not series:
        return "no convergence events recorded (telemetry off or no solves)"

    lines = ["convergence event streams"]
    header = f"{'level':>5}  {'span':<18} {'iters':>6} {'first':>10} {'last':>10} {'red/iter':>9}  anomalies"
    lines.append(header)
    lines.append("-" * len(header))
    for s in sorted(series, key=lambda s: (s["level"], s["span"])):
        first_i, first_r = s["points"][0]
        last_i, last_r = s["points"][-1]
        iters = last_i - first_i
        red = (
            (last_r / first_r) ** (1.0 / iters)
            if iters > 0 and first_r > 0 and last_r > 0
            else float("nan")
        )
        anomalies = (
            ", ".join(f"{a['kind']}({a['severity']})" for a in s["anomalies"])
            or "-"
        )
        lines.append(
            f"{s['level']:>5}  {s['span']:<18} {last_i:>6} {first_r:>10.3e} "
            f"{last_r:>10.3e} {red:>9.4f}  {anomalies}"
        )

    # per-level history table: longest series at each level
    by_level: dict[int, dict] = {}
    for s in series:
        cur = by_level.get(s["level"])
        if cur is None or len(s["points"]) > len(cur["points"]):
            by_level[s["level"]] = s
    for level in sorted(by_level):
        s = by_level[level]
        lines.append("")
        lines.append(
            f"level {level} residual history ({s['span']}, "
            f"{len(s['points'])} recorded points)"
        )
        lines.append(f"{'iter':>6} {'|r|/|b|':>12} {'ratio':>8}")
        rows = subsample_history([p[1] for p in s["points"]], max_rows)
        iters = [s["points"][i][0] for i, _ in rows]
        prev = None
        for (idx, r), it in zip(rows, iters):
            ratio = f"{r / prev:8.4f}" if prev not in (None, 0.0) else f"{'-':>8}"
            lines.append(f"{it:>6} {r:>12.4e} {ratio}")
            prev = r
    return "\n".join(lines)
