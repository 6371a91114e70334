"""``repro perf trend``: regression scanning over the bench trajectory.

``repro perf diff`` is pairwise; a slow drift (or a regression landed
three PRs ago) never trips a pairwise gate against the immediately
preceding entry.  The ledger therefore keeps a compact per-suite
*trajectory* — ``BENCH_<suite>.history.json``, one point per
``bench run`` with each benchmark's median/MAD
(:func:`repro.perf.ledger.trajectory_point`) — and this module scans
it sequentially:

for each benchmark key and each point, the baseline is the median of
the preceding ``window`` points and the noise scale is the robust
sigma (``1.4826 × MAD``) of that baseline, floored at a relative
fraction of the baseline so a perfectly quiet series cannot alert on
microseconds.  A point is a **changepoint** when its robust z-score
clears ``z`` *and* its relative change clears ``tolerance`` — the same
two-condition gate as ``perf diff``, applied along the time axis.

The headline verdict is the *latest* point per key (that is what CI
cares about: is HEAD regressed against its own recent history?); older
changepoints are reported as annotations so a regression's landing
point is named even when later entries normalized it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ...perf.diff import MAD_TO_SIGMA
from ...perf.ledger import TRAJECTORY_SCHEMA, load_trajectory

__all__ = [
    "TrendPointVerdict",
    "TrendReport",
    "load_trajectory",
    "scan_trajectory",
    "trend_main",
]

#: relative sigma floor: a baseline quieter than this fraction of its
#: own median is treated as having at least this much noise — shared-host
#: wall-clock benches routinely jitter 10% between back-to-back runs, so
#: a tighter floor turns scheduler noise into changepoints
MIN_REL_SIGMA = 0.10


@dataclass
class TrendPointVerdict:
    """One evaluated trajectory point for one benchmark key."""

    key: str
    index: int
    ts: float | None
    git_rev: str
    median: float
    baseline: float
    ratio: float
    zscore: float
    verdict: str  # "ok" | "regression" | "improvement"

    def to_dict(self) -> dict:
        return {
            "key": self.key,
            "index": self.index,
            "ts": self.ts,
            "git_rev": self.git_rev,
            "median": self.median,
            "baseline": self.baseline,
            "ratio": self.ratio,
            "zscore": self.zscore,
            "verdict": self.verdict,
        }


@dataclass
class TrendReport:
    """The full trajectory scan; ``exit_code`` is the CI verdict."""

    n_points: int = 0
    window: int = 5
    z: float = 3.0
    tolerance: float = 0.10
    min_points: int = 4
    latest: dict[str, TrendPointVerdict] = field(default_factory=dict)
    changepoints: list[TrendPointVerdict] = field(default_factory=list)

    @property
    def sufficient(self) -> bool:
        return self.n_points > self.min_points

    @property
    def regressions(self) -> list[TrendPointVerdict]:
        return [v for v in self.latest.values() if v.verdict == "regression"]

    @property
    def exit_code(self) -> int:
        return 1 if self.regressions else 0

    def to_dict(self) -> dict:
        return {
            "schema": "repro.perf-trend/v1",
            "n_points": self.n_points,
            "window": self.window,
            "z": self.z,
            "tolerance": self.tolerance,
            "sufficient": self.sufficient,
            "verdict": "regression" if self.regressions else "ok",
            "latest": {k: v.to_dict() for k, v in sorted(self.latest.items())},
            "changepoints": [v.to_dict() for v in self.changepoints],
        }

    def render(self) -> str:
        lines = [
            f"perf trend: {self.n_points} trajectory point(s), "
            f"window {self.window}, z={self.z:g}, "
            f"tolerance {self.tolerance:.0%}"
        ]
        if not self.sufficient:
            lines.append(
                f"insufficient history ({self.n_points} point(s), need > "
                f"{self.min_points}): run `repro bench run` to grow the "
                f"trajectory; verdict: OK"
            )
            return "\n".join(lines)
        for key in sorted(self.latest):
            v = self.latest[key]
            mark = {"regression": "✗", "improvement": "✓", "ok": " "}[v.verdict]
            lines.append(
                f"  {mark} {key}: {v.median:.6g}s vs baseline "
                f"{v.baseline:.6g}s ({v.ratio:+.1%}, z={v.zscore:+.1f})"
            )
        if self.changepoints:
            lines.append("changepoints along the trajectory:")
            for v in self.changepoints:
                rev = v.git_rev[:12] if v.git_rev else "?"
                lines.append(
                    f"  point {v.index} ({rev}) {v.key}: "
                    f"{v.verdict} {v.ratio:+.1%} (z={v.zscore:+.1f})"
                )
        lines.append(
            f"verdict: {'REGRESSED' if self.regressions else 'OK'}"
        )
        return "\n".join(lines)


def _series(points: list[dict]) -> dict[str, list[tuple[int, dict]]]:
    """Per-benchmark ordered (point-index, stats) series."""
    out: dict[str, list[tuple[int, dict]]] = {}
    for i, point in enumerate(points):
        for key, stats in point.get("benchmarks", {}).items():
            out.setdefault(key, []).append((i, stats))
    return out


def scan_trajectory(
    trajectory: dict,
    window: int = 5,
    z: float = 3.0,
    tolerance: float = 0.10,
    min_points: int = 4,
) -> TrendReport:
    """Sequential robust-z changepoint scan over one trajectory document."""
    if trajectory.get("schema") != TRAJECTORY_SCHEMA:
        raise ValueError(
            f"perf trend needs {TRAJECTORY_SCHEMA!r} documents, got "
            f"{trajectory.get('schema')!r}"
        )
    points = list(trajectory.get("points", []))
    report = TrendReport(
        n_points=len(points),
        window=window,
        z=z,
        tolerance=tolerance,
        min_points=min_points,
    )
    if not report.sufficient:
        return report
    for key, series in _series(points).items():
        if len(series) <= min_points:
            continue
        medians = [float(stats.get("median", 0.0)) for _, stats in series]
        for j in range(min_points, len(series)):
            lo = max(0, j - window)
            baseline = np.asarray(medians[lo:j], dtype=float)
            base = float(np.median(baseline))
            if base <= 0.0:
                continue
            mad = float(np.median(np.abs(baseline - base)))
            sigma = max(MAD_TO_SIGMA * mad, MIN_REL_SIGMA * base)
            x = medians[j]
            zscore = (x - base) / sigma
            ratio = (x - base) / base
            verdict = "ok"
            if zscore > z and ratio > tolerance:
                verdict = "regression"
            elif zscore < -z and ratio < -tolerance:
                verdict = "improvement"
            idx, _ = series[j]
            point = points[idx]
            evaluated = TrendPointVerdict(
                key=key,
                index=idx,
                ts=point.get("ts"),
                git_rev=str(point.get("git_rev", "")),
                median=x,
                baseline=base,
                ratio=ratio,
                zscore=zscore,
                verdict=verdict,
            )
            if verdict != "ok" and j < len(series) - 1:
                report.changepoints.append(evaluated)
            if j == len(series) - 1:
                report.latest[key] = evaluated
    report.changepoints.sort(key=lambda v: (v.index, v.key))
    return report


def trend_main(args) -> int:
    """Implementation of ``repro perf trend`` (routed from repro.perf.cli)."""
    import json
    import pathlib

    path = pathlib.Path(
        args.history
        if args.history is not None
        else f"BENCH_{args.suite}.history.json"
    )
    if not path.is_file():
        print(
            f"perf trend: no trajectory at {path} — run `repro bench run "
            f"--suite {args.suite}` a few times to grow one; verdict: OK"
        )
        return 0
    try:
        trajectory = load_trajectory(path)
        report = scan_trajectory(
            trajectory,
            window=args.window,
            z=args.z,
            tolerance=args.tolerance,
            min_points=args.min_points,
        )
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}")
        return 2
    print(report.render())
    if args.json is not None:
        out = pathlib.Path(args.json)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(
            json.dumps(report.to_dict(), indent=1, sort_keys=True) + "\n"
        )
    if args.warn_only:
        return 0
    return report.exit_code
