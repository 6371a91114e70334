"""Declarative SLOs over sliding windows, with burn-rate alerting.

A service-level objective here is a statement like "99% of requests in
the last 10 minutes complete within 30 s" or "fewer than 1% of requests
in the window fail to converge".  :class:`SLOMonitor` holds a set of
:class:`SLOSpec` declarations, observes the request-lifecycle events
(:class:`repro.serve.slog.RequestEvent`) the serve tier also books its
metrics from, keeps the sliding window of per-request outcomes, and
evaluates compliance plus *burn rate* — how fast the error budget is
being consumed relative to the rate that would exactly exhaust it over
the window (burn rate 1.0 = on budget, 2.0 = budget gone in half a
window).  Breaches and fast burns are pushed into
the ``repro.serve`` structured log (and therefore the flight recorder),
so an SLO alert lands in the same stream a postmortem reads.

Objectives:

* ``latency_p50`` / ``latency_p95`` / ``latency_p99`` — the implied
  error budget is the quantile's complement (1% of requests may exceed
  a p99 threshold); compliance is "windowed quantile <= threshold".
* ``error_rate`` — failed or timed-out requests; ``threshold`` *is* the
  budget fraction.
* ``timeout_rate`` — timed-out requests only.
* ``convergence_failure_rate`` — requests whose solve finished without
  reaching tolerance (the paper-specific failure mode a generic serving
  stack has no name for).
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Sequence

from ..telemetry.metrics import percentile

#: objective name -> implied error-budget fraction for latency quantiles
_LATENCY_OBJECTIVES = {
    "latency_p50": 50.0,
    "latency_p95": 95.0,
    "latency_p99": 99.0,
}
_RATE_OBJECTIVES = ("error_rate", "timeout_rate", "convergence_failure_rate")


@dataclass(frozen=True)
class SLOSpec:
    """One declarative objective evaluated over a sliding window."""

    name: str
    objective: str  # see module docstring
    threshold: float  # seconds for latency_*, budget fraction for *_rate
    window_s: float = 600.0

    def __post_init__(self):
        if self.objective not in _LATENCY_OBJECTIVES and (
            self.objective not in _RATE_OBJECTIVES
        ):
            raise ValueError(
                f"unknown SLO objective {self.objective!r}; valid: "
                f"{sorted((*_LATENCY_OBJECTIVES, *_RATE_OBJECTIVES))}"
            )
        if self.threshold <= 0:
            raise ValueError(f"threshold must be > 0, got {self.threshold}")
        if self.objective in _RATE_OBJECTIVES and self.threshold >= 1.0:
            raise ValueError(
                f"rate threshold is a fraction in (0, 1), got {self.threshold}"
            )
        if self.window_s <= 0:
            raise ValueError(f"window_s must be > 0, got {self.window_s}")

    @property
    def budget_fraction(self) -> float:
        """Fraction of requests allowed to be 'bad' within the window."""
        if self.objective in _LATENCY_OBJECTIVES:
            return 1.0 - _LATENCY_OBJECTIVES[self.objective] / 100.0
        return self.threshold

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "objective": self.objective,
            "threshold": self.threshold,
            "window_s": self.window_s,
        }


DEFAULT_SLOS: tuple[SLOSpec, ...] = (
    SLOSpec("latency-p99", "latency_p99", threshold=30.0),
    SLOSpec("error-rate", "error_rate", threshold=0.01),
    SLOSpec("convergence-failures", "convergence_failure_rate", threshold=0.01),
)


class _Outcome(NamedTuple):
    """What one finished request contributes to the windows."""

    ts: float
    latency_s: float
    kind: str  # completed | failed | timeout
    converged: bool

    def bad_for(self, spec: SLOSpec) -> bool:
        if spec.objective in _LATENCY_OBJECTIVES:
            return self.latency_s > spec.threshold
        if spec.objective == "error_rate":
            return self.kind != "completed"
        if spec.objective == "timeout_rate":
            return self.kind == "timeout"
        return not self.converged  # convergence_failure_rate


@dataclass(frozen=True)
class SLOStatus:
    """One spec's verdict at evaluation time."""

    spec: SLOSpec
    n: int  # requests in window
    bad: int  # budget-consuming requests in window
    measured: float  # windowed quantile (latency) or rate
    compliant: bool
    burn_rate: float  # bad-fraction / budget-fraction (0 when empty)

    def to_dict(self) -> dict:
        return {
            "spec": self.spec.to_dict(),
            "n": self.n,
            "bad": self.bad,
            "measured": self.measured,
            "compliant": self.compliant,
            "burn_rate": self.burn_rate,
        }


def _default_alert(event: str, **fields) -> None:
    """Alerts go to the serve structured log (and flight recorder)."""
    from ..serve.slog import log_event

    log_event(event, **fields)


#: hard cap on retained outcomes, independent of window duration — a
#: misconfigured week-long window cannot turn the monitor into a leak
MAX_OUTCOMES = 65536


class SLOMonitor:
    """Sliding-window SLO evaluation over per-request outcomes.

    ``observe`` takes every lifecycle event; ``evaluate`` prunes
    the window and returns one :class:`SLOStatus` per spec.  Burn rates
    above ``alert_burn_rate`` (and any outright breach) emit
    ``slo_alert`` events through ``alert`` — by default into the
    ``repro.serve`` structured log, which also feeds the flight
    recorder, so SLO trouble is on the postmortem timeline.
    """

    def __init__(
        self,
        specs: Iterable[SLOSpec] = DEFAULT_SLOS,
        alert_burn_rate: float = 2.0,
        alert: Callable[..., None] | None = None,
    ):
        self.specs = tuple(specs)
        if not self.specs:
            raise ValueError("SLOMonitor needs at least one spec")
        self.alert_burn_rate = float(alert_burn_rate)
        self._alert = alert if alert is not None else _default_alert
        self._outcomes: deque[_Outcome] = deque(maxlen=MAX_OUTCOMES)
        self._max_window = max(s.window_s for s in self.specs)
        self._alerted: set[str] = set()  # specs currently in alert state

    # -- ingestion ------------------------------------------------------
    def observe(self, event) -> None:
        """Take one request-lifecycle event: ``completed``, ``failed`` and
        ``timeout`` add one outcome per request they settle, at the
        event's ``ts``; every other kind (``cancelled`` too) is ignored."""
        if event.kind not in ("completed", "failed", "timeout"):
            return
        for i, latency in enumerate(event.waits_s):
            ok = not event.results or bool(event.results[i].converged)
            self._outcomes.append(_Outcome(event.ts, latency, event.kind, ok))

    def _prune(self, now: float) -> None:
        horizon = now - self._max_window
        while self._outcomes and self._outcomes[0].ts < horizon:
            self._outcomes.popleft()

    # -- evaluation -----------------------------------------------------
    def evaluate(self, now: float | None = None) -> list[SLOStatus]:
        now = now if now is not None else time.time()
        self._prune(now)
        statuses: list[SLOStatus] = []
        for spec in self.specs:
            window = [o for o in self._outcomes if o.ts >= now - spec.window_s]
            n = len(window)
            bad = sum(1 for o in window if o.bad_for(spec))
            if spec.objective in _LATENCY_OBJECTIVES:
                measured = percentile(
                    [o.latency_s for o in window], _LATENCY_OBJECTIVES[spec.objective]
                )
                compliant = n == 0 or measured <= spec.threshold
            else:
                measured = bad / n if n else 0.0
                compliant = measured <= spec.threshold
            burn = (bad / n) / spec.budget_fraction if n else 0.0
            status = SLOStatus(spec, n, bad, measured, compliant, burn)
            statuses.append(status)
            self._maybe_alert(status)
        return statuses

    def _maybe_alert(self, status: SLOStatus) -> None:
        """Edge-triggered: one alert entering breach, one on recovery."""
        name = status.spec.name
        firing = status.n > 0 and (
            not status.compliant or status.burn_rate >= self.alert_burn_rate
        )
        if firing and name not in self._alerted:
            self._alerted.add(name)
            self._alert(
                "slo_alert",
                slo=name,
                objective=status.spec.objective,
                severity="error" if not status.compliant else "warning",
                measured=status.measured,
                threshold=status.spec.threshold,
                burn_rate=status.burn_rate,
                window_n=status.n,
            )
        elif not firing and name in self._alerted:
            self._alerted.discard(name)
            self._alert(
                "slo_recovered",
                slo=name,
                objective=status.spec.objective,
                severity="info",
                measured=status.measured,
                threshold=status.spec.threshold,
            )


def render_slo_table(statuses: Sequence[SLOStatus], title: str = "SLO compliance") -> str:
    """Aligned compliance table for a list of evaluated statuses."""
    lines = [title]
    header = (
        f"{'slo':<22} {'objective':<26} {'window':>7} {'n':>6} "
        f"{'measured':>10} {'threshold':>10} {'burn':>6}  verdict"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for s in statuses:
        spec = s.spec
        unit = "s" if spec.objective in _LATENCY_OBJECTIVES else ""
        measured = f"{s.measured:.3g}{unit}"
        threshold = f"{spec.threshold:.3g}{unit}"
        if s.n == 0:
            # an empty window is neither compliant nor breached — say so
            # instead of printing a vacuous "ok" over zero requests
            verdict = "no data"
        else:
            verdict = "ok" if s.compliant else "BREACH"
        lines.append(
            f"{spec.name:<22} {spec.objective:<26} {spec.window_s:>6.0f}s "
            f"{s.n:>6} {measured:>10} {threshold:>10} {s.burn_rate:>6.2f}  {verdict}"
        )
    return "\n".join(lines)
