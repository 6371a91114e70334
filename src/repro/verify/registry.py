"""The invariant registry.

An *invariant* is a named, severity-tagged algebraic property of the
Wilson-clover / multigrid stack (gamma5-hermiticity, P†P = I, the
Galerkin condition, Schur equivalence, ...), implemented as a function
``fn(ctx) -> InvariantReport | list[InvariantReport]`` over a
:class:`~repro.verify.context.VerifyContext`.  Implementations register
themselves with the :func:`invariant` decorator; two consumers share
the registry:

* the ``repro check <dataset>`` CLI (:mod:`repro.verify.runner`),
* the pytest bridge (``tests/test_verify_registry.py``), which runs
  every entry as a parametrized tier-1 test.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

from ..telemetry.metrics import get_registry
from ..telemetry.tracer import get_tracer
from .report import SEVERITIES, InvariantReport, VerificationReport


@dataclass(frozen=True)
class Invariant:
    """One registered check."""

    name: str
    fn: Callable
    severity: str = "critical"
    description: str = ""
    paper_ref: str = ""  # paper equation/section the invariant protects
    needs: str = "operator"  # cheapest context the check requires:
    #   "gauge" | "operator" | "hierarchy" | "solve"
    tags: tuple[str, ...] = field(default_factory=tuple)


REGISTRY: dict[str, Invariant] = {}

_NEEDS = ("gauge", "operator", "hierarchy", "solve")


def invariant(
    name: str,
    severity: str = "critical",
    description: str = "",
    paper_ref: str = "",
    needs: str = "operator",
    tags: tuple[str, ...] = (),
):
    """Class decorator registering ``fn`` as the invariant ``name``."""
    if severity not in SEVERITIES:
        raise ValueError(f"severity must be one of {SEVERITIES}, got {severity!r}")
    if needs not in _NEEDS:
        raise ValueError(f"needs must be one of {_NEEDS}, got {needs!r}")

    def decorate(fn: Callable) -> Callable:
        if name in REGISTRY:
            raise ValueError(f"invariant {name!r} registered twice")
        REGISTRY[name] = Invariant(
            name=name,
            fn=fn,
            severity=severity,
            description=description or (fn.__doc__ or "").strip().splitlines()[0],
            paper_ref=paper_ref,
            needs=needs,
            tags=tuple(tags),
        )
        return fn

    return decorate


def names() -> list[str]:
    """All registered invariant names, sorted."""
    _load_checks()
    return sorted(REGISTRY)


def get(name: str) -> Invariant:
    _load_checks()
    try:
        return REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown invariant {name!r}; registered: {sorted(REGISTRY)}"
        ) from None


def _load_checks() -> None:
    """Import the standard check implementations (idempotent)."""
    from . import checks  # noqa: F401  (registers on import)


def run_invariant(inv: Invariant, ctx) -> list[InvariantReport]:
    """Evaluate one invariant; a crash inside the check is a failure.

    Every report is timed, stamped with the invariant's severity, and
    booked into the telemetry registry/tracer (``verify.*``) when
    telemetry is enabled.
    """
    t0 = time.perf_counter()
    with get_tracer().span("verify.invariant", invariant=inv.name) as sp:
        try:
            out = inv.fn(ctx)
        except Exception as exc:  # a crashing check must not hide the defect
            out = InvariantReport(
                name=inv.name,
                passed=False,
                severity=inv.severity,
                error=f"{type(exc).__name__}: {exc}",
            )
        reports = list(out) if isinstance(out, (list, tuple)) else [out]
        dt = time.perf_counter() - t0
        for r in reports:
            r.severity = inv.severity
            r.duration_s = dt / len(reports)
        if hasattr(sp, "annotate"):
            sp.annotate(passed=all(r.passed for r in reports), checks=len(reports))
    registry = get_registry()
    for r in reports:
        # ``origin``: the consumer that ran the check
        registry.counter("verify.checks", invariant=r.name, origin="registry").inc()
        if not r.passed:
            registry.counter("verify.failures", invariant=r.name, origin="registry").inc()
        registry.histogram("verify.residual", invariant=r.name).observe(r.residual)
    return reports


def run_registry(
    ctx,
    names_filter: list[str] | None = None,
    max_needs: str = "solve",
) -> VerificationReport:
    """Run (a subset of) the registry against a context.

    ``names_filter`` selects specific invariants; ``max_needs`` caps the
    expense tier (e.g. ``"operator"`` skips anything that would have to
    build a hierarchy or run a solve).
    """
    _load_checks()
    allowed = _NEEDS[: _NEEDS.index(max_needs) + 1]
    if names_filter is not None:
        missing = [n for n in names_filter if n not in REGISTRY]
        if missing:
            raise KeyError(
                f"unknown invariants {missing}; registered: {sorted(REGISTRY)}"
            )
        selected = [REGISTRY[n] for n in sorted(names_filter)]
    else:
        selected = [
            REGISTRY[n] for n in sorted(REGISTRY) if REGISTRY[n].needs in allowed
        ]
    report = VerificationReport(subject=ctx.subject)
    with get_tracer().span("verify.registry", subject=ctx.subject):
        for inv in selected:
            report.reports.extend(run_invariant(inv, ctx))
    report.meta.update(ctx.meta())
    return report
