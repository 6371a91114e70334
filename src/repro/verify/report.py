"""Structured results of invariant checks.

Every registered invariant evaluates to one or more
:class:`InvariantReport` rows: a named pass/fail verdict carrying the
measured residual, the tolerance it was judged against, and arbitrary
context (level index, probe count, lattice).  A full registry run is a
:class:`VerificationReport` — renderable as a table, exportable as a
JSON document (schema ``repro.verify/v1``).
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass, field

from ..telemetry.export import write_document

SCHEMA = "repro.verify/v1"

#: Invariant severities, strongest first.  A ``critical`` failure means
#: the algebra the solver relies on is broken; a ``warning`` failure is
#: a quality/sanity signal (e.g. plaquette drift) that does not by
#: itself invalidate a solve.
SEVERITIES = ("critical", "warning")


@dataclass
class InvariantReport:
    """Outcome of one invariant evaluation.

    ``residual`` is the measured violation (a norm, already normalized
    so that exact algebra gives ~machine epsilon); ``tolerance`` is the
    threshold it was compared against.  ``error`` carries the exception
    text when the check itself crashed (which counts as a failure).
    """

    name: str
    passed: bool
    severity: str = "critical"
    residual: float = 0.0
    tolerance: float = 0.0
    context: dict = field(default_factory=dict)
    duration_s: float = 0.0
    error: str | None = None

    def __post_init__(self):
        if self.severity not in SEVERITIES:
            raise ValueError(
                f"severity must be one of {SEVERITIES}, got {self.severity!r}"
            )

    @classmethod
    def from_residual(
        cls,
        name: str,
        residual: float,
        tolerance: float,
        severity: str = "critical",
        **context,
    ) -> "InvariantReport":
        """The standard verdict: pass iff ``residual <= tolerance``."""
        residual = float(residual)
        return cls(
            name=name,
            passed=bool(residual <= tolerance),
            severity=severity,
            residual=residual,
            tolerance=float(tolerance),
            context=context,
        )

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "passed": bool(self.passed),
            "severity": self.severity,
            "residual": float(self.residual),
            "tolerance": float(self.tolerance),
            "context": dict(self.context),
            "duration_s": float(self.duration_s),
        }
        if self.error is not None:
            out["error"] = self.error
        return out

    def __repr__(self) -> str:
        state = "PASS" if self.passed else "FAIL"
        return (
            f"InvariantReport({self.name!r}, {state}, "
            f"residual={self.residual:.3e}, tol={self.tolerance:.3e})"
        )


@dataclass
class VerificationReport:
    """All reports of one registry run against one subject."""

    subject: str
    reports: list[InvariantReport] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.reports)

    @property
    def critical_passed(self) -> bool:
        return all(r.passed for r in self.reports if r.severity == "critical")

    def failures(self) -> list[InvariantReport]:
        return [r for r in self.reports if not r.passed]

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "subject": self.subject,
            "all_passed": self.all_passed,
            "critical_passed": self.critical_passed,
            "n_checks": len(self.reports),
            "n_failures": len(self.failures()),
            "meta": dict(self.meta),
            "reports": [r.to_dict() for r in self.reports],
        }

    def write(self, path) -> pathlib.Path:
        return write_document(path, self.to_dict())

    def render(self) -> str:
        """Human-readable verdict table."""
        header = f"{'invariant':<38} {'sev':<8} {'status':<6} {'residual':>12} {'tol':>10}"
        lines = [f"verify {self.subject}", header, "-" * len(header)]
        for r in self.reports:
            status = "PASS" if r.passed else "FAIL"
            detail = f"  [{r.error}]" if r.error else ""
            lines.append(
                f"{r.name:<38} {r.severity:<8} {status:<6} "
                f"{r.residual:>12.3e} {r.tolerance:>10.1e}{detail}"
            )
        verdict = "all invariants PASS" if self.all_passed else (
            f"{len(self.failures())} FAILURES"
        )
        lines.append("-" * len(header))
        lines.append(verdict)
        return "\n".join(lines)
