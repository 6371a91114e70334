"""Solver instrumentation helpers.

Every Krylov driver (``gcr``, ``bicgstab``, ``cg``, ``mr``, ...) wears
:func:`instrumented_solver`: with telemetry off the wrapper is a flag
test and a plain call; with telemetry on, the solve runs inside a
``solve.<name>`` span and books its iteration/matvec totals and final
residual into the global registry.  This is how the nested coarse-grid
GCR solves show up as children of the K-cycle spans without any solver
knowing about multigrid.
"""

from __future__ import annotations

import functools

from .metrics import get_registry
from .tracer import get_tracer


def record_solve(name: str, result) -> None:
    """Book a finished solve's totals into the global registry."""
    reg = get_registry()
    if not reg.enabled:
        return
    reg.counter("solver.solves", solver=name).inc()
    reg.counter("solver.iterations", solver=name).inc(result.iterations)
    reg.counter("solver.matvecs", solver=name).inc(result.matvecs)
    reg.histogram("solver.iterations_per_solve", solver=name).observe(
        result.iterations
    )
    reg.histogram("solver.final_residual", solver=name).observe(
        result.final_residual
    )


def record_invariant(report, origin: str = "registry") -> None:
    """Book one invariant verdict into the global registry.

    ``report`` is a :class:`~repro.verify.report.InvariantReport`; every
    evaluation books ``verify.checks`` and failures additionally book
    ``verify.failures``, labelled by ``invariant`` name and ``origin`` (the
    consumption layer: ``registry``, ``mg.setup``, ``mg.solve``,
    ``serve.register``, ``serve.solve``).
    """
    reg = get_registry()
    if not reg.enabled:
        return
    reg.counter("verify.checks", invariant=report.name, origin=origin).inc()
    if not report.passed:
        reg.counter("verify.failures", invariant=report.name, origin=origin).inc()
    reg.histogram("verify.residual", invariant=report.name).observe(report.residual)


def record_convergence_stream(name: str, sp, result) -> None:
    """Attach the per-iteration residual stream and anomaly verdicts.

    Every Krylov driver returns its relative-residual history; with
    telemetry on, that history becomes a bounded ``iteration`` event
    series on the driver's span (evenly subsampled past the span's
    event budget) plus severity-tagged plateau/stall/divergence events
    from the detector.  Verdicts are also booked into the registry
    (``solver.convergence_anomalies`` by kind) and onto the result's
    telemetry payload so non-traced consumers see them too.
    """
    history = getattr(result, "residual_history", None)
    if not history or len(history) < 2:
        return
    from ..obs.convergence import record_convergence

    verdicts = record_convergence(sp, history)
    if not verdicts:
        return
    sp.annotate(convergence_anomalies=[v.kind for v in verdicts])
    result.telemetry.attrs.setdefault("convergence_anomalies", []).extend(
        v.to_dict() for v in verdicts
    )
    reg = get_registry()
    if reg.enabled:
        for v in verdicts:
            reg.counter(
                "solver.convergence_anomalies", solver=name, kind=v.kind
            ).inc()


def instrumented_solver(name: str):
    """Decorate a ``solver(op, b, ...)`` entry point returning one
    ``SolveResult``, or a list of them for a solver that advances a
    stack of systems (one ``solve.<name>`` span for the stack, one
    ``solve.<name>.rhs`` child carrying each system's residual stream)."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer = get_tracer()
            if not tracer.enabled and not get_registry().enabled:
                return fn(*args, **kwargs)
            with tracer.span(f"solve.{name}") as sp:
                result = fn(*args, **kwargs)
                systems = result if isinstance(result, list) else [result]
                sp.annotate(
                    iterations=max((r.iterations for r in systems), default=0),
                    matvecs=max((r.matvecs for r in systems), default=0),
                    converged=all(r.converged for r in systems),
                    residual=max((r.final_residual for r in systems), default=0.0),
                )
                if len(systems) == 1:
                    record_convergence_stream(name, sp, systems[0])
                else:
                    sp.annotate(n_rhs=len(systems))
                    for i, res in enumerate(systems):
                        with tracer.span(f"solve.{name}.rhs", system=i) as child:
                            child.annotate(iterations=res.iterations)
                            record_convergence_stream(name, child, res)
            for res in systems:
                record_solve(name, res)
            return result

        return wrapper

    return decorate
