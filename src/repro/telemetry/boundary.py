"""The boundary table: every span the numerics show in a trace.

The numerics (``repro.dirac mg solvers coarse transfer precision``) open
no span and publish no metric; they count their work as data
(``LevelStats``, ``SolveResult``).  A :class:`Row` names a callable (an
owner, class or module, and an attribute), the span a call opens, the
level it reports and the call's ``(flops, bytes)``.  :func:`install`
(``telemetry.enable``) wraps every row's callable and :func:`uninstall`
(``disable``) puts the originals back, so untraced numerics run
unwrapped.  A module-level function is wrapped on its module: a copy
taken with ``from ... import`` is not traced.  Importing this module
imports everything its wrappers call (``repro.telemetry`` imports it
only when tracing is switched on).
"""

from __future__ import annotations

import functools
import inspect
import threading
from typing import Any, NamedTuple

import numpy as np

from ..coarse import CoarseOperator, galerkin
from ..dirac import mrhs
from ..dirac.stencil import operator_application_cost_multi as stencil_cost
from ..dirac.wilson import WilsonCloverOperator
from ..lattice import NDIM
from ..mg import hierarchy, kcycle, setup, smoother, solver
from ..obs.convergence import record_convergence
from ..precision import dtype_of
from ..solvers import bicgstab, gcr
from ..transfer import Transfer
from .metrics import get_registry
from .tracer import Span, get_tracer

#: level rule: the enclosing span's level, recorded on this one
INHERIT = "inherit"


class Row(NamedTuple):
    """One traced callable.  ``level`` is ``INHERIT``, ``None`` (no level
    attribute) or ``(self, args) -> int``; ``cost`` is ``(self, args,
    result) -> (flops, bytes)``; ``attrs`` ``(self, args) -> dict`` opens
    the span; ``finish(span, self, args, result)`` runs in the open span
    after the call, ``publish`` the same after it closed.  ``args`` maps
    every parameter to its value; ``self`` is ``None`` for a function."""

    owner: Any
    attr: str
    name: str
    level: Any = None
    cost: Any = None
    attrs: Any = None
    finish: Any = None
    publish: Any = None


def _n_rhs(key: str):
    return lambda self, a: {"n_rhs": len(a[key])}


def _below(self, a) -> int:
    return self.level + 1


def _systems(r) -> int:
    return 1 if r.ndim == 3 else len(r)


def _smoother_attrs(self, a) -> dict:
    attrs = {"n_rhs": _systems(a["r"])}
    if a["hold"] or a["resume"] is not None:
        attrs["phase"] = "pre" if a["hold"] else "post"
    return attrs


def _smoothing_cost(self, a, result):
    # the MR steps plus one (source preparation and reconstruction), each
    # a stencil of the level's operator, at the smoother's precision
    flops, nbytes = stencil_cost(self.schur.op, _systems(a["r"]), dtype_of(self.precision))
    return (self.steps + 1) * flops, (self.steps + 1) * nbytes


def _transfer_cost(key: str):
    return lambda self, a, out: self.application_cost_multi(len(a[key]), a[key].dtype)


def _coarse_solve_attrs(self, a) -> dict:
    attrs = {"n_rhs": len(a["rc"])}
    if self.hierarchy.levels[self.level + 1].solved_directly:
        attrs["direct"] = True
    return attrs


def _coarse_solve_cost(self, a, result):
    # a direct solve: two triangular solves, n^2 complex multiply-adds per
    # system over one read of the factors; an iterated one books below
    coarse = self.hierarchy.levels[self.level + 1]
    if not coarse.solved_directly:
        return 0.0, 0.0
    n = coarse.schur.unknowns
    return 8.0 * n * n * len(a["rc"]), n * n * a["rc"].dtype.itemsize


def _factor_seconds(span, self, a, result) -> None:
    # assembly plus factorisation: the two children
    get_registry().gauge("mg.coarsest_factor_s", dtype=span.attrs["dtype"]).set(
        sum(child.duration_s for child in span.children)
    )


def _publish_solve(span, self, a, results) -> None:
    spans = [span.to_dict()]
    for result in results:
        # the request trace the solve ran under (a served batch: its head
        # request's), so consumers join on the result alone
        result.telemetry.attrs["trace_id"] = span.trace_id
        result.telemetry.spans = spans
    if not results:
        return
    registry, subspace = get_registry(), self.params.subspace_label()
    registry.gauge("mg.n_levels").set(self.hierarchy.n_levels)
    registry.counter("mg.solves", subspace=subspace).inc(len(results))
    registry.counter("mg.outer_iterations", subspace=subspace).inc(
        sum(r.iterations for r in results)
    )
    if failures := sum(not r.converged for r in results):
        registry.counter("mg.convergence_failures", subspace=subspace).inc(failures)
    for level, counts in results[0].telemetry.level_stats.items():
        for name, value in counts.items():
            registry.counter(f"mg.{name}", level=level).inc(value)


def _relaxation_cost(self, a, vectors):
    # the Schur application forming the sources and the reconstruction's
    # half; the solver's applications book on its solve.bicgstab child
    dtype = setup.relaxation_dtype(a["op"], a["dtype"])
    return tuple(1.5 * c for c in stencil_cost(a["op"], a["n_vectors"], dtype))


def _relaxation_note(span, self, a, vectors) -> None:
    solve = next((c for c in reversed(span.children) if c.name == "solve.bicgstab"), None)
    if solve is not None:
        span.annotate(
            system="red-black", n_rhs=a["n_vectors"],
            dtype=setup.relaxation_dtype(a["op"], a["dtype"]).name,
            iterations=solve.attrs["iterations"], residual_max=solve.attrs["residual"],
            applies=solve.attrs["applies"],
        )


def _galerkin_cost(self, a, result):
    # per chiral stack: one full restrict plus the crossing slabs' share of
    # one per direction, and the site-local term with the four forward
    # hops (that share of the 2 NDIM + 1 terms) on half a full stack
    op, transfer = a["op"], a["transfer"]
    bv = transfer.blocking.block_volume
    restricts = 1 + sum(bv // b for b in transfer.blocking.block) / bv
    applies = (1 + NDIM) / (1 + 2 * NDIM) / 2
    flops = nbytes = 0.0
    for _, _, k in galerkin.column_chunks(op, transfer):
        (t_flops, t_bytes), (m_flops, m_bytes) = (
            transfer.application_cost_multi(k), op.application_cost_multi(k)
        )
        flops += restricts * t_flops + applies * m_flops
        nbytes += restricts * t_bytes + applies * m_bytes
    return flops, nbytes


def _convergence_stream(name: str, span, result) -> None:
    """A system's residual history as the span's bounded ``iteration``
    events plus the detector's verdicts, which also land on the result
    and in ``solver.convergence_anomalies``."""
    history = result.residual_history
    if len(history) < 2:
        return
    verdicts = record_convergence(span, history)
    if not verdicts:
        return
    span.annotate(convergence_anomalies=[v.kind for v in verdicts])
    result.telemetry.attrs.setdefault("convergence_anomalies", []).extend(
        v.to_dict() for v in verdicts
    )
    for v in verdicts:
        get_registry().counter("solver.convergence_anomalies", solver=name, kind=v.kind).inc()


def _krylov_row(module, name: str, around: int) -> Row:
    """``solve.<name>`` around a lockstep driver: its own applications,
    each system's share of every stacked one it received, cost the
    stencil behind the operator (through precision storage and red-black
    systems; on a red-black system, the coarsest level iterated,
    ``around`` more per system: its source preparation and
    reconstruction).  A stack's systems become ``.rhs`` children."""

    def cost(self, a, results):
        if not results:
            return 0.0, 0.0
        op, k, extra = a["op"], len(results), 0
        while hasattr(op, "op"):
            extra = around * k if hasattr(op, "reconstruct_multi") else extra
            op = op.op
        applies = sum(r.matvecs for r in results) + extra
        flops, nbytes = stencil_cost(op, k, results[0].x.dtype)
        return applies * flops / k, applies * nbytes / k

    def finish(span, self, a, systems) -> None:
        span.annotate(
            iterations=max((r.iterations for r in systems), default=0),
            matvecs=max((r.matvecs for r in systems), default=0),
            applies=sum(r.matvecs for r in systems),
            converged=all(r.converged for r in systems),
            residual=max((r.final_residual for r in systems), default=0.0),
        )
        if len(systems) == 1:
            _convergence_stream(name, span, systems[0])
            return
        span.annotate(n_rhs=len(systems))
        for i, res in enumerate(systems):
            with get_tracer().span(f"solve.{name}.rhs", system=i) as child:
                child.annotate(iterations=res.iterations)
                _convergence_stream(name, child, res)

    def publish(span, self, a, systems) -> None:
        registry = get_registry()
        for res in systems:
            registry.counter("solver.solves", solver=name).inc()
            registry.counter("solver.iterations", solver=name).inc(res.iterations)
            registry.counter("solver.matvecs", solver=name).inc(res.matvecs)
            registry.histogram("solver.iterations_per_solve", solver=name).observe(res.iterations)
            registry.histogram("solver.final_residual", solver=name).observe(res.final_residual)

    return Row(module, f"lockstep_{name}", f"solve.{name}", None, cost, None, finish, publish)


_cycle = kcycle.KCyclePreconditioner
_schur = mrhs.BatchedCoarseSchur



ROWS = (
    # a solve: outer GCR -> K-cycle per level -> its steps
    Row(solver.MultigridSolver, "solve_multi", "mg.solve", lambda self, a: 0,
        attrs=lambda self, a: {"subspace": self.params.subspace_label(), "n_rhs": len(a["bs"])},
        publish=_publish_solve),
    _krylov_row(gcr, "gcr", around=2),
    Row(_cycle, "_cycle", "kcycle", lambda self, a: self.level, attrs=_n_rhs("rs")),
    Row(smoother.SchurMRSmoother, "apply", "smoother", INHERIT, _smoothing_cost, _smoother_attrs),
    Row(Transfer, "restrict_multi", "restrict", INHERIT, _transfer_cost("fines"), _n_rhs("fines")),
    Row(_cycle, "_coarse_solve", "coarse-solve", _below, _coarse_solve_cost, _coarse_solve_attrs),
    Row(_cycle, "_residual", "residual", _below, attrs=_n_rhs("ec"),
        cost=lambda self, a, out: stencil_cost(
            self.hierarchy.levels[self.level + 1].op, len(a["ec"]), a["ec"].dtype)),
    Row(Transfer, "prolong_multi", "prolong", INHERIT, _transfer_cost("coarses"), _n_rhs("coarses")),
    Row(_schur, "_factorise", "mg.coarsest.factor", finish=_factor_seconds,
        attrs=lambda self, a: {"n": self.unknowns, "dtype": np.dtype(a["dtype"]).name}),
    Row(_schur, "to_dense", "mg.coarsest.assemble"),
    Row(mrhs, "lu_rows", "mg.coarsest.lu"),
    # a setup: per level relax -> orthonormalise -> Galerkin product
    Row(hierarchy.MultigridHierarchy, "build", "mg.setup",
        attrs=lambda cls, a: {"n_levels": len(a["params"].levels) + 1}),
    Row(hierarchy, "_coarsening", "mg.setup.level", lambda self, a: a["index"]),
    Row(hierarchy, "_provided_null_vectors", "null-vectors-reuse", INHERIT),
    Row(setup, "generate_null_vectors", "null-vectors", INHERIT, _relaxation_cost,
        finish=_relaxation_note,
        # per call, so that setup caches can assert a warm hit ran none
        publish=lambda span, self, a, out: get_registry().counter(
            "mg.null_vector_generations").inc(a["n_vectors"])),
    _krylov_row(bicgstab, "bicgstab", around=0),
    Row(Transfer, "__init__", "transfer-build", INHERIT),
    Row(galerkin, "coarsen_operator", "coarsen", INHERIT, _galerkin_cost),
    Row(WilsonCloverOperator, "apply_hop_sites", "coarsen.hop", INHERIT),
    Row(CoarseOperator, "apply_hop_sites", "coarsen.hop", INHERIT),
    Row(Transfer, "restrict_slab", "coarsen.restrict", INHERIT),
)


def _traced(row: Row, fn, method: bool):
    signature, tracer = inspect.signature(fn), get_tracer()

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        call = signature.bind(*args, **kwargs)
        call.apply_defaults()
        a, self = call.arguments, args[0] if method else None
        attrs = row.attrs(self, a) if row.attrs else {}
        if row.level == INHERIT:
            level = tracer.level()
        else:
            level = row.level(self, a) if row.level else None
        if level is not None:
            attrs["level"] = level
        span = tracer.span(row.name, **attrs)
        if not isinstance(span, Span):  # tracing is off: a call racing disable()
            return fn(*args, **kwargs)
        with span:
            result = fn(*args, **kwargs)
            if row.cost:
                span.attribute(*row.cost(self, a, result))
            if row.finish:
                row.finish(span, self, a, result)
        if row.publish:
            row.publish(span, self, a, result)
        return result

    return traced


_installed: list[tuple[Any, str, Any]] = []
_lock = threading.Lock()


def install() -> None:
    """Wrap every row's callable (once: a second call does nothing)."""
    with _lock:
        for row in () if _installed else ROWS:
            original = vars(row.owner)[row.attr]
            if isinstance(original, classmethod):
                wrapped = classmethod(_traced(row, original.__func__, method=True))
            else:
                wrapped = _traced(row, original, method=isinstance(row.owner, type))
            setattr(row.owner, row.attr, wrapped)
            _installed.append((row.owner, row.attr, original))


def uninstall() -> None:
    """Put every original callable back."""
    with _lock:
        while _installed:
            owner, attr, original = _installed.pop()
            setattr(owner, attr, original)
