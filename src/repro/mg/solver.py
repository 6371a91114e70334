"""The complete multigrid solver: outer GCR preconditioned by a K-cycle.

The outermost solver runs in double precision (paper Section 7.1); GCR
is used because it is flexible and therefore tolerant of the variable
preconditioner that the MR-smoothed K-cycle is.

There is one solve, :meth:`MultigridSolver.solve_multi`, on a stack of
right-hand sides (paper Section 9): the outer GCR advances the K
systems in lockstep and every level of the cycle is applied to all of
them at once.  :meth:`MultigridSolver.solve` is the stack of one.
"""

from __future__ import annotations

import numpy as np

from ..fields import SpinorField
from ..solvers.base import SolveResult, validate_rhs_stack
from ..solvers.gcr import lockstep_gcr
from ..telemetry.metrics import get_registry
from ..telemetry.tracer import Span, get_tracer
from .hierarchy import MultigridHierarchy
from .kcycle import KCyclePreconditioner, LevelStats, book_gcr
from .params import MGParams


class MultigridSolver:
    """Adaptive geometric multigrid for a nearest-neighbour stencil operator.

    Parameters
    ----------
    fine_op:
        The fine-grid operator (typically a
        :class:`~repro.dirac.wilson.WilsonCloverOperator`).
    params:
        The level configuration (:class:`~repro.mg.params.MGParams`).
    rng:
        Random generator driving the adaptive setup.
    """

    def __init__(
        self,
        fine_op,
        params: MGParams,
        rng: np.random.Generator | None = None,
        verbose: bool = False,
        null_vectors: list[list[np.ndarray]] | None = None,
    ):
        rng = rng if rng is not None else np.random.default_rng()
        self.params = params
        self.hierarchy = MultigridHierarchy.build(
            fine_op, params, rng, verbose, null_vectors=null_vectors
        )
        # no solve reads it (each builds its own cycle): the benchmark
        # harness resolves the cycle class through it
        self.preconditioner = KCyclePreconditioner(self.hierarchy, level=0)

    @classmethod
    def from_hierarchy(
        cls, hierarchy: MultigridHierarchy, params: MGParams | None = None
    ) -> "MultigridSolver":
        """Wrap an already-built hierarchy (e.g. one served from a
        setup cache) without re-running any setup."""
        self = cls.__new__(cls)
        self.params = params if params is not None else hierarchy.params
        self.hierarchy = hierarchy
        self.preconditioner = KCyclePreconditioner(hierarchy, level=0)
        return self

    # ------------------------------------------------------------------
    def solve(
        self,
        b: np.ndarray | SpinorField,
        tol: float | None = None,
        maxiter: int | None = None,
        x0: np.ndarray | None = None,
    ) -> SolveResult:
        """Solve ``M x = b``; per-level work lands in ``result.telemetry``."""
        data = b.data if isinstance(b, SpinorField) else np.asarray(b)
        x0s = None if x0 is None else x0[None]
        return self.solve_multi(data[None], tol=tol, maxiter=maxiter, x0s=x0s)[0]

    def solve_field(self, b: SpinorField, **kwargs) -> tuple[SpinorField, SolveResult]:
        res = self.solve(b, **kwargs)
        lattice = self.hierarchy.levels[0].op.lattice
        return SpinorField(lattice, res.x), res

    def solve_multi(
        self,
        bs: np.ndarray,
        batched: bool | None = None,
        tol: float | None = None,
        maxiter: int | None = None,
        x0s: np.ndarray | None = None,
    ) -> list[SolveResult]:
        """Solve ``M x_k = b_k`` for a stack ``bs`` of shape ``(K, V, ns, nc)``.

        The K systems share the multigrid setup, every stencil, transfer
        and smoothing matrix on every level (read once per application
        for the whole stack) and the reductions of each outer iteration;
        their Krylov spaces stay their own, so no result depends on what
        it was batched with.  The per-level work of the whole stack is
        counted by this call's own cycle, so solves running at once over
        one hierarchy never book into each other's, and lands in every
        ``result.telemetry``.
        """
        # ``batched`` selects nothing: callers written against the two
        # solve paths (the benchmark harness) still pass it
        fine = self.hierarchy.levels[0]
        bs = validate_rhs_stack(fine.op, bs)
        if not len(bs):
            return []
        tol = tol if tol is not None else self.params.outer_tol
        maxiter = maxiter if maxiter is not None else self.params.outer_maxiter
        cycle = KCyclePreconditioner(self.hierarchy)
        with get_tracer().span(
            "mg.solve",
            subspace=self.params.subspace_label(),
            level=0,
            n_rhs=len(bs),
        ) as sp:
            results = lockstep_gcr(
                fine.op,
                bs,
                x0s,
                tol=tol,
                maxiter=maxiter,
                nkrylov=self.params.outer_nkrylov,
                preconditioner=cycle,
            )
            book_gcr(fine, cycle.counts[0], results, self.params.outer_nkrylov)
        self._publish_telemetry(results, sp, cycle.counts)
        return results

    def _publish_telemetry(
        self, results: list[SolveResult], sp, counts: list[LevelStats]
    ) -> None:
        """Fill every ``result.telemetry`` and the global metrics registry
        with this solve's per-level ``counts``."""
        subspace = self.params.subspace_label()
        snapshot = {level: stats.as_dict() for level, stats in enumerate(counts)}
        spans = [sp.to_dict()] if isinstance(sp, Span) else None
        for result in results:
            tele = result.telemetry
            tele.level_stats = snapshot
            tele.attrs["subspace"] = subspace
            tele.metrics["outer_iterations"] = float(result.iterations)
            tele.metrics["final_residual"] = float(result.final_residual)
            if spans is not None:
                # the request trace this solve belongs to (serve
                # propagation; a served batch runs under its head
                # request's context); lets slog/blackbox consumers join
                # on the result alone
                tele.attrs["trace_id"] = sp.trace_id
                tele.spans = spans
        registry = get_registry()
        if registry.enabled:
            registry.gauge("mg.n_levels").set(self.hierarchy.n_levels)
            registry.counter("mg.solves", subspace=subspace).inc(len(results))
            registry.counter("mg.outer_iterations", subspace=subspace).inc(
                sum(result.iterations for result in results)
            )
            failures = sum(not result.converged for result in results)
            if failures:
                registry.counter("mg.convergence_failures", subspace=subspace).inc(
                    failures
                )
            for level, stats in enumerate(counts):
                stats.publish(registry, level)
