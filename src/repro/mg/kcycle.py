"""The multigrid K-cycle preconditioner (paper Section 7.1).

Each application at level ``l``:

1. pre-smooth with MR (red-black preconditioned),
2. restrict the residual,
3. solve the coarse system with GCR — itself preconditioned by the
   K-cycle of level ``l+1`` on intermediate levels (that nesting is what
   makes it a K-cycle rather than a V-cycle),
4. prolongate and correct,
5. post-smooth.

The cycle owns ``MGParams.coarse_precision`` (QUDA's "precondition
precision"): ``apply`` casts the residual to it once, on entry at level
0, and the whole body — smoothers, residuals, transfers, every nested
coarse solve — then follows the dtype of the data.

All work is recorded in the per-level :class:`~repro.mg.hierarchy.LevelStats`
so the benchmark harness can reproduce the paper's Figure 4 time
breakdown.
"""

from __future__ import annotations

import numpy as np

from ..dirac.even_odd import SchurOperator
from ..precision import COMPLEX128, dtype_of, enter_precision, leave_precision
from ..solvers.base import OperatorCounter
from ..solvers.gcr import gcr
from ..solvers.mixed import reduced_storage
from ..telemetry.tracer import get_tracer
from .hierarchy import MGLevel, MultigridHierarchy


def operator_application_cost(op, dtype=COMPLEX128) -> tuple[float, float]:
    """``(flops, bytes)`` of one application to a ``dtype`` field, (0, 0)
    for opaque operators.

    Most operators inherit the hook from
    :class:`~repro.dirac.stencil.StencilOperator` (bytes at the itemsize
    actually streamed); wrappers that do not expose it simply go
    unattributed rather than breaking the solve.
    """
    fn = getattr(op, "application_cost", None)
    return fn(dtype) if fn is not None else (0.0, 0.0)


def operator_application_cost_multi(
    op, k: int, dtype=COMPLEX128
) -> tuple[float, float]:
    """``(flops, bytes)`` of one *batched* application over ``k`` systems.

    Operators exposing ``application_cost_multi`` (the stencil
    hierarchy) get the matrices-read-once traffic model; anything else
    falls back to ``k`` independent applications.
    """
    fn = getattr(op, "application_cost_multi", None)
    if fn is not None:
        return fn(k, dtype)
    flops, nbytes = operator_application_cost(op, dtype)
    return (k * flops, k * nbytes)


def smoothing_dtype(smoother, r: np.ndarray) -> np.dtype:
    """The dtype ``smoother`` streams when handed ``r``: that of the
    precision it owns, or ``r``'s own when it declares none."""
    precision = getattr(smoother, "precision", None)
    return r.dtype if precision is None else dtype_of(precision)


def gcr_reductions(iterations: int, nkrylov: int) -> int:
    """Global reductions incurred by ``iterations`` GCR steps.

    Step ``j`` of a restart cycle performs ``j`` orthogonalization dots
    plus the ``<w,w>``, ``<w,r>`` and ``|r|`` reductions.
    """
    return sum((i % nkrylov) + 3 for i in range(iterations))


class KCyclePreconditioner:
    """The K-cycle at a given level of a :class:`MultigridHierarchy`."""

    def __init__(self, hierarchy: MultigridHierarchy, level: int = 0):
        self.hierarchy = hierarchy
        self.level = level
        self.last_inner_iterations = 0

    # ------------------------------------------------------------------
    def apply(self, r: np.ndarray) -> np.ndarray:
        rp, scale = enter_precision(r, self.hierarchy.params.coarse_precision)
        return leave_precision(self._cycle(rp), r, scale)

    def _cycle(self, r: np.ndarray) -> np.ndarray:
        lev = self.hierarchy.levels[self.level]
        assert lev.params is not None and lev.transfer is not None
        stats = lev.stats
        tracer = get_tracer()

        # span cost attribution (repro.perf); cached tuples, fetched only
        # when tracing is live so the disabled path stays two flag tests
        traced = tracer.enabled
        op_cost = operator_application_cost(lev.op, r.dtype) if traced else (0.0, 0.0)
        tr_cost = lev.transfer.application_cost(r.dtype) if traced else (0.0, 0.0)

        with tracer.span("kcycle", level=self.level):
            # 1. pre-smooth
            z = self._smooth(lev, r, phase="pre")

            # 2. defect restriction
            stats.op_applies += 1
            with tracer.span("residual", level=self.level) as sp:
                r1 = r - lev.op.apply(z)
                sp.attribute(*op_cost)
            stats.restricts += 1
            with tracer.span("restrict", level=self.level) as sp:
                rc = lev.transfer.restrict(r1)
                sp.attribute(*tr_cost)

            # 3. coarse solve (GCR; K-cycle-preconditioned unless coarsest)
            with tracer.span("coarse-solve", level=self.level + 1) as sp:
                ec = self._coarse_solve(rc, sp)

            # 4. prolongate and correct
            stats.prolongs += 1
            with tracer.span("prolong", level=self.level) as sp:
                z = z + lev.transfer.prolong(ec)
                sp.attribute(*tr_cost)

            # 5. post-smooth
            stats.op_applies += 1
            with tracer.span("residual", level=self.level) as sp:
                r2 = r - lev.op.apply(z)
                sp.attribute(*op_cost)
            z = z + self._smooth(lev, r2, phase="post")
        return z

    # ------------------------------------------------------------------
    def _smooth(self, lev: MGLevel, r: np.ndarray, phase: str = "pre") -> np.ndarray:
        assert lev.smoother is not None and lev.params is not None
        lev.stats.smoother_applies += lev.params.smoother_steps + 1
        lev.stats.reductions += 2 * lev.params.smoother_steps
        tracer = get_tracer()
        with tracer.span("smoother", level=lev.index, phase=phase) as sp:
            out = lev.smoother.apply(r)
            if tracer.enabled:
                # smoother_applies counts dslash-equivalents, so the
                # attributed cost is that many full stencil applications;
                # it runs inside the instrumented solve.* child span when
                # the smoother is a Krylov method, so pair the cost with
                # that span's self-time
                flops, nbytes = operator_application_cost(
                    lev.op, smoothing_dtype(lev.smoother, r)
                )
                n = lev.params.smoother_steps + 1
                target = next(
                    (
                        c
                        for c in reversed(sp.children)
                        if c.name.startswith("solve.")
                    ),
                    sp,
                )
                target.attribute(flops=n * flops, bytes=n * nbytes)
        return out

    def _coarse_solve(self, rc: np.ndarray, span=None) -> np.ndarray:
        params = self.hierarchy.params
        lp = self.hierarchy.levels[self.level].params
        assert lp is not None
        coarse = self.hierarchy.levels[self.level + 1]
        stats = coarse.stats

        if coarse.is_coarsest:
            ec = self._coarsest_solve(coarse, rc, lp, span=span)
        elif params.cycle_type == "K":
            cp = coarse.params
            assert cp is not None
            inner_pre = KCyclePreconditioner(self.hierarchy, self.level + 1)
            op = OperatorCounter(self._stored(coarse.op), stats=stats)
            res = gcr(
                op,
                rc,
                tol=lp.coarse_tol,
                maxiter=lp.coarse_maxiter,
                nkrylov=cp.nkrylov,
                preconditioner=inner_pre,
            )
            stats.gcr_iters += res.iterations
            stats.reductions += gcr_reductions(res.iterations, cp.nkrylov)
            self._attribute_matvecs(span, coarse, res.matvecs, rc.dtype)
            if span is not None:
                span.annotate(
                    coarse_iterations=res.iterations,
                    coarse_converged=res.converged,
                    coarse_residual=res.final_residual,
                )
            ec = res.x
        else:
            # V- or W-cycle: apply the next level's cycle directly as an
            # approximate solve, once (V) or twice with defect correction (W)
            inner = KCyclePreconditioner(self.hierarchy, self.level + 1)
            ec = inner.apply(rc)
            if params.cycle_type == "W":
                stats.op_applies += 1
                rc2 = rc - self._stored(coarse.op).apply(ec)
                self._attribute_matvecs(span, coarse, 1, rc.dtype)
                ec = ec + inner.apply(rc2)
        return ec

    @staticmethod
    def _attribute_matvecs(span, coarse: MGLevel, matvecs: int, dtype) -> None:
        """Book the GCR's own matvec cost where its time is measured.

        Work done by nested K-cycle spans books itself, so only the
        driver's direct operator applications land here — attributed
        costs stay exclusive, like span self-times.  The matvecs run
        inside the instrumented ``solve.*`` child span (whose self-time
        excludes the nested preconditioner), so the cost goes there;
        the bare coarse-solve span is the fallback.
        """
        if span is None or not matvecs:
            return
        flops, nbytes = operator_application_cost(coarse.op, dtype)
        target = next(
            (
                c
                for c in reversed(getattr(span, "children", []))
                if c.name.startswith("solve.")
            ),
            span,
        )
        target.attribute(flops=matvecs * flops, bytes=matvecs * nbytes)

    def _coarsest_solve(
        self, coarse: MGLevel, rc: np.ndarray, lp, span=None
    ) -> np.ndarray:
        params = self.hierarchy.params
        stats = coarse.stats
        nk = lp.nkrylov
        if params.coarsest_schur:
            schur = SchurOperator(coarse.op, parity=0)
            rs = schur.prepare_source(rc)
            stats.op_applies += 1
            op = OperatorCounter(self._stored(schur), stats=stats)
            res = gcr(op, rs, tol=lp.coarse_tol, maxiter=lp.coarse_maxiter, nkrylov=nk)
            stats.op_applies += 1
            ec = schur.reconstruct(res.x, rc)
        else:
            op = OperatorCounter(self._stored(coarse.op), stats=stats)
            res = gcr(op, rc, tol=lp.coarse_tol, maxiter=lp.coarse_maxiter, nkrylov=nk)
            ec = res.x
        stats.gcr_iters += res.iterations
        stats.reductions += gcr_reductions(res.iterations, nk)
        extra = 2 if params.coarsest_schur else 0  # source prep + reconstruct
        self._attribute_matvecs(span, coarse, res.matvecs + extra, rc.dtype)
        if span is not None:
            span.annotate(
                coarse_iterations=res.iterations,
                coarse_converged=res.converged,
                coarse_residual=res.final_residual,
            )
        return ec

    def _stored(self, op):
        return reduced_storage(op, self.hierarchy.params.coarse_precision)
