"""The multigrid K-cycle preconditioner (paper Section 7.1).

Each application at level ``l``:

1. pre-smooth with MR (red-black preconditioned),
2. restrict the defect,
3. solve the coarse system: with GCR preconditioned by the K-cycle of
   level ``l+1`` on intermediate levels (that nesting is what makes it a
   K-cycle rather than a V-cycle), directly on a coarsest grid small
   enough to hold densely below a coarse level
   (:attr:`~repro.mg.hierarchy.MGLevel.solved_directly`),
4. prolongate and correct,
5. post-smooth the defect of the corrected iterate.

The two smoothings are one relaxation of the Schur system, held
across the coarse correction
(:class:`~repro.mg.smoother.SchurMRSmoother`): the first hands back its
defect instead of an iterate, the second restarts from the corrected
Schur-parity iterate and reconstructs the other parity once.  The
cycle then applies no operator of its own.

The cycle computes on a stack ``(K, V, ns, nc)`` of residuals (paper
Section 9): every smoothing step, stencil, transfer and coarse Krylov
solve of every level is one call for all K systems, so a batch never
unstacks between entry and exit and each matrix is read once for the
whole batch.  A single right-hand side is the stack of one.

The cycle owns ``MGParams.coarse_precision`` (QUDA's "precondition
precision"): ``apply`` casts the residual to it once, on entry at level
0, and the whole body — smoothers, residuals, transfers, every nested
coarse solve — then follows the dtype of the data.

All work is counted in the cycle's own per-level :class:`LevelStats`
(``KCyclePreconditioner.counts``), which a solve creates and returns in
``result.telemetry.level_stats`` for the paper's Figure 4 time
breakdown; the hierarchy is only read.  :func:`booked`,
:func:`book_gcr` and :func:`book_direct` are the only places a counter
moves.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import partial

import numpy as np

from ..dirac.stencil import operator_application_cost_multi
from ..precision import dtype_of, enter_precision, leave_precision
from ..solvers.base import SolveResult
from ..solvers.gcr import lockstep_gcr
from ..solvers.mixed import reduced_storage
from ..telemetry.tracer import get_tracer
from .hierarchy import MGLevel, MultigridHierarchy


@dataclass
class LevelStats:
    """Work counters for one level of one solve.

    These drive the per-level time breakdown (paper Figure 4): the
    machine model converts them into kernel and reduction times.  The
    counters are deliberately plain attributes (hot-path increments);
    :meth:`as_dict` snapshots them and :meth:`publish` books them into
    a :class:`~repro.telemetry.MetricsRegistry` under ``mg.<counter>``
    with a ``level`` label.
    """

    op_applies: int = 0  # full-stencil applications (residuals, GCR matvecs)
    smoother_applies: int = 0  # Schur/MR smoothing steps (dslash-equivalents)
    gcr_iters: int = 0  # GCR iterations run at this level
    restricts: int = 0
    prolongs: int = 0
    reductions: int = 0  # global inner products / norms

    def as_dict(self) -> dict[str, int]:
        return asdict(self)

    def publish(self, registry, level: int) -> None:
        """Accumulate this snapshot into a metrics registry."""
        for name, value in self.as_dict().items():
            registry.counter(f"mg.{name}", level=level).inc(value)


def gcr_reductions(iterations: int, nkrylov: int) -> int:
    """Global reductions incurred by ``iterations`` GCR steps.

    Step ``j`` of a restart cycle performs ``j`` orthogonalization dots
    plus the ``<w,w>``, ``<w,r>`` and ``|r|`` reductions.
    """
    return sum((i % nkrylov) + 3 for i in range(iterations))


#: the LevelStats counter a cycle step bumps once per system
_STEP_COUNTER = {"residual": "op_applies", "restrict": "restricts", "prolong": "prolongs"}


def booked(
    lev: MGLevel, stats: LevelStats, step: str, fn, *args, **attrs
) -> np.ndarray:
    """Run the cycle step ``fn(*args)`` of level ``lev`` — the stack it
    works on last — with all of its bookkeeping: the level's work
    counters ``stats`` for the K systems, the span, and the span's
    ``(flops, bytes)`` when tracing is live."""
    k = args[-1].shape[0]
    if step == "smoother":
        # dslash-equivalents per system: the MR steps plus one — source
        # preparation and reconstruction, half each; a held pair spends
        # it as 1/2 + steps, then 1 + steps + 1/2, the same sum.  The
        # two reductions of an MR step count once for the stack: one
        # synchronisation point, however many systems it carries
        stats.smoother_applies += (lev.params.smoother_steps + 1) * k
        stats.reductions += 2 * lev.params.smoother_steps
    elif step in _STEP_COUNTER:
        counter = _STEP_COUNTER[step]
        setattr(stats, counter, getattr(stats, counter) + k)
    tracer = get_tracer()
    level = lev.index + 1 if step == "coarse-solve" else lev.index
    with tracer.span(step, level=level, n_rhs=k, **attrs) as sp:
        out = fn(*args)
        if tracer.enabled:
            sp.attribute(*_step_cost(lev, step, k, args[-1].dtype))
    return out


def _step_cost(lev: MGLevel, step: str, k: int, dtype) -> tuple[float, float]:
    if step in ("restrict", "prolong"):
        return lev.transfer.application_cost_multi(k, dtype)
    if step == "residual":
        return operator_application_cost_multi(lev.op, k, dtype)
    if step == "smoother":
        # at the dtype of the precision the smoother owns
        dtype = dtype_of(lev.smoother.precision)
        flops, nbytes = operator_application_cost_multi(lev.op, k, dtype)
        n = lev.params.smoother_steps + 1
        return (n * flops, n * nbytes)
    return (0.0, 0.0)  # kcycle, coarse-solve: their children book the work


def book_gcr(
    lev: MGLevel,
    stats: LevelStats,
    results: list[SolveResult],
    nkrylov: int,
    extra_applies: int = 0,
) -> None:
    """Book a finished lockstep GCR over ``lev.op``: into ``stats`` the
    applications each of the K systems received while it ran and, when
    tracing is live, the solver's own matvec cost (plus
    ``extra_applies`` stencil-equivalents per system spent around it).

    Work done by nested K-cycle spans books itself, so only the driver's
    direct operator applications land here — attributed costs stay
    exclusive, like span self-times.  They ran inside the ``solve.gcr``
    child of the open span (whose self-time excludes the nested
    preconditioner), so the cost goes there; the open span is the
    fallback.
    """
    k = len(results)
    # the GCR applies its operator to the systems still running only
    applies = sum(res.matvecs for res in results) + extra_applies * k
    stats.op_applies += applies
    stats.gcr_iters += sum(res.iterations for res in results)
    stats.reductions += sum(gcr_reductions(res.iterations, nkrylov) for res in results)
    span = get_tracer().current()
    if span is not None:
        # per system of a k-stack: its share of the matrix traffic
        flops, nbytes = operator_application_cost_multi(lev.op, k, results[0].x.dtype)
        target = next(
            (c for c in reversed(span.children) if c.name == "solve.gcr"), span
        )
        target.attribute(flops=applies * flops / k, bytes=applies * nbytes / k)


def book_direct(stats: LevelStats, schur, rc: np.ndarray) -> None:
    """Book a direct red-black solve of the stack ``rc`` into ``stats``: no
    iteration and no reduction happened, source preparation and
    reconstruction count a stencil each (as around the red-black GCR),
    and the open ``coarse-solve`` span carries the pair of triangular
    solves: ``n^2`` complex multiply-adds per system over one read of
    the factors."""
    k, n = rc.shape[0], schur.unknowns
    stats.op_applies += 2 * k
    span = get_tracer().current()
    if span is not None:
        span.annotate(direct=True)
        span.attribute(flops=8.0 * n * n * k, bytes=n * n * rc.dtype.itemsize)


class KCyclePreconditioner:
    """The K-cycle at a given level of a :class:`MultigridHierarchy`.

    Built once per solve: the next level's cycle is constructed here,
    not per coarse solve, and shares ``counts`` — one
    :class:`LevelStats` per level of the hierarchy, a fresh list unless
    the caller passes one — so the work of every level of a solve lands
    in the cycle it ran under and nowhere else.  The coarsest red-black
    system belongs to its level, so every cycle over one hierarchy — two
    solves, the fleet's replicas — shares one set of parity tables and
    one dense factorisation.
    """

    def __init__(
        self,
        hierarchy: MultigridHierarchy,
        level: int = 0,
        counts: list[LevelStats] | None = None,
    ):
        self.hierarchy = hierarchy
        self.level = level
        if counts is None:
            counts = [LevelStats() for _ in hierarchy.levels]
        self.counts = counts
        params = hierarchy.params
        coarse = hierarchy.levels[level + 1]
        self._inner: KCyclePreconditioner | None = None
        if not coarse.is_coarsest:
            self._inner = KCyclePreconditioner(hierarchy, level + 1, self.counts)
        # the coarsest level is solved on its red-black system, if any
        self._schur = coarse.schur if coarse.is_coarsest else None
        # what the coarse solve inverts, as the cycle's precision stores it
        self._solve_op = reduced_storage(
            coarse.op if self._schur is None else self._schur, params.coarse_precision
        )

    # ------------------------------------------------------------------
    def apply(self, r: np.ndarray) -> np.ndarray:
        """One cycle for a residual field ``(V, ns, nc)`` or a stack
        ``(K, V, ns, nc)`` of them."""
        rs = r[None] if r.ndim == 3 else r
        rp, scale = enter_precision(rs, self.hierarchy.params.coarse_precision)
        lev = self.hierarchy.levels[self.level]
        stats = self.counts[self.level]
        z = leave_precision(booked(lev, stats, "kcycle", self._cycle, rp), rs, scale)
        return z[0] if r.ndim == 3 else z

    def apply_multi(self, rs: np.ndarray) -> np.ndarray:
        """The stack protocol of the Krylov drivers: ``apply`` takes one."""
        return self.apply(rs)

    def _cycle(self, rs: np.ndarray) -> np.ndarray:
        lev = self.hierarchy.levels[self.level]
        transfer, smoother = lev.transfer, lev.smoother
        run = partial(booked, lev, self.counts[self.level])
        # 1. pre-smooth: hands back ``rs - M z`` and holds ``z`` on the
        # Schur parity
        r1, held = run("smoother", partial(smoother.apply, hold=True), rs, phase="pre")
        # 2. defect restriction
        rc = run("restrict", transfer.restrict_multi, r1)
        # 3. coarse solve (K-cycle-preconditioned GCR; direct or GCR when coarsest)
        ec = run("coarse-solve", self._coarse_solve, rc)
        # 4. prolongate and correct
        e = run("prolong", transfer.prolong_multi, ec)
        # 5. post-smooth the defect of the corrected iterate
        return run("smoother", partial(smoother.apply, resume=(held, e)), rs, phase="post")

    # ------------------------------------------------------------------
    def _coarse_solve(self, rc: np.ndarray) -> np.ndarray:
        params = self.hierarchy.params
        lp = self.hierarchy.levels[self.level].params
        coarse = self.hierarchy.levels[self.level + 1]
        stats = self.counts[coarse.index]
        if self._inner is not None and params.cycle_type != "K":
            # V- or W-cycle: apply the next level's cycle directly as an
            # approximate solve, once (V) or twice with defect correction (W)
            ec = self._inner.apply(rc)
            if params.cycle_type == "W":
                rc2 = rc - booked(coarse, stats, "residual", self._solve_op.apply_multi, ec)
                ec = ec + self._inner.apply(rc2)
            return ec
        schur = self._schur
        if coarse.solved_directly:
            # small enough to hold densely: no Krylov space to build
            book_direct(stats, schur, rc)
            half = self._solve_op.solve_multi(schur.prepare_multi(rc))
            return schur.reconstruct_multi(half, rc)
        nkrylov = lp.nkrylov if self._inner is None else coarse.params.nkrylov
        results = lockstep_gcr(
            self._solve_op,
            rc if schur is None else schur.prepare_multi(rc),
            tol=lp.coarse_tol,
            maxiter=lp.coarse_maxiter,
            nkrylov=nkrylov,
            preconditioner=self._inner,
        )
        # red-black: source preparation and reconstruction cost a stencil each
        book_gcr(coarse, stats, results, nkrylov, extra_applies=0 if schur is None else 2)
        ec = np.stack([res.x for res in results])
        return ec if schur is None else schur.reconstruct_multi(ec, rc)
