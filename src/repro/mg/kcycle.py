"""The multigrid K-cycle preconditioner (paper Section 7.1).

Each application at level ``l``:

1. pre-smooth with MR (red-black preconditioned),
2. restrict the defect,
3. solve the coarse system: with GCR preconditioned by the K-cycle of
   level ``l+1`` on intermediate levels (that nesting is what makes it a
   K-cycle rather than a V-cycle); on the coarsest level its red-black
   system, directly where it is small enough to hold densely below a
   coarse level (:attr:`~repro.mg.hierarchy.MGLevel.solved_directly`)
   and with GCR otherwise,
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
breakdown; the hierarchy is only read.  The cycle opens no span: a
trace shows its steps through :mod:`repro.telemetry.boundary`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from ..precision import enter_precision, leave_precision
from ..solvers import gcr
from ..solvers.base import SolveResult
from ..solvers.mixed import reduced_storage
from .hierarchy import MGLevel, MultigridHierarchy


@dataclass
class LevelStats:
    """Work counters for one level of one solve.

    These drive the per-level time breakdown (paper Figure 4): the
    machine model converts them into kernel and reduction times.  The
    counters are deliberately plain attributes (hot-path increments);
    :meth:`as_dict` snapshots them.
    """

    op_applies: int = 0  # full-stencil applications (residuals, GCR matvecs)
    smoother_applies: int = 0  # Schur/MR smoothing steps (dslash-equivalents)
    gcr_iters: int = 0  # GCR iterations run at this level
    restricts: int = 0
    prolongs: int = 0
    reductions: int = 0  # global inner products / norms

    def as_dict(self) -> dict[str, int]:
        return asdict(self)


def gcr_reductions(iterations: int, nkrylov: int) -> int:
    """Global reductions incurred by ``iterations`` GCR steps.

    Step ``j`` of a restart cycle performs ``j`` orthogonalization dots
    plus the ``<w,w>``, ``<w,r>`` and ``|r|`` reductions.
    """
    return sum((i % nkrylov) + 3 for i in range(iterations))


def booked(lev: MGLevel, stats: LevelStats, k: int) -> None:
    """Count one smoothing of ``k`` systems on level ``lev`` into ``stats``:
    dslash-equivalents per system, the MR steps plus one — source
    preparation and reconstruction, half each; a held pair spends it as
    1/2 + steps, then 1 + steps + 1/2, the same sum.  The two reductions
    of an MR step count once for the stack: one synchronisation point,
    however many systems it carries."""
    stats.smoother_applies += (lev.params.smoother_steps + 1) * k
    stats.reductions += 2 * lev.params.smoother_steps


def book_gcr(
    stats: LevelStats,
    results: list[SolveResult],
    nkrylov: int,
    extra_applies: int = 0,
) -> None:
    """Book a finished lockstep GCR into ``stats``: the applications each
    of the K systems received while it ran (plus ``extra_applies``
    stencil-equivalents per system spent around it), its iterations and
    its reductions."""
    stats.op_applies += sum(res.matvecs for res in results) + extra_applies * len(results)
    stats.gcr_iters += sum(res.iterations for res in results)
    stats.reductions += sum(gcr_reductions(res.iterations, nkrylov) for res in results)


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
        # what the coarse solve inverts, as the cycle's precision stores
        # it: the coarse operator under the next level's cycle, the
        # red-black system on the coarsest level
        self._solve_op = reduced_storage(
            coarse.op if self._inner is not None else coarse.schur,
            params.coarse_precision,
        )

    # ------------------------------------------------------------------
    def apply(self, r: np.ndarray) -> np.ndarray:
        """One cycle for a residual field ``(V, ns, nc)`` or a stack
        ``(K, V, ns, nc)`` of them."""
        rs = r[None] if r.ndim == 3 else r
        rp, scale = enter_precision(rs, self.hierarchy.params.coarse_precision)
        z = leave_precision(self._cycle(rp), rs, scale)
        return z[0] if r.ndim == 3 else z

    def apply_multi(self, rs: np.ndarray) -> np.ndarray:
        """The stack protocol of the Krylov drivers: ``apply`` takes one."""
        return self.apply(rs)

    def _cycle(self, rs: np.ndarray) -> np.ndarray:
        lev = self.hierarchy.levels[self.level]
        transfer, smoother = lev.transfer, lev.smoother
        stats, k = self.counts[self.level], rs.shape[0]
        # 1. pre-smooth: hands back ``rs - M z`` and holds ``z`` on the
        # Schur parity
        booked(lev, stats, k)
        r1, held = smoother.apply(rs, hold=True)
        # 2. defect restriction
        stats.restricts += k
        rc = transfer.restrict_multi(r1)
        # 3. coarse solve (K-cycle-preconditioned GCR; direct or GCR when coarsest)
        ec = self._coarse_solve(rc)
        # 4. prolongate and correct
        stats.prolongs += k
        e = transfer.prolong_multi(ec)
        # 5. post-smooth the defect of the corrected iterate
        booked(lev, stats, k)
        return smoother.apply(rs, resume=(held, e))

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
                ec = ec + self._inner.apply(rc - self._residual(ec))
            return ec
        if self._inner is not None:
            # K-cycle: GCR on the coarse operator, preconditioned by its cycle
            results = gcr.lockstep_gcr(
                self._solve_op,
                rc,
                tol=lp.coarse_tol,
                maxiter=lp.coarse_maxiter,
                nkrylov=coarse.params.nkrylov,
                preconditioner=self._inner,
            )
            book_gcr(stats, results, coarse.params.nkrylov)
            return np.stack([res.x for res in results])
        schur = coarse.schur
        if coarse.solved_directly:
            # small enough to hold densely: no Krylov space to build, no
            # iteration and no reduction; source preparation and
            # reconstruction count a stencil each, as around the GCR
            stats.op_applies += 2 * rc.shape[0]
            half = self._solve_op.solve_multi(schur.prepare_multi(rc))
            return schur.reconstruct_multi(half, rc)
        results = gcr.lockstep_gcr(
            self._solve_op,
            schur.prepare_multi(rc),
            tol=lp.coarse_tol,
            maxiter=lp.coarse_maxiter,
            nkrylov=lp.nkrylov,
        )
        # source preparation and reconstruction cost a stencil each
        book_gcr(stats, results, lp.nkrylov, extra_applies=2)
        return schur.reconstruct_multi(np.stack([res.x for res in results]), rc)

    def _residual(self, ec: np.ndarray) -> np.ndarray:
        """The coarse operator on the W-cycle's first correction ``ec``."""
        self.counts[self.level + 1].op_applies += ec.shape[0]
        return self._solve_op.apply_multi(ec)
