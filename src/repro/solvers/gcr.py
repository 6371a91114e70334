"""Flexible, restarted GCR — the multigrid outer and coarse solver.

The paper uses a recursively preconditioned generalized conjugate
residual with a Krylov subspace of 10 vectors as the outer solver on
the fine and intermediate levels and as the coarse-grid solver
(Section 7.1).  GCR is *flexible*: the preconditioner may change from
iteration to iteration, which is required because an MR-smoothed
K-cycle is a variable preconditioner.

There is one loop, :func:`lockstep_gcr`, and it works on a ``(K, ...)``
stack (paper Section 9): K *independent* Krylov spaces advance
together, every matvec and preconditioner application is one call for
all systems, and each system's reductions are BLAS ``?dotc`` calls on
its own row (:func:`~repro.solvers.base.batch_dot`) while its updates
are elementwise, so no system's arithmetic depends on what it is
batched with.  A converged (or zero) system leaves the stack's work: the
preconditioner and the operator are applied to the live systems only
(:func:`~repro.dirac.stencil.apply_stack` with ``live``), and its
coefficients are zeroed, so its iterate and residual stay exactly where
they were while the rest continue.  :func:`gcr` is the batch of one and
:func:`batched_gcr` the shape-checked stack.
"""

from __future__ import annotations

import numpy as np

from ..dirac.stencil import apply_stack
from .base import Lockstep, SolveResult, batch_dot, per_system, validate_rhs_stack


def lockstep_gcr(
    op,
    bs: np.ndarray,
    x0s: np.ndarray | None = None,
    tol: float = 1e-8,
    maxiter: int = 1000,
    nkrylov: int = 10,
    preconditioner=None,
) -> list[SolveResult]:
    """Right-preconditioned restarted GCR(``nkrylov``) on a stack ``bs``.

    ``op`` and ``preconditioner`` (an approximate solve of ``M z = r``,
    e.g. a multigrid cycle or a smoother) are applied through
    ``apply_multi`` when they have it and system by system otherwise.
    Each iteration performs one preconditioner application and one
    operator application; global reductions per iteration grow with the
    Krylov index (the classical GCR orthogonalization), which is exactly
    the latency profile that makes the coarsest grid
    synchronization-bound at scale (paper Figure 4).  The restart depth
    is shared, so no system's iterates depend on what it is batched
    with.  Only the systems still running are handed to ``op`` and
    ``preconditioner``.  Returns one :class:`SolveResult` per system;
    ``matvecs`` counts the operator applications made while that system
    was running, ``telemetry.attrs["matvec_batches"]`` the stacked calls.
    """
    run = Lockstep(op, bs, x0s, tol)
    xs, rs, active, targets = run.xs, run.rs, run.active, run.targets
    basis: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []  # (z, w, <w,w>)
    it = 0
    while it < maxiter and active.any():
        if len(basis) == nkrylov:  # restart
            basis.clear()
        live = np.flatnonzero(active)
        if preconditioner is None:
            z = rs.copy()
            z[~active] = 0
        else:
            z = apply_stack(preconditioner, rs, live)
        w = run.matvec(z, live)
        # modified Gram-Schmidt against the current cycle's directions
        for zi, wi, wn in basis:
            proj = per_system(batch_dot(wi, w) / wn, w)
            w -= proj * wi
            z -= proj * zi
        wn = np.real(batch_dot(w, w))
        moving = active & (wn > 0)
        if not moving.any():
            # every live system broke down: a fresh space may still move
            # them, an empty one cannot (stagnation)
            if not basis:
                break
            basis.clear()
            continue
        wn = np.where(wn > 0, wn, 1.0)
        alpha = np.where(moving, batch_dot(w, rs) / wn, 0.0)  # the mask
        xs += per_system(alpha, xs) * z
        rs -= per_system(alpha, rs) * w
        basis.append((z, w, wn))
        it += 1
        rnorms = np.sqrt(np.real(batch_dot(rs, rs)))
        run.record(active, rnorms, it)
        active &= ~(rnorms < targets)

    # a NaN right-hand side has no norm to converge against
    last = np.array([history[-1] for history in run.histories])
    return run.results((run.bnorms == 0) | (last * run.bnorms <= targets))


def gcr(
    op,
    b: np.ndarray,
    x0: np.ndarray | None = None,
    tol: float = 1e-8,
    maxiter: int = 1000,
    nkrylov: int = 10,
    preconditioner=None,
) -> SolveResult:
    """GCR for one system ``M x = b``: a batch of one."""
    x0s = None if x0 is None else x0[None]
    return lockstep_gcr(op, b[None], x0s, tol, maxiter, nkrylov, preconditioner)[0]


def batched_gcr(
    op,
    bs: np.ndarray,
    tol: float = 1e-8,
    maxiter: int = 1000,
    nkrylov: int = 10,
    preconditioner=None,
) -> list[SolveResult]:
    """GCR for ``M x_k = b_k`` on a stack ``bs`` of shape ``(K, V, ns, nc)``,
    checked against ``op`` first; one :class:`SolveResult` per system."""
    bs = validate_rhs_stack(op, bs)
    return lockstep_gcr(op, bs, None, tol, maxiter, nkrylov, preconditioner)
