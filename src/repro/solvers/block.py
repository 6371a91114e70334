"""Multiple-right-hand-side (batched and block) Krylov solving.

Paper Section 9: "Another avenue to increase parallelism is to
reformulate MG as a multiple-right-hand-side solver ... For N right
hand sides, we thus expose N-way additional parallelism, as well as
increasing the temporal locality of the problem, e.g., the same stencil
operator is used for all systems."

The lockstep form — K *independent* Krylov spaces advanced together —
is :func:`repro.solvers.gcr.batched_gcr`, the one GCR loop.  Here live
the true *block* methods in the O'Leary sense (the
Richtmann–Meyer–Wettig MRHS-multigrid follow-up, arXiv:2211.13719):
:func:`block_gcr` / :func:`block_cg` share one Krylov space among all K
right-hand sides, so each iteration enlarges the space by up to K
directions and every system is corrected with a K-wide coefficient
matrix.  Rank deficiency across the batch (nearly dependent residuals)
is handled by QR re-orthonormalization with column dropping, and
converged systems are masked out of the coefficient matrices so their
residual can never regress while the rest of the block continues.
"""

from __future__ import annotations

import numpy as np

from .base import SolveResult, validate_rhs_stack
from .gcr import gcr

#: relative diagonal-of-R threshold below which a block column is
#: treated as linearly dependent and dropped from the shared space
RANK_TOL = 1e-10


def _block_results(
    solver: str,
    xs_mat: np.ndarray,
    shape: tuple[int, ...],
    histories: list[list[float]],
    iters: np.ndarray,
    bnorms: np.ndarray,
    tol: float,
    matvec_batches: int,
) -> list[SolveResult]:
    k = xs_mat.shape[1]
    results = []
    for j in range(k):
        converged = histories[j][-1] <= tol if bnorms[j] > 0 else True
        results.append(
            SolveResult(
                np.ascontiguousarray(xs_mat[:, j]).reshape(shape),
                bool(converged),
                int(iters[j]),
                histories[j][-1],
                histories[j],
                matvec_batches,
                extra={
                    "matvec_batches": matvec_batches,
                    "n_rhs": k,
                    "solver": solver,
                },
            )
        )
    return results


def _qr_drop_dependent(
    w_blk: np.ndarray, rank_tol: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin QR of a block with rank-deficient columns dropped.

    Returns ``(q, rfac, keep)`` where ``keep`` indexes the surviving
    columns of the *input* block and ``q @ rfac == w_blk[:, keep]``.
    Columns whose R diagonal falls below ``rank_tol`` times the largest
    are (nearly) linear combinations of earlier block columns — their
    direction is already in the shared space, so they are dropped
    rather than poisoning the coefficient solves.
    """
    q, rfac = np.linalg.qr(w_blk)
    diag = np.abs(np.diagonal(rfac))
    scale = diag.max() if diag.size else 0.0
    if scale == 0.0:
        return q[:, :0], rfac[:0, :0], np.zeros(0, dtype=int)
    keep = np.flatnonzero(diag > rank_tol * scale)
    if len(keep) < w_blk.shape[1]:
        q, rfac = np.linalg.qr(w_blk[:, keep])
    return q, rfac, keep


def block_gcr(
    op,
    bs: np.ndarray,
    tol: float = 1e-8,
    maxiter: int = 1000,
    nkrylov: int = 10,
    preconditioner=None,
    rank_tol: float = RANK_TOL,
) -> list[SolveResult]:
    """Block (flexible) GCR: all K systems share one Krylov space.

    Each iteration applies the (optional, possibly nonlinear)
    preconditioner and the operator to the whole residual block at
    once, block-orthogonalizes against every kept direction, QR
    re-orthonormalizes *within* the block (dropping rank-deficient
    columns), and corrects every system against all surviving
    directions with an ``r x K`` coefficient matrix — so a direction
    generated by system i accelerates system j.  Converged systems have
    their coefficient column masked to zero: their iterate and residual
    are frozen exactly, which is the no-regression convergence
    contract.

    The space is restarted once it holds ``nkrylov * K`` directions
    (the same memory budget as the per-system restart depth of
    :func:`~repro.solvers.gcr.batched_gcr`).
    """
    bs = validate_rhs_stack(op, bs)
    k = bs.shape[0]
    shape = bs.shape[1:]
    n = int(np.prod(shape))
    r_mat = np.ascontiguousarray(bs.reshape(k, n).T)          # (n, K)
    x_mat = np.zeros_like(r_mat)
    bnorms = np.linalg.norm(r_mat, axis=0)
    active = bnorms > 0
    safe_bnorms = np.where(active, bnorms, 1.0)
    histories: list[list[float]] = [[1.0] if active[j] else [0.0] for j in range(k)]
    iters = np.zeros(k, dtype=int)
    matvec_batches = 0

    qs: list[np.ndarray] = []   # orthonormal W-blocks, (n, r_i) each
    zs: list[np.ndarray] = []   # matching preimages: A zs[i] == qs[i]
    it = 0
    while it < maxiter and active.any():
        if sum(q.shape[1] for q in qs) >= nkrylov * k:
            qs.clear()
            zs.clear()
        r_stack = np.ascontiguousarray(r_mat.T).reshape((k,) + shape)
        if preconditioner is not None:
            z_stack = preconditioner.apply_multi(r_stack)
        else:
            z_stack = r_stack
        z_blk = np.ascontiguousarray(z_stack.reshape(k, n).T)
        w_blk = np.ascontiguousarray(op.apply_multi(z_stack).reshape(k, n).T)
        matvec_batches += 1
        for qi, zi in zip(qs, zs):
            # block orthogonalization: one (r_i, K) GEMM per kept block
            c = qi.conj().T @ w_blk
            w_blk = w_blk - qi @ c
            z_blk = z_blk - zi @ c
        q, rfac, keep = _qr_drop_dependent(w_blk, rank_tol)
        if len(keep) == 0:
            # the whole block already lies in the shared space: restart
            # with a fresh space; with an empty space this means the
            # operator annihilated the block — stop
            if not qs:
                break
            qs.clear()
            zs.clear()
            continue
        # preimages of the orthonormal directions: solve the small
        # (r, r) triangular system once for the whole block
        z_t = np.linalg.solve(rfac.T, z_blk[:, keep].T).T
        alpha = q.conj().T @ r_mat                             # (r, K)
        alpha[:, ~active] = 0.0  # convergence masking: frozen systems
        x_mat += z_t @ alpha
        r_mat -= q @ alpha
        qs.append(q)
        zs.append(z_t)
        it += 1
        rnorms = np.linalg.norm(r_mat, axis=0) / safe_bnorms
        for j in range(k):
            if active[j]:
                iters[j] = it
            histories[j].append(float(rnorms[j]) if bnorms[j] > 0 else 0.0)
        active = active & ~(rnorms < tol)

    return _block_results(
        "block-gcr", x_mat, shape, histories, iters, bnorms, tol, matvec_batches
    )


def block_cg(
    op,
    bs: np.ndarray,
    tol: float = 1e-8,
    maxiter: int = 1000,
    rank_tol: float = RANK_TOL,
) -> list[SolveResult]:
    """O'Leary block CG for Hermitian positive-definite operators.

    The search block ``P`` is QR re-orthonormalized every iteration
    (dropping rank-deficient columns), so the ``P^H A P`` coefficient
    systems stay well conditioned even when residuals across the batch
    become linearly dependent.  Converged systems are masked out of the
    ``alpha`` coefficient columns, freezing their iterate and residual.
    """
    bs = validate_rhs_stack(op, bs)
    k = bs.shape[0]
    shape = bs.shape[1:]
    n = int(np.prod(shape))
    r_mat = np.ascontiguousarray(bs.reshape(k, n).T)          # (n, K)
    x_mat = np.zeros_like(r_mat)
    bnorms = np.linalg.norm(r_mat, axis=0)
    active = bnorms > 0
    safe_bnorms = np.where(active, bnorms, 1.0)
    histories: list[list[float]] = [[1.0] if active[j] else [0.0] for j in range(k)]
    iters = np.zeros(k, dtype=int)
    matvec_batches = 0

    p_blk, _, _ = _qr_drop_dependent(r_mat, rank_tol)
    it = 0
    while it < maxiter and active.any() and p_blk.shape[1] > 0:
        r = p_blk.shape[1]
        p_stack = np.ascontiguousarray(p_blk.T).reshape((r,) + shape)
        ap_blk = np.ascontiguousarray(op.apply_multi(p_stack).reshape(r, n).T)
        matvec_batches += 1
        g = p_blk.conj().T @ ap_blk                            # (r, r), HPD
        alpha = np.linalg.solve(g, p_blk.conj().T @ r_mat)     # (r, K)
        alpha[:, ~active] = 0.0  # convergence masking
        x_mat += p_blk @ alpha
        r_mat -= ap_blk @ alpha
        it += 1
        rnorms = np.linalg.norm(r_mat, axis=0) / safe_bnorms
        for j in range(k):
            if active[j]:
                iters[j] = it
            histories[j].append(float(rnorms[j]) if bnorms[j] > 0 else 0.0)
        active = active & ~(rnorms < tol)
        if not active.any():
            break
        # P_{i+1} = R_{i+1} + P_i beta, A-orthogonal to P_i, then QR
        beta = -np.linalg.solve(g, ap_blk.conj().T @ r_mat)    # (r, K)
        p_blk, _, _ = _qr_drop_dependent(r_mat + p_blk @ beta, rank_tol)

    return _block_results(
        "block-cg", x_mat, shape, histories, iters, bnorms, tol, matvec_batches
    )


def sequential_gcr(op, bs: np.ndarray, **kwargs) -> list[SolveResult]:
    """Reference: the same K systems solved one after another."""
    return [gcr(op, b, **kwargs) for b in bs]
