"""GMRES and communication-avoiding (s-step) GMRES.

Paper Section 9 proposes "replacement of the coarse-grid solver with a
latency tolerant solver, such as CA-GMRES [35, 36]": classical
GMRES/GCR perform O(j) global reductions per iteration (the Arnoldi
orthogonalization), which is what makes the coarsest grid
synchronization-bound at scale (Figure 4).  The s-step formulation
builds ``s`` Krylov vectors with matrix powers only, then
orthogonalizes the whole block with a single tall-skinny QR — one
global synchronization per ``s`` iterations.

Both solvers report their global-reduction counts in
``result.telemetry.attrs['reductions']`` so the machine model can price the
difference.
"""

from __future__ import annotations

import numpy as np

from ..telemetry.instrument import instrumented_solver
from .base import SolveResult, norm


@instrumented_solver("gmres")
def gmres(
    op,
    b: np.ndarray,
    x0: np.ndarray | None = None,
    tol: float = 1e-8,
    maxiter: int = 1000,
    restart: int = 20,
) -> SolveResult:
    """Restarted GMRES with modified Gram-Schmidt Arnoldi."""
    x = np.zeros_like(b) if x0 is None else x0.copy()
    shape = b.shape
    matvecs = 0
    reductions = 0
    bnorm = norm(b)
    if bnorm == 0.0:
        return SolveResult(x, True, 0, 0.0, [0.0], 0, extra={"reductions": 0})
    target = tol * bnorm
    history = []
    total = 0

    while total < maxiter:
        r = b - op.apply(x) if (total > 0 or x0 is not None) else b.copy()
        if total > 0 or x0 is not None:
            matvecs += 1
        beta = norm(r)
        reductions += 1
        history.append(beta / bnorm)
        if beta < target:
            return SolveResult(
                x, True, total, history[-1], history, matvecs,
                extra={"reductions": reductions},
            )
        m = min(restart, maxiter - total)
        q = [r.reshape(-1) / beta]
        h = np.zeros((m + 1, m), dtype=complex)
        k_done = 0
        for k in range(m):
            w = op.apply(q[k].reshape(shape)).reshape(-1)
            matvecs += 1
            for i in range(k + 1):
                h[i, k] = np.vdot(q[i], w)
                w -= h[i, k] * q[i]
            reductions += k + 1
            h[k + 1, k] = np.linalg.norm(w)
            reductions += 1
            k_done = k + 1
            total += 1
            if h[k + 1, k] < 1e-30:
                break
            q.append(w / h[k + 1, k])
            # cheap residual estimate via the small least-squares problem
            e1 = np.zeros(k + 2, dtype=complex)
            e1[0] = beta
            y, res_, *_ = np.linalg.lstsq(h[: k + 2, : k + 1], e1, rcond=None)
            rest = np.linalg.norm(e1 - h[: k + 2, : k + 1] @ y)
            history.append(rest / bnorm)
            if rest < target or total >= maxiter:
                break
        e1 = np.zeros(k_done + 1, dtype=complex)
        e1[0] = beta
        y, *_ = np.linalg.lstsq(h[: k_done + 1, :k_done], e1, rcond=None)
        x = x + (np.stack(q[:k_done], axis=1) @ y).reshape(shape)
        if history[-1] * bnorm < target:
            r = b - op.apply(x)
            matvecs += 1
            rel = norm(r) / bnorm
            history[-1] = rel
            if rel < tol:
                return SolveResult(
                    x, True, total, rel, history, matvecs,
                    extra={"reductions": reductions},
                )
    return SolveResult(
        x, False, total, history[-1], history, matvecs,
        extra={"reductions": reductions},
    )


@instrumented_solver("ca-gmres")
def ca_gmres(
    op,
    b: np.ndarray,
    x0: np.ndarray | None = None,
    tol: float = 1e-8,
    maxiter: int = 1000,
    s: int = 4,
) -> SolveResult:
    """Communication-avoiding GMRES(s): one block QR per ``s`` steps.

    Uses a norm-scaled monomial matrix-powers basis (adequate for the
    small ``s`` and modest condition numbers of multigrid coarse-level
    solves; a Newton basis drops in here for harder problems).  Global
    synchronizations per cycle: one for the basis-scale estimate's
    reuse, one for the tall-skinny QR, one for the residual norm —
    versus ``O(s^2)`` for standard GMRES/GCR.
    """
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    x = np.zeros_like(b) if x0 is None else x0.copy()
    shape = b.shape
    matvecs = 0
    reductions = 0
    bnorm = norm(b)
    if bnorm == 0.0:
        return SolveResult(x, True, 0, 0.0, [0.0], 0, extra={"reductions": 0})
    target = tol * bnorm
    history = []
    total = 0
    scale = None  # operator-norm estimate, measured once

    r = b - op.apply(x) if x0 is not None else b.copy()
    if x0 is not None:
        matvecs += 1
    while total < maxiter:
        rnorm = norm(r)
        reductions += 1
        history.append(rnorm / bnorm)
        if rnorm < target:
            return SolveResult(
                x, True, total, history[-1], history, matvecs,
                extra={"reductions": reductions},
            )
        # matrix-powers kernel: s+1 basis vectors, no synchronization
        vs = [r.reshape(-1)]
        for _ in range(s):
            w = op.apply(vs[-1].reshape(shape)).reshape(-1)
            matvecs += 1
            if scale is None:
                scale = np.linalg.norm(w) / max(np.linalg.norm(vs[-1]), 1e-300)
                reductions += 1
            vs.append(w / scale)
        v = np.stack(vs, axis=1)  # (n, s+1)

        # one tall-skinny QR = one global reduction
        q, rr = np.linalg.qr(v)
        reductions += 1
        # Krylov relation A V[:, :s] = scale * V[:, 1:]  =>  H from R
        bmat = np.zeros((s + 1, s), dtype=complex)
        for i in range(s):
            bmat[i + 1, i] = scale
        h = rr @ bmat @ np.linalg.inv(rr[:s, :s] + 1e-300 * np.eye(s))
        e = rr[:, 0]  # r in the Q basis
        y, *_ = np.linalg.lstsq(h, e, rcond=None)
        dx = (q[:, :s] @ y).reshape(shape)
        x = x + dx
        r = r - op.apply(dx)
        matvecs += 1
        total += s
    rnorm = norm(r)
    history.append(rnorm / bnorm)
    return SolveResult(
        x, rnorm < target, total, history[-1], history, matvecs,
        extra={"reductions": reductions},
    )
