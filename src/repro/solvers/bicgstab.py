"""BiCGStab — the paper's baseline Krylov solver.

Stabilized bi-conjugate gradients (van der Vorst) solves the
non-symmetric Wilson-Clover system directly.  Combined with red-black
preconditioning and mixed precision this is the state of the art that
the multigrid solver is compared against (paper Section 3.3); capped at
a few dozen iterations it is also the relaxation of the adaptive setup
(:mod:`repro.mg.setup`).

There is one loop, :func:`lockstep_bicgstab`, and it works on a
``(K, ...)`` stack the way :func:`repro.solvers.gcr.lockstep_gcr` does:
K independent recurrences advance together, each of the two matvecs of
an iteration is one call for all running systems and the reductions of
all systems fuse into one pass over the stack (:func:`fused_dot`).  A
system that has converged, broken down beyond repair or started from a
zero right-hand side leaves the stack's work — the operator is applied
to the running systems only — and is masked: its coefficients are
zeroed, so its iterate stays exactly where it was while the rest
continue.  :func:`bicgstab` is the batch of one.

Unlike GCR and the MR smoother, this loop keeps the fused reduction,
whose rounding depends on K.  It is the adaptive setup's relaxation:
the null space it relaxes, and the iteration counts of every level
solved on it, follow its round-off chaotically, and one ``?dotc`` per
system moved the level-1 counts of the canonical setup (DESIGN.md
section 28).
"""

from __future__ import annotations

import numpy as np

from ..dirac.stencil import apply_stack
from ..telemetry.result import SolveTelemetry
from .base import SolveResult, per_system

_BREAKDOWN = 1e-30


def fused_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-system inner products ``<a_k, b_k>`` of two ``(K, ...)`` stacks
    in one ``einsum`` pass over a conjugated copy."""
    k = a.shape[0]
    return np.einsum("ki,ki->k", np.conj(a.reshape(k, -1)), b.reshape(k, -1))


def _zero(systems: np.ndarray, *stacks: np.ndarray) -> None:
    """Zero the state of ``systems`` so that nothing non-finite of theirs
    is carried into a later step (a zero coefficient does not mask a NaN)."""
    for stack in stacks:
        stack[systems] = 0


def _ratio(num: np.ndarray, den: np.ndarray, where: np.ndarray) -> np.ndarray:
    """``num / den`` for the systems in ``where``, zero (the mask) elsewhere.
    A zero denominator gives a non-finite ratio, which the loop checks for."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(where, num / np.where(where, den, 1.0), 0.0)


def lockstep_bicgstab(
    op,
    bs: np.ndarray,
    x0s: np.ndarray | None = None,
    tol: float = 1e-8,
    maxiter: int = 10000,
) -> list[SolveResult]:
    """BiCGStab with restart-on-breakdown on a stack ``bs``.

    ``op`` is applied through ``apply_multi`` when it has it and system
    by system otherwise, to the systems still running.  Every system
    runs the recurrence it would run alone: it restarts from its own residual when its ``rho`` or
    ``omega`` breaks down, stops at the half step when ``|s|`` is
    already below its target, and stops for good — unconverged, at its
    last finite iterate — if a step coefficient is not finite.  The
    arithmetic is that of the dtype of ``bs``.  Returns one
    :class:`SolveResult` per system; ``matvecs`` counts the operator
    applications made while that system was still running (two per
    iteration, one for a half-step exit).
    """
    k = bs.shape[0]
    matvec_batches = 0
    matvecs = np.zeros(k, dtype=int)
    if x0s is None:
        xs = np.zeros_like(bs)
        rs = bs.copy()
    else:
        xs = x0s.copy()
        rs = bs - apply_stack(op, xs)
        matvec_batches += 1
        matvecs += 1
    bnorms = np.sqrt(np.real(fused_dot(bs, bs)))
    active = bnorms > 0
    targets = tol * bnorms
    rnorms = np.sqrt(np.real(fused_dot(rs, rs)))
    histories = [
        [float(rnorms[i] / bnorms[i])] if active[i] else [0.0] for i in range(k)
    ]
    iters = np.zeros(k, dtype=int)
    converged = bnorms == 0  # (a NaN right-hand side is neither active nor converged)

    r0s = rs.copy()
    rho_old = np.ones(k, dtype=bs.dtype)
    alpha = np.ones(k, dtype=bs.dtype)
    omega = np.ones(k, dtype=bs.dtype)
    vs = np.zeros_like(bs)
    ps = np.zeros_like(bs)

    def record(systems: np.ndarray, norms: np.ndarray, it: int) -> None:
        for i in np.flatnonzero(systems):
            iters[i] = it
            histories[i].append(float(norms[i] / bnorms[i]))

    it = 0
    while it < maxiter and active.any():
        it += 1
        rho = fused_dot(r0s, rs)
        broken = active & ((np.abs(rho) < _BREAKDOWN) | (np.abs(omega) < _BREAKDOWN))
        if broken.any():
            # serial breakdown: restart those systems from their residual
            r0s[broken] = rs[broken]
            rho[broken] = fused_dot(rs[broken], rs[broken])
            _zero(broken, vs, ps)
            rho_old[broken] = alpha[broken] = omega[broken] = 1.0
        beta = _ratio(rho, rho_old, active) * _ratio(alpha, omega, active)
        ps = rs + per_system(beta, rs) * (ps - per_system(omega, rs) * vs)
        vs = apply_stack(op, ps, np.flatnonzero(active))
        matvec_batches += 1
        matvecs[active] += 1
        alpha = _ratio(rho, fused_dot(r0s, vs), active)
        ss = rs - per_system(alpha, rs) * vs
        snorms = np.sqrt(np.real(fused_dot(ss, ss)))
        lost = active & ~np.isfinite(snorms)
        if lost.any():
            active &= ~lost
            _zero(lost, alpha, rs, ps, vs, ss)
        half = active & (snorms < targets)
        if half.any():
            p_half = ps[half]
            xs[half] += per_system(alpha[half], p_half) * p_half
            record(half, snorms, it)
            converged |= half
            active &= ~half
            alpha[half] = 0.0
            if not active.any():
                break
        ts = apply_stack(op, ss, np.flatnonzero(active))
        matvec_batches += 1
        matvecs[active] += 1
        tt = np.real(fused_dot(ts, ts))
        omega = _ratio(fused_dot(ts, ss), tt, active & (tt > _BREAKDOWN))
        rs_next = ss - per_system(omega, ss) * ts
        rnorms = np.sqrt(np.real(fused_dot(rs_next, rs_next)))
        lost = active & ~np.isfinite(rnorms)
        if lost.any():
            active &= ~lost
            _zero(lost, alpha, omega, rs_next, ps, vs)
        xs += per_system(alpha, xs) * ps + per_system(omega, xs) * ss
        rs = rs_next
        rho_old = rho
        record(active, rnorms, it)
        done = active & (rnorms < targets)
        converged |= done
        active &= ~done

    return [
        SolveResult(
            xs[i],
            bool(converged[i]),
            int(iters[i]),
            histories[i][-1],
            histories[i],
            int(matvecs[i]),
            telemetry=SolveTelemetry(attrs={"matvec_batches": matvec_batches, "n_rhs": k}),
        )
        for i in range(k)
    ]


def bicgstab(
    op,
    b: np.ndarray,
    x0: np.ndarray | None = None,
    tol: float = 1e-8,
    maxiter: int = 10000,
) -> SolveResult:
    """BiCGStab for one system ``M x = b``: a batch of one."""
    x0s = None if x0 is None else x0[None]
    return lockstep_bicgstab(op, b[None], x0s, tol, maxiter)[0]
