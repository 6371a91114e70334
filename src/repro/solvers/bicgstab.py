"""BiCGStab — the paper's baseline Krylov solver.

Stabilized bi-conjugate gradients (van der Vorst) solves the
non-symmetric Wilson-Clover system directly.  Combined with red-black
preconditioning and mixed precision this is the state of the art that
the multigrid solver is compared against (paper Section 3.3); capped at
a few dozen iterations it is also the relaxation of the adaptive setup
(:mod:`repro.mg.setup`).

There is one loop, :func:`lockstep_bicgstab`, and it works on a
``(K, ...)`` stack the way :func:`repro.solvers.gcr.lockstep_gcr` does,
from the same start (:class:`~repro.solvers.base.Lockstep`): K
independent recurrences advance together, each of the two matvecs of an
iteration is one call for all running systems, and each system's
reductions are BLAS ``?dotc`` calls on its own row
(:func:`~repro.solvers.base.batch_dot`) while its updates are
elementwise, so a system's iterates are bitwise the same in any stack.
A system that has converged, broken down beyond repair or started from
a zero right-hand side leaves the stack's work — the operator is applied
to the running systems only — and is masked: its coefficients are
zeroed, so its iterate stays exactly where it was while the rest
continue.  :func:`bicgstab` is the batch of one.
"""

from __future__ import annotations

import numpy as np

from .base import Lockstep, SolveResult, batch_dot, per_system

_BREAKDOWN = 1e-30


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
    runs the recurrence it would run alone: it restarts from its own
    residual when its ``rho`` or ``omega`` breaks down, stops at the half step when ``|s|`` is
    already below its target, and stops for good — unconverged, at its
    last finite iterate — if a step coefficient is not finite.  The
    arithmetic is that of the dtype of ``bs``.  Returns one
    :class:`SolveResult` per system; ``matvecs`` counts the operator
    applications made while that system was still running (two per
    iteration, one for a half-step exit).
    """
    k = bs.shape[0]
    run = Lockstep(op, bs, x0s, tol)
    xs, rs, active, targets = run.xs, run.rs, run.active, run.targets
    converged = run.bnorms == 0  # (a NaN right-hand side is neither active nor converged)

    r0s = rs.copy()
    rho_old = np.ones(k, dtype=bs.dtype)
    alpha = np.ones(k, dtype=bs.dtype)
    omega = np.ones(k, dtype=bs.dtype)
    vs = np.zeros_like(bs)
    ps = np.zeros_like(bs)

    it = 0
    while it < maxiter and active.any():
        it += 1
        rho = batch_dot(r0s, rs)
        broken = active & ((np.abs(rho) < _BREAKDOWN) | (np.abs(omega) < _BREAKDOWN))
        if broken.any():
            # serial breakdown: restart those systems from their residual
            r0s[broken] = rs[broken]
            rho[broken] = batch_dot(rs[broken], rs[broken])
            _zero(broken, vs, ps)
            rho_old[broken] = alpha[broken] = omega[broken] = 1.0
        beta = _ratio(rho, rho_old, active) * _ratio(alpha, omega, active)
        ps = rs + per_system(beta, rs) * (ps - per_system(omega, rs) * vs)
        vs = run.matvec(ps, np.flatnonzero(active))
        alpha = _ratio(rho, batch_dot(r0s, vs), active)
        ss = rs - per_system(alpha, rs) * vs
        snorms = np.sqrt(np.real(batch_dot(ss, ss)))
        lost = active & ~np.isfinite(snorms)
        if lost.any():
            active &= ~lost
            _zero(lost, alpha, rs, ps, vs, ss)
        half = active & (snorms < targets)
        if half.any():
            p_half = ps[half]
            xs[half] += per_system(alpha[half], p_half) * p_half
            run.record(half, snorms, it)
            converged |= half
            active &= ~half
            alpha[half] = 0.0
            if not active.any():
                break
        ts = run.matvec(ss, np.flatnonzero(active))
        tt = np.real(batch_dot(ts, ts))
        omega = _ratio(batch_dot(ts, ss), tt, active & (tt > _BREAKDOWN))
        rs_next = ss - per_system(omega, ss) * ts
        rnorms = np.sqrt(np.real(batch_dot(rs_next, rs_next)))
        lost = active & ~np.isfinite(rnorms)
        if lost.any():
            active &= ~lost
            _zero(lost, alpha, omega, rs_next, ps, vs)
        xs += per_system(alpha, xs) * ps + per_system(omega, xs) * ss
        rs = rs_next
        rho_old = rho
        run.record(active, rnorms, it)
        done = active & (rnorms < targets)
        converged |= done
        active &= ~done

    return run.results(converged)


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
