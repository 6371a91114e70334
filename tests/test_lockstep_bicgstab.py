"""The one BiCGStab loop works on a stack (``pytest -m mrhs``).

:func:`repro.solvers.bicgstab.lockstep_bicgstab` advances K systems
together and masks the ones that are done; :func:`bicgstab` is its K=1.
This file holds it to the single-system loop it replaced — kept below as
the oracle — system by system: same iterates, same iteration counts,
same exits (half step, zero right-hand side, breakdown restart), and to
finite iterates at any dtype.  The baselines built on ``bicgstab``
(red-black, mixed precision, distributed) keep their iteration counts.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.solvers.bicgstab as bicgstab_module
from repro.comm import DistributedField, DistributedOperator, distributed_bicgstab
from repro.dirac.stencil import apply_stack
from repro.dirac import SchurOperator, WilsonCloverOperator
from repro.gauge import disordered_field
from repro.lattice import Lattice, Partition
from repro.mg.setup import relaxation_floor
from repro.solvers import mixed_precision_solve
from repro.solvers.base import DOT_BLOCK, SolveResult, norm, vdot
from repro.solvers.bicgstab import bicgstab, lockstep_bicgstab
from repro.workloads.datasets import ANISO40_SCALED
from strategies import DenseOperator
from tests.conftest import random_spinor

pytestmark = pytest.mark.mrhs

_BREAKDOWN = 1e-30


def reference_bicgstab(op, b, x0=None, tol=1e-8, maxiter=10000) -> SolveResult:
    """The single-system loop ``lockstep_bicgstab`` replaced, verbatim
    but for its matvecs: stacks of one, which every operator takes."""
    x = np.zeros_like(b) if x0 is None else x0.copy()
    matvecs = 0
    if x0 is None:
        r = b.copy()
    else:
        r = b - apply_stack(op, x[None])[0]
        matvecs += 1
    bnorm = norm(b)
    if bnorm == 0.0:
        return SolveResult(x, True, 0, 0.0, [0.0], matvecs)
    target = tol * bnorm
    r0 = r.copy()
    rho_old = alpha = omega = 1.0 + 0j
    v = np.zeros_like(b)
    p = np.zeros_like(b)
    history = [norm(r) / bnorm]
    for k in range(1, maxiter + 1):
        rho = vdot(r0, r)
        if abs(rho) < _BREAKDOWN or abs(omega) < _BREAKDOWN:
            r0 = r.copy()
            rho = vdot(r0, r)
            v[:] = 0
            p[:] = 0
            rho_old = alpha = omega = 1.0 + 0j
        beta = (rho / rho_old) * (alpha / omega)
        p = r + beta * (p - omega * v)
        v = apply_stack(op, p[None])[0]
        matvecs += 1
        alpha = rho / vdot(r0, v)
        s = r - alpha * v
        snorm = norm(s)
        if snorm < target:
            x += alpha * p
            history.append(snorm / bnorm)
            return SolveResult(x, True, k, history[-1], history, matvecs)
        t = apply_stack(op, s[None])[0]
        matvecs += 1
        tt = vdot(t, t).real
        omega = vdot(t, s) / tt if tt > _BREAKDOWN else 0.0
        x += alpha * p + omega * s
        r = s - omega * t
        rho_old = rho
        rnorm = norm(r)
        history.append(rnorm / bnorm)
        if rnorm < target:
            return SolveResult(x, True, k, history[-1], history, matvecs)
    return SolveResult(x, False, maxiter, history[-1], history, matvecs)


def assert_same_solve(got: SolveResult, want: SolveResult, rtol: float = 1e-12):
    """Same exit, same counts, iterates equal to ``rtol``.  (The two
    sides sum their reductions in different orders; BiCGStab amplifies
    that round-off as the residual falls, so the solves compared here
    stop at 1e-8 or above, where it is still below 1e-12.)"""
    assert got.iterations == want.iterations
    assert got.converged == want.converged
    assert got.matvecs == want.matvecs
    assert len(got.residual_history) == len(want.residual_history)
    assert got.residual_history == pytest.approx(want.residual_history, rel=1e-3, abs=1e-12)
    scale = max(norm(want.x), 1e-300)
    assert norm(got.x - want.x) / scale <= rtol


# ----------------------------------------------------------------------
# a stack is K single solves
# ----------------------------------------------------------------------
def test_stack_equals_single_solves_on_a_wilson_operator(wilson448, lat448):
    bs = np.stack([random_spinor(lat448, seed=80 + i) for i in range(4)])
    bs[1] *= 1e-3
    bs[2] = 0
    bs[2, 0, 0, 0] = 40.0  # a point source takes longer than noise
    stack = lockstep_bicgstab(wilson448, bs, tol=1e-8, maxiter=5000)
    assert len({res.iterations for res in stack}) > 1  # the masking engaged
    for b, res in zip(bs, stack):
        assert res.converged
        assert_same_solve(res, reference_bicgstab(wilson448, b, tol=1e-8, maxiter=5000))
        assert_same_solve(res, bicgstab(wilson448, b, tol=1e-8, maxiter=5000))
        assert res.telemetry.attrs["n_rhs"] == 4
    batches = stack[0].telemetry.attrs["matvec_batches"]
    assert batches == max(res.matvecs for res in stack)
    # rows longer than one ?dotc block: each system is bitwise its solve alone
    lat = Lattice((4, 4, 8, 8))
    u = disordered_field(lat, np.random.default_rng(81), 0.5, smear_steps=1)
    op = WilsonCloverOperator(u, mass=-0.3, c_sw=1.0)
    assert lat.volume * 12 > DOT_BLOCK
    for dtype in (np.complex64, np.complex128):
        bs = np.stack([random_spinor(lat, seed=85 + i) for i in range(5)]).astype(dtype)
        tol = relaxation_floor(dtype)
        for b, res in zip(bs, lockstep_bicgstab(op, bs, tol=tol, maxiter=500)):
            alone = bicgstab(op, b, tol=tol, maxiter=500)
            assert res.converged and res.iterations == alone.iterations
            assert res.residual_history == alone.residual_history
            assert np.array_equal(res.x, alone.x)


def test_stack_follows_an_initial_guess_and_the_iteration_cap(wilson44, lat44):
    bs = np.stack([random_spinor(lat44, seed=90 + i) for i in range(3)])
    x0s = 0.1 * np.stack([random_spinor(lat44, seed=95 + i) for i in range(3)])
    stack = lockstep_bicgstab(wilson44, bs, x0s, tol=1e-300, maxiter=7)
    for b, x0, res in zip(bs, x0s, stack):
        assert not res.converged and res.iterations == 7
        assert_same_solve(res, reference_bicgstab(wilson44, b, x0, tol=1e-300, maxiter=7))


def _special_systems():
    """One operator, five right-hand sides, every exit of the loop.

    From ``e_0`` the integer block below reaches ``<r0, r> = 0`` *exactly*
    after its first iteration (found by search; every intermediate is a
    small dyadic number), so the second iteration restarts.  ``e_3`` is
    an eigenvector: ``s = 0`` at the first half step.  The
    well-conditioned block keeps two ordinary systems running past both.
    """
    rng = np.random.default_rng(17)
    n = 16
    mat = np.zeros((4 + n, 4 + n), dtype=np.complex128)
    mat[:3, :3] = [[-2, -2, -2], [-2, -2, -1], [2, -2, -2]]
    mat[3, 3] = 1.5
    mat[4:, 4:] = (
        rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) + 2.0 * n * np.eye(n)
    )
    bs = np.zeros((5, 4 + n), dtype=np.complex128)
    bs[0, 3] = 1.0  # eigenvector: converges at the half step
    # bs[1] stays zero
    bs[2, 0] = 1.0  # rho == 0 at iteration 2: breakdown restart
    bs[3, 4:] = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    bs[4, 4:] = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return DenseOperator(mat), bs


def test_half_step_zero_and_breakdown_systems_in_one_stack(monkeypatch):
    op, bs = _special_systems()
    stack = lockstep_bicgstab(op, bs, tol=1e-8, maxiter=200)
    singles = [reference_bicgstab(op, b, tol=1e-8, maxiter=200) for b in bs]
    for res, want in zip(stack, singles):
        assert_same_solve(res, want)
        assert res.converged
    half, zero, broken = stack[:3]
    assert (half.iterations, half.matvecs) == (1, 1)
    assert (zero.iterations, zero.matvecs, zero.residual_history) == (0, 0, [0.0])
    assert not zero.x.any()
    assert stack[3].iterations > 3 and stack[4].iterations > 3
    # the restart is what got the broken system there: without the
    # check its second iteration divides by rho_old * omega with rho = 0
    monkeypatch.setattr(bicgstab_module, "_BREAKDOWN", 0.0)
    unchecked = lockstep_bicgstab(op, bs[2:3], tol=1e-8, maxiter=200)[0]
    assert broken.iterations == 3
    assert unchecked.residual_history[:2] == broken.residual_history[:2]
    assert unchecked.residual_history[2] != broken.residual_history[2]


def test_batch_composition_does_not_change_a_system():
    op, bs = _special_systems()
    alone = lockstep_bicgstab(op, bs[4:], tol=1e-8, maxiter=200)[0]
    for order in ([4, 0, 1, 2, 3], [2, 4, 1], [3, 4]):
        res = lockstep_bicgstab(op, bs[order], tol=1e-8, maxiter=200)[order.index(4)]
        assert_same_solve(res, alone)


def test_a_lost_system_stops_at_its_last_finite_iterate():
    """``<r0, A r0> = 0`` makes the very first ``alpha`` infinite: that
    system stops unconverged at ``x = 0``; its neighbours do not notice."""
    op, bs = _special_systems()
    lost = np.zeros_like(bs[0])
    lost[:2] = 1.0, -1.0  # -2 - 2 + 4 = 0
    with np.errstate(all="ignore"):
        stack = lockstep_bicgstab(op, np.stack([lost, bs[4]]), tol=1e-8, maxiter=200)
    assert not stack[0].converged and stack[0].iterations == 0
    assert not stack[0].x.any()
    assert_same_solve(stack[1], reference_bicgstab(op, bs[4], tol=1e-8, maxiter=200))


# ----------------------------------------------------------------------
# complex64: stop at the floor, stay finite
# ----------------------------------------------------------------------
def test_complex64_stack_stops_at_the_floor_and_stays_finite(wilson448, lat448):
    dtype = np.dtype(np.complex64)
    floor = relaxation_floor(dtype)
    assert floor == pytest.approx(1e3 * np.finfo(np.float32).eps)
    assert relaxation_floor(np.complex128) == 1e-10
    bs = np.stack([random_spinor(lat448, seed=60 + i) for i in range(3)]).astype(dtype)
    bs[1] = 0
    stack = lockstep_bicgstab(wilson448, bs, tol=floor, maxiter=400)
    double = lockstep_bicgstab(wilson448, bs.astype(np.complex128), tol=floor, maxiter=400)
    for i, (res, ref) in enumerate(zip(stack, double)):
        assert res.x.dtype == dtype and np.isfinite(res.x).all()
        assert res.converged
        # the floor is reachable in complex64: no harvesting of round-off
        assert abs(res.iterations - ref.iterations) <= 2
        true = bs[i].astype(np.complex128) - wilson448.apply(res.x.astype(np.complex128))
        assert norm(true) <= 3 * floor * max(norm(bs[i]), 1e-300)
    # past the floor the recursive residual keeps falling where the true
    # one cannot follow — the round-off a relaxation must not harvest
    beyond = lockstep_bicgstab(wilson448, bs, tol=1e-10, maxiter=400)
    for i in (0, 2):
        assert np.isfinite(beyond[i].x).all() and beyond[i].converged
        true = bs[i].astype(np.complex128) - wilson448.apply(beyond[i].x.astype(np.complex128))
        assert norm(true) > 10 * beyond[i].final_residual * norm(bs[i])


def test_complex64_overflow_is_masked_not_returned():
    """A right-hand side at the edge of float32 range overflows the
    first reductions: that system is dropped, the other one solved."""
    op, bs = _special_systems()
    small = bs[[4, 3]].astype(np.complex64)
    small[0] *= 1e25
    with np.errstate(all="ignore"):
        stack = lockstep_bicgstab(op, small, tol=1e-4, maxiter=50)
    assert all(np.isfinite(res.x).all() for res in stack)
    assert not stack[0].converged
    assert stack[1].converged


# ----------------------------------------------------------------------
# the baselines built on bicgstab keep their iteration counts
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def aniso40_schur():
    ds = ANISO40_SCALED
    op = WilsonCloverOperator(ds.gauge(), **ds.operator_kwargs())
    return ds, op, SchurOperator(op)


def test_red_black_baseline_keeps_its_iteration_counts(aniso40_schur):
    """The Table 3 baseline of ``reporting/experiments.py``: a point
    source through the red-black system, then the tightened re-solve."""
    ds, op, schur = aniso40_schur
    b = np.zeros((op.lattice.volume, 4, 3), dtype=np.complex128)
    b[0, 0, 0] = 1.0
    bs = schur.prepare_multi(b[None])[0]
    tol = ds.target_residuum
    got, want = (
        solver(schur, bs, tol=tol, maxiter=100000) for solver in (bicgstab, reference_bicgstab)
    )
    assert_same_solve(got, want, rtol=1e-9)
    tight, tight_want = (
        solver(schur, bs, x0=want.x, tol=tol * 1e-3, maxiter=100000)
        for solver in (bicgstab, reference_bicgstab)
    )
    assert_same_solve(tight, tight_want, rtol=1e-9)


def test_mixed_precision_baseline_keeps_its_iteration_counts(aniso40_schur):
    _, op, schur = aniso40_schur
    bs = schur.prepare_multi(random_spinor(op.lattice, seed=44)[None])[0]
    got, want = (
        mixed_precision_solve(schur, bs, inner, tol=1e-10, inner_tol=1e-3)
        for inner in (bicgstab, reference_bicgstab)
    )
    assert got.converged and want.converged
    # the inner operator rounds through 16-bit storage, so the summation
    # order of the reductions moves the inner counts by a few iterations
    assert got.iterations == pytest.approx(want.iterations, rel=0.05)


def test_distributed_baseline_keeps_its_iteration_counts(wilson448, lat448):
    part = Partition(lat448, (1, 1, 2, 2))
    dop = DistributedOperator(wilson448, part)
    b = random_spinor(lat448, seed=6)
    dist = distributed_bicgstab(dop, DistributedField.from_global(part, b), tol=1e-8)
    for solver in (bicgstab, reference_bicgstab):
        res = solver(wilson448, b, tol=1e-8)
        assert res.iterations == dist.iterations
        np.testing.assert_allclose(res.x, dist.x, atol=1e-9)
