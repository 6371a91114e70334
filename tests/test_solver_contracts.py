"""Property-based solver *contracts*.

``test_solvers_properties.py`` checks that the Krylov solvers find the
right answer; this file checks that they tell the truth about how they
found it: a converged result actually meets the requested tolerance
when the residual is recomputed from scratch, the reported residual
history is consistent with the returned iterate, and iteration counts
respect the caps.  These are the guarantees the golden-regression and
verify layers build on.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.solvers import batched_gcr, norm
from repro.solvers.bicgstab import bicgstab
from repro.solvers.gcr import gcr
from strategies import dense_systems

pytestmark = pytest.mark.verify

SETTINGS = dict(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

TOL = 1e-8


def check_contract(op, b, res, tol):
    """The truthfulness contract every SolveResult must honour."""
    true_res = norm(b - op.apply(res.x)) / norm(b)
    # the reported residual describes the returned iterate (up to the
    # roundoff drift between recursive and recomputed residuals)
    assert true_res <= 10.0 * max(tol, res.final_residual)
    if res.converged:
        assert true_res <= 10.0 * tol
    # history bookkeeping: one entry per iteration plus the initial
    # residual, ending at the reported final value
    assert len(res.residual_history) == res.iterations + 1
    assert res.residual_history[-1] == res.final_residual
    assert res.final_residual >= 0.0
    assert res.matvecs >= res.iterations >= 0


class TestGCRContract:
    @given(dense_systems(kind="hermitian_indefinite"))
    @settings(**SETTINGS)
    def test_gcr_truthful_on_indefinite(self, sys_):
        op, b = sys_
        # full-subspace GCR: indefinite hermitian systems defeat
        # short-recurrence methods but not minimal-residual subspaces
        res = gcr(op, b, tol=TOL, maxiter=2000, nkrylov=op.nc)
        assert res.converged
        check_contract(op, b, res, TOL)

    @given(dense_systems(kind="general"))
    @settings(**SETTINGS)
    def test_gcr_truthful_restarted(self, sys_):
        op, b = sys_
        res = gcr(op, b, tol=TOL, maxiter=2000, nkrylov=8)
        assert res.converged
        check_contract(op, b, res, TOL)


class TestBiCGStabContract:
    @given(dense_systems(kind="general"))
    @settings(**SETTINGS)
    def test_bicgstab_truthful(self, sys_):
        op, b = sys_
        res = bicgstab(op, b, tol=TOL, maxiter=4000)
        assert res.converged
        check_contract(op, b, res, TOL)

    @given(dense_systems(kind="general"))
    @settings(**SETTINGS)
    def test_zero_rhs_is_trivially_solved(self, sys_):
        op, _b = sys_
        b = np.zeros(op.nc, dtype=complex)
        for solver in (gcr, bicgstab):
            res = solver(op, b, tol=TOL)
            assert res.converged
            assert res.iterations == 0
            assert norm(res.x) == 0.0


# ----------------------------------------------------------------------
# multi-RHS convergence masking
# ----------------------------------------------------------------------
def _rhs_stack(op, k: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    n = op.nc
    # spread the column scales so systems cross tolerance at different
    # iterations — the masking has to actually engage
    scales = 10.0 ** rng.uniform(-2, 2, size=k)
    bs = rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))
    return scales[:, None] * bs


def check_masking_contract(op, bs, results, tol):
    """Once a system crosses tolerance it must never regress above it.

    The batched/block solvers keep iterating the shared space for the
    stragglers; masking (``alpha[:, ~active] = 0``) freezes converged
    columns, so their recorded history stays at-or-below tolerance from
    the first crossing on, and the returned iterate truly solves the
    system.
    """
    for res, b in zip(results, bs):
        assert res.converged
        hist = np.asarray(res.residual_history)
        crossed = np.flatnonzero(hist <= tol)
        assert crossed.size > 0
        first = crossed[0]
        assert np.all(hist[first:] <= tol), (
            f"converged system regressed above tol: {hist[first:]}"
        )
        assert norm(b - op.apply(res.x)) / norm(b) <= 10.0 * tol


class TestConvergenceMasking:
    pytestmark = pytest.mark.mrhs

    @given(sys_=dense_systems(kind="general"), seed=st.integers(0, 2**31))
    @settings(**SETTINGS)
    def test_batched_gcr_masks_converged(self, sys_, seed):
        op, _b = sys_
        bs = _rhs_stack(op, 4, seed)
        results = batched_gcr(op, bs, tol=TOL, maxiter=2000)
        check_masking_contract(op, bs, results, TOL)
