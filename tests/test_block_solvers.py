"""Multiple-right-hand-side (batched) solving."""

import numpy as np
import pytest

from repro.coarse import coarsen_operator
from repro.lattice import Blocking
from repro.solvers import OperatorCounter, batched_gcr, gcr, norm
from repro.transfer import Transfer
from tests.conftest import random_spinor

pytestmark = pytest.mark.mrhs



@pytest.fixture(scope="module")
def rhs_stack(lat44):
    return np.stack([random_spinor(lat44, seed=400 + k) for k in range(4)])


class TestApplyMulti:
    def test_matches_single_applies_fine(self, wilson44, rhs_stack):
        batched = wilson44.apply_multi(rhs_stack)
        for k in range(rhs_stack.shape[0]):
            np.testing.assert_allclose(
                batched[k], wilson44.apply(rhs_stack[k]), atol=1e-12
            )

    def test_matches_single_applies_coarse(self, wilson448, lat448):
        t = Transfer(
            Blocking(lat448, (2, 2, 2, 2)),
            [random_spinor(lat448, seed=410 + k) for k in range(4)],
        )
        mc = coarsen_operator(wilson448, t)
        rng = np.random.default_rng(9)
        vs = rng.standard_normal((3, mc.lattice.volume, 2, 4)) + 1j * rng.standard_normal(
            (3, mc.lattice.volume, 2, 4)
        )
        batched = mc.apply_multi(vs)
        for k in range(3):
            np.testing.assert_allclose(batched[k], mc.apply(vs[k]), atol=1e-11)


class TestBatchedGCR:
    def test_all_systems_converge(self, wilson44, rhs_stack):
        results = batched_gcr(wilson44, rhs_stack, tol=1e-8, maxiter=2000)
        assert len(results) == 4
        for res, b in zip(results, rhs_stack):
            assert res.converged
            assert norm(b - wilson44.apply(res.x)) / norm(b) < 1e-7

    def test_matches_sequential_solutions(self, wilson44, rhs_stack):
        batched = batched_gcr(wilson44, rhs_stack, tol=1e-10, maxiter=2000)
        seq = [gcr(wilson44, b, tol=1e-10, maxiter=2000) for b in rhs_stack]
        for rb, rs in zip(batched, seq):
            assert norm(rb.x - rs.x) / norm(rs.x) < 1e-6

    def test_shared_matvec_batches(self, wilson44, rhs_stack):
        # one batched matvec serves all K systems: the locality win
        results = batched_gcr(wilson44, rhs_stack, tol=1e-8, maxiter=2000)
        batches = results[0].telemetry.attrs["matvec_batches"]
        seq = [gcr(wilson44, b, tol=1e-8, maxiter=2000) for b in rhs_stack]
        total_seq_matvecs = sum(r.matvecs for r in seq)
        assert batches < total_seq_matvecs  # K-fold operator-load saving

    def test_zero_rhs_in_stack(self, wilson44, rhs_stack):
        stack = rhs_stack.copy()
        stack[1] = 0
        results = batched_gcr(wilson44, stack, tol=1e-8, maxiter=2000)
        assert results[1].converged
        assert norm(results[1].x) == 0.0

    def test_single_rhs_matches_gcr(self, wilson44, lat44):
        b = random_spinor(lat44, seed=420)
        res_b = batched_gcr(wilson44, b[None], tol=1e-9, maxiter=2000)[0]
        res_g = gcr(wilson44, b, tol=1e-9, maxiter=2000)
        assert res_b.converged and res_g.converged
        assert norm(res_b.x - res_g.x) / norm(res_g.x) < 1e-5

    def test_apply_only_operator_and_initial_guess(self, wilson44, lat44):
        """An operator with only ``apply`` (the counting wrapper) is
        looped per system, and the initial guess costs one residual."""
        b = random_spinor(lat44, seed=421)
        cold = gcr(wilson44, b, tol=1e-9, maxiter=2000)
        counted = OperatorCounter(wilson44)
        assert not hasattr(counted, "apply_multi")
        warm = gcr(counted, b, x0=cold.x, tol=1e-9, maxiter=2000)
        assert warm.converged and warm.iterations == 1
        assert warm.residual_history[0] < 1e-8
        assert counted.count == warm.matvecs == 2

    def test_non_finite_system_is_never_reported_converged(self, wilson44, rhs_stack):
        """``batched_gcr`` refuses it by index; the unchecked batch of
        one reports it unconverged instead of "solved" by ``x = 0``."""
        stack = rhs_stack.copy()
        stack[2, 0, 0, 0] = np.nan
        with pytest.raises(ValueError, match=r"non-finite.*\[2\]"):
            batched_gcr(wilson44, stack, tol=1e-8, maxiter=50)
        res = gcr(wilson44, stack[2], tol=1e-8, maxiter=50)
        assert not res.converged

