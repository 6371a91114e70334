"""Multiple-right-hand-side multigrid (Section 9): the smoother, the
cycle and the solve on a stack of systems."""

import numpy as np
import pytest

from repro.dirac import WilsonCloverOperator
from repro.gauge import disordered_field
from repro.lattice import Lattice
from repro.mg import LevelParams, MGParams, MultigridSolver
from repro.precision import Precision
from repro.solvers import norm
from tests.conftest import random_spinor

pytestmark = pytest.mark.mrhs



@pytest.fixture(scope="module")
def setup():
    lat = Lattice((4, 4, 4, 8))
    u = disordered_field(lat, np.random.default_rng(11), 0.55, smear_steps=1)
    op = WilsonCloverOperator(u, mass=-1.406 + 0.03, c_sw=1.0)
    params = MGParams(
        levels=[LevelParams(block=(2, 2, 2, 4), n_null=8, null_iters=50)],
        outer_tol=1e-8,
        # stack vs single-RHS agreement is pinned below to 1e-10: double
        smoother_precision=Precision.DOUBLE,
        coarse_precision=Precision.DOUBLE,
    )
    solver = MultigridSolver(op, params, np.random.default_rng(5))
    bs = np.stack([random_spinor(lat, seed=910 + k) for k in range(4)])
    return op, solver, bs


class TestBatchedSmoother:
    def test_reduces_all_residuals(self, setup):
        op, solver, bs = setup
        zs = solver.hierarchy.levels[0].smoother.apply(bs)
        for b, z in zip(bs, zs):
            assert norm(b - op.apply(z)) < norm(b)

    def test_matches_single_rhs_smoother(self, setup):
        op, solver, bs = setup
        smoother = solver.hierarchy.levels[0].smoother
        for b, z in zip(bs, smoother.apply(bs)):
            np.testing.assert_allclose(z, smoother.apply(b), atol=1e-10)


class TestBatchedPreconditioner:
    def test_contracts_error_for_all_systems(self, setup):
        op, solver, bs = setup
        zs = solver.preconditioner.apply(bs)  # two levels here
        for b, z in zip(bs, zs):
            assert norm(b - op.apply(z)) < 0.6 * norm(b)


class TestBatchedMGSolve:
    def test_all_systems_converge(self, setup):
        op, solver, bs = setup
        results = solver.solve_multi(bs, tol=1e-8)
        assert len(results) == 4
        for res, b in zip(results, bs):
            assert res.converged
            assert norm(b - op.apply(res.x)) / norm(b) < 2e-8

    def test_matches_sequential_mg(self, setup):
        op, solver, bs = setup
        batched = solver.solve_multi(bs, tol=1e-10)
        for res, b in zip(batched, bs):
            seq = solver.solve(b, tol=1e-10)
            assert norm(res.x - seq.x) / norm(seq.x) < 1e-6

    def test_iteration_count_comparable_to_sequential(self, setup):
        op, solver, bs = setup
        batched = solver.solve_multi(bs, tol=1e-8)
        seq_iters = [solver.solve(b, tol=1e-8).iterations for b in bs]
        for res, si in zip(batched, seq_iters):
            assert res.iterations <= 3 * si

    def test_matvec_batches_shared(self, setup):
        op, solver, bs = setup
        results = solver.solve_multi(bs, tol=1e-8)
        # one batch per outer iteration serves all 4 systems
        assert results[0].telemetry.attrs["matvec_batches"] <= max(
            r.iterations for r in results
        )

    def test_zero_rhs_handled(self, setup):
        op, solver, bs = setup
        stack = bs.copy()
        stack[2] = 0
        results = solver.solve_multi(stack, tol=1e-8)
        assert results[2].converged
        assert norm(results[2].x) == 0.0


class TestLiveWork:
    def test_a_stack_books_the_cycles_of_its_live_systems(self, setup):
        """Every outer iteration of a system runs one cycle on it and
        none after it converged: level-0 smoothing is ``2 (steps + 1)``
        per system-iteration, not per stack-iteration."""
        op, solver, bs = setup
        points = np.zeros((4,) + bs.shape[1:], dtype=bs.dtype)
        for j in range(4):
            points[j, 7 * (j + 4), j, 1] = 1.0
        results = solver.solve_multi(np.concatenate([bs, points]), tol=1e-8)
        iterations = [res.iterations for res in results]
        assert len(set(iterations)) > 1  # staggered convergence
        steps = solver.hierarchy.levels[0].params.smoother_steps
        stats = results[0].telemetry.level_stats[0]
        assert stats["smoother_applies"] == 2 * (steps + 1) * sum(iterations)
        # the outer GCR applies the fine operator once per system-iteration
        assert stats["op_applies"] == sum(iterations)
