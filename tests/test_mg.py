"""Adaptive multigrid: setup, hierarchy, K-cycle, solver."""

import numpy as np
import pytest

from repro.dirac import WilsonCloverOperator
from repro.gauge import disordered_field
from repro.lattice import Lattice
from repro.mg import (
    KCyclePreconditioner,
    LevelParams,
    MGParams,
    MultigridHierarchy,
    MultigridSolver,
    SchurMRSmoother,
    gcr_reductions,
    generate_null_vectors,
)
from repro.solvers import norm
from repro.solvers.bicgstab import bicgstab
from repro.solvers.gcr import gcr
from tests.conftest import random_spinor


@pytest.fixture(scope="module")
def critical_op():
    """A near-critical Wilson-Clover operator on 4x4x4x8."""
    lat = Lattice((4, 4, 4, 8))
    u = disordered_field(lat, np.random.default_rng(11), 0.55, smear_steps=1)
    # m_crit for this configuration is about -1.406 (measured via ARPACK)
    return WilsonCloverOperator(u, mass=-1.406 + 0.02, c_sw=1.0)


@pytest.fixture(scope="module")
def mg_solver(critical_op):
    params = MGParams(
        levels=[LevelParams(block=(2, 2, 2, 4), n_null=8, null_iters=50)],
        outer_tol=1e-8,
    )
    return MultigridSolver(critical_op, params, np.random.default_rng(5))


class TestNullVectors:
    """Relaxed in complex128 or in complex64, the vectors come back
    complex128 and of unit norm."""

    DTYPES = (np.complex128, np.complex64)

    def test_count_and_normalization(self, wilson448):
        for dtype in self.DTYPES:
            nulls = generate_null_vectors(
                wilson448, 3, np.random.default_rng(1), 30, dtype=dtype
            )
            assert len(nulls) == 3
            for v in nulls:
                assert v.dtype == np.complex128
                assert np.linalg.norm(v.ravel()) == pytest.approx(1.0)

    def test_rich_in_low_modes(self, critical_op):
        # relaxation must suppress |Mv|/|v| well below a random vector's
        lat = critical_op.lattice
        rand = random_spinor(lat, seed=3)
        rand /= np.linalg.norm(rand.ravel())
        ray_rand = np.linalg.norm(critical_op.apply(rand).ravel())
        for dtype in self.DTYPES:
            nulls = generate_null_vectors(
                critical_op, 2, np.random.default_rng(2), 60, dtype=dtype
            )
            for v in nulls:
                ray = np.linalg.norm(critical_op.apply(v).ravel())
                assert ray < 0.3 * ray_rand

    def test_vectors_differ(self, wilson448):
        for dtype in self.DTYPES:
            nulls = generate_null_vectors(
                wilson448, 2, np.random.default_rng(4), 20, dtype=dtype
            )
            overlap = abs(np.vdot(nulls[0].ravel(), nulls[1].ravel()))
            assert overlap < 0.99


class TestHierarchy:
    def test_level_structure(self, critical_op):
        params = MGParams(
            levels=[
                LevelParams(block=(2, 2, 2, 2), n_null=4, null_iters=20),
                LevelParams(block=(1, 1, 1, 2), n_null=3, null_iters=20),
            ]
        )
        h = MultigridHierarchy.build(critical_op, params, np.random.default_rng(6))
        assert h.n_levels == 3
        assert h.levels[0].op is critical_op
        assert h.levels[1].op.lattice.dims == (2, 2, 2, 4)
        assert h.levels[1].op.nc == 4
        assert h.levels[1].op.ns == 2
        assert h.levels[2].op.lattice.dims == (2, 2, 2, 2)
        assert h.levels[2].op.nc == 3

    def test_coarsest_flag(self, mg_solver):
        levels = mg_solver.hierarchy.levels
        assert not levels[0].is_coarsest
        assert levels[-1].is_coarsest


class TestSmoother:
    def test_reduces_residual(self, critical_op):
        s = SchurMRSmoother(critical_op, steps=4)
        r = random_spinor(critical_op.lattice, seed=7)
        z = s.apply(r)
        assert norm(r - critical_op.apply(z)) < norm(r)

    def test_more_steps_smooth_more(self, critical_op):
        r = random_spinor(critical_op.lattice, seed=8)
        res = []
        for steps in (1, 4):
            z = SchurMRSmoother(critical_op, steps=steps).apply(r)
            res.append(norm(r - critical_op.apply(z)))
        assert res[1] < res[0]


class TestKCycle:
    def test_preconditioner_accelerates_gcr(self, mg_solver, critical_op):
        b = random_spinor(critical_op.lattice, seed=9)
        plain = gcr(critical_op, b, tol=1e-8, maxiter=2000)
        pre = gcr(
            critical_op,
            b,
            tol=1e-8,
            maxiter=200,
            preconditioner=KCyclePreconditioner(mg_solver.hierarchy),
        )
        assert pre.converged
        assert pre.iterations < plain.iterations / 3

    def test_gcr_reductions_formula(self):
        assert gcr_reductions(0, 10) == 0
        assert gcr_reductions(1, 10) == 3
        assert gcr_reductions(3, 10) == 3 + 4 + 5
        # restart resets the orthogonalization depth
        assert gcr_reductions(4, 2) == 3 + 4 + 3 + 4


class TestMultigridSolver:
    def test_converges(self, mg_solver, critical_op):
        b = random_spinor(critical_op.lattice, seed=10)
        res = mg_solver.solve(b)
        assert res.converged
        assert norm(b - critical_op.apply(res.x)) / norm(b) < 2e-8

    def test_beats_bicgstab_iterations(self, mg_solver, critical_op):
        b = random_spinor(critical_op.lattice, seed=11)
        res_mg = mg_solver.solve(b)
        res_bi = bicgstab(critical_op, b, tol=1e-8, maxiter=20000)
        assert res_mg.iterations < res_bi.iterations / 5

    def test_iteration_count_stable_near_criticality(self, critical_op):
        # the paper's central claim: MG iterations do not blow up as the
        # mass approaches criticality (critical slowing down removed)
        lat = critical_op.lattice
        gauge = critical_op.gauge
        b = random_spinor(lat, seed=12)
        iters = []
        for dm in (0.1, 0.02):
            op = WilsonCloverOperator(gauge, mass=-1.406 + dm, c_sw=1.0)
            params = MGParams(
                levels=[LevelParams(block=(2, 2, 2, 4), n_null=8, null_iters=50)],
                outer_tol=1e-8,
            )
            mgs = MultigridSolver(op, params, np.random.default_rng(5))
            iters.append(mgs.solve(b).iterations)
        assert iters[1] <= 3 * iters[0]

    def test_level_stats_recorded(self, mg_solver, critical_op):
        b = random_spinor(critical_op.lattice, seed=13)
        res = mg_solver.solve(b)
        stats = res.telemetry.level_stats
        assert set(stats.keys()) == {0, 1}
        assert stats[0]["smoother_applies"] > 0
        assert stats[0]["restricts"] == stats[0]["prolongs"] > 0
        assert stats[1]["gcr_iters"] > 0

    def test_tol_override(self, mg_solver, critical_op):
        b = random_spinor(critical_op.lattice, seed=14)
        loose = mg_solver.solve(b, tol=1e-4)
        tight = mg_solver.solve(b, tol=1e-9)
        assert loose.iterations < tight.iterations

    def test_solve_field(self, mg_solver, critical_op):
        from repro.fields import SpinorField

        b = SpinorField(critical_op.lattice, random_spinor(critical_op.lattice, seed=15))
        x, res = mg_solver.solve_field(b)
        assert res.converged
        assert x.lattice == critical_op.lattice

    def test_initial_guess(self, mg_solver, critical_op):
        b = random_spinor(critical_op.lattice, seed=16)
        x_exact = mg_solver.solve(b, tol=1e-10).x
        warm = mg_solver.solve(b, x0=x_exact, tol=1e-8)
        assert warm.iterations <= 1

    def test_three_level_solver(self, critical_op):
        params = MGParams(
            levels=[
                LevelParams(block=(2, 2, 2, 2), n_null=6, null_iters=40),
                LevelParams(block=(1, 1, 1, 2), n_null=4, null_iters=30),
            ],
            outer_tol=1e-8,
        )
        mgs = MultigridSolver(critical_op, params, np.random.default_rng(7))
        b = random_spinor(critical_op.lattice, seed=17)
        res = mgs.solve(b)
        assert res.converged
        assert set(res.telemetry.level_stats.keys()) == {0, 1, 2}

    def test_subspace_label(self, mg_solver):
        assert mg_solver.params.subspace_label() == "8"

    def test_solve_multi_shares_setup(self, mg_solver, critical_op):
        bs = np.stack(
            [random_spinor(critical_op.lattice, seed=800 + k) for k in range(3)]
        )
        results = mg_solver.solve_multi(bs, tol=1e-8)
        assert len(results) == 3
        for res, b in zip(results, bs):
            assert res.converged
            assert norm(b - critical_op.apply(res.x)) / norm(b) < 2e-8
