"""GMRES and communication-avoiding GMRES."""

import numpy as np
import pytest

from repro.solvers import ca_gmres, gcr, gmres, norm
from tests.conftest import random_spinor


def true_rel_residual(op, x, b):
    return norm(b - op.apply(x)) / norm(b)


class TestGMRES:
    def test_converges(self, wilson44, lat44):
        b = random_spinor(lat44, seed=300)
        res = gmres(wilson44, b, tol=1e-8, maxiter=2000, restart=20)
        assert res.converged
        assert true_rel_residual(wilson44, res.x, b) < 1e-7

    def test_zero_rhs(self, wilson44, lat44):
        res = gmres(wilson44, np.zeros((lat44.volume, 4, 3), dtype=complex))
        assert res.converged

    def test_initial_guess(self, wilson44, lat44):
        b = random_spinor(lat44, seed=301)
        x0 = gmres(wilson44, b, tol=1e-10, maxiter=2000).x
        warm = gmres(wilson44, b, x0=x0, tol=1e-8, maxiter=30)
        assert warm.converged
        assert warm.iterations <= 3

    def test_reductions_counted(self, wilson44, lat44):
        b = random_spinor(lat44, seed=302)
        res = gmres(wilson44, b, tol=1e-6, maxiter=500)
        # Arnoldi costs O(j) reductions per step: at least 2 per iter
        assert res.telemetry.attrs["reductions"] >= 2 * res.iterations

    def test_restart_still_converges(self, wilson44, lat44):
        b = random_spinor(lat44, seed=303)
        res = gmres(wilson44, b, tol=1e-8, maxiter=3000, restart=5)
        assert res.converged


class TestCAGMRES:
    def test_converges(self, wilson44, lat44):
        b = random_spinor(lat44, seed=304)
        res = ca_gmres(wilson44, b, tol=1e-8, maxiter=3000, s=4)
        assert res.converged
        assert true_rel_residual(wilson44, res.x, b) < 1e-7

    def test_bad_s_rejected(self, wilson44, lat44):
        b = random_spinor(lat44, seed=305)
        with pytest.raises(ValueError):
            ca_gmres(wilson44, b, s=0)

    def test_zero_rhs(self, wilson44, lat44):
        res = ca_gmres(wilson44, np.zeros((lat44.volume, 4, 3), dtype=complex))
        assert res.converged

    def test_fewer_reductions_than_gmres(self, wilson44, lat44):
        # the entire point of the s-step formulation (paper Section 9)
        b = random_spinor(lat44, seed=306)
        res_g = gmres(wilson44, b, tol=1e-8, maxiter=2000)
        res_ca = ca_gmres(wilson44, b, tol=1e-8, maxiter=2000, s=4)
        assert res_ca.converged
        red_per_matvec_g = res_g.telemetry.attrs["reductions"] / res_g.matvecs
        red_per_matvec_ca = res_ca.telemetry.attrs["reductions"] / res_ca.matvecs
        assert red_per_matvec_ca < 0.5 * red_per_matvec_g

    def test_works_on_coarse_operator(self, wilson448, lat448):
        # the intended deployment: the coarsest-grid solve
        from repro.coarse import coarsen_operator
        from repro.lattice import Blocking
        from repro.transfer import Transfer

        t = Transfer(
            Blocking(lat448, (2, 2, 2, 4)),
            [random_spinor(lat448, seed=310 + k) for k in range(4)],
        )
        mc = coarsen_operator(wilson448, t)
        rng = np.random.default_rng(8)
        b = rng.standard_normal((mc.lattice.volume, 2, 4)) + 1j * rng.standard_normal(
            (mc.lattice.volume, 2, 4)
        )
        res = ca_gmres(mc, b, tol=1e-8, maxiter=2000, s=4)
        assert res.converged

    def test_comparable_matvecs_to_gcr(self, wilson44, lat44):
        b = random_spinor(lat44, seed=307)
        res_gcr = gcr(wilson44, b, tol=1e-8, maxiter=2000)
        res_ca = ca_gmres(wilson44, b, tol=1e-8, maxiter=2000, s=4)
        # s-step pays a modest matvec premium for the lost optimality
        assert res_ca.matvecs < 4 * res_gcr.matvecs
