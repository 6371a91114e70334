"""Krylov solvers: BiCGStab and GCR."""

import numpy as np
import pytest

from repro.dirac import SchurOperator
from repro.mg import SchurMRSmoother
from repro.solvers import bicgstab, gcr, norm
from tests.conftest import random_spinor


def true_residual(op, x, b):
    return norm(b - op.apply(x)) / norm(b)


class TestBiCGStab:
    def test_converges(self, wilson448, lat448):
        b = random_spinor(lat448, seed=68)
        res = bicgstab(wilson448, b, tol=1e-9, maxiter=5000)
        assert res.converged
        assert true_residual(wilson448, res.x, b) < 2e-9

    def test_two_matvecs_per_iteration(self, wilson44, lat44):
        b = random_spinor(lat44, seed=69)
        res = bicgstab(wilson44, b, tol=1e-8)
        assert res.matvecs <= 2 * res.iterations + 1

    def test_zero_rhs(self, wilson44, lat44):
        res = bicgstab(wilson44, np.zeros((lat44.volume, 4, 3), dtype=complex))
        assert res.converged and norm(res.x) == 0.0

    def test_initial_guess(self, wilson44, lat44):
        b = random_spinor(lat44, seed=71)
        x0 = bicgstab(wilson44, b, tol=1e-10, maxiter=5000).x
        warm = bicgstab(wilson44, b, x0=x0, tol=1e-8, maxiter=10)
        assert warm.converged

    def test_on_schur_system(self, wilson448, lat448):
        schur = SchurOperator(wilson448, 0)
        b = random_spinor(lat448, seed=72)
        bs = schur.prepare_source(b)
        res = bicgstab(schur, bs, tol=1e-9, maxiter=5000)
        assert res.converged

    def test_schur_fewer_iterations_than_full(self, wilson448, lat448):
        # red-black preconditioning accelerates convergence (Section 3.3)
        b = random_spinor(lat448, seed=73)
        full = bicgstab(wilson448, b, tol=1e-8, maxiter=20000)
        schur = SchurOperator(wilson448, 0)
        red = bicgstab(schur, schur.prepare_source(b), tol=1e-8, maxiter=20000)
        assert red.iterations < full.iterations


class TestGCR:
    def test_converges_unpreconditioned(self, wilson44, lat44):
        b = random_spinor(lat44, seed=79)
        res = gcr(wilson44, b, tol=1e-8, maxiter=2000)
        assert res.converged
        assert true_residual(wilson44, res.x, b) < 2e-8

    def test_residual_monotone_within_cycle(self, wilson44, lat44):
        # GCR minimizes the residual at every step
        b = random_spinor(lat44, seed=80)
        res = gcr(wilson44, b, tol=1e-8, maxiter=500, nkrylov=10)
        h = res.residual_history
        assert all(h[i + 1] <= h[i] + 1e-12 for i in range(len(h) - 1))

    def test_preconditioner_reduces_iterations(self, wilson448, lat448):
        b = random_spinor(lat448, seed=81)
        plain = gcr(wilson448, b, tol=1e-8, maxiter=3000)
        pre = gcr(
            wilson448,
            b,
            tol=1e-8,
            maxiter=3000,
            preconditioner=SchurMRSmoother(wilson448, steps=4),
        )
        assert pre.converged
        assert pre.iterations < plain.iterations

    def test_zero_rhs(self, wilson44, lat44):
        res = gcr(wilson44, np.zeros((lat44.volume, 4, 3), dtype=complex))
        assert res.converged

    def test_restart_allows_long_solves(self, wilson448, lat448):
        b = random_spinor(lat448, seed=82)
        res = gcr(wilson448, b, tol=1e-8, maxiter=3000, nkrylov=5)
        assert res.converged

    def test_maxiter_respected(self, wilson44, lat44):
        b = random_spinor(lat44, seed=83)
        res = gcr(wilson44, b, tol=1e-30, maxiter=7)
        assert res.iterations == 7
