"""Red-black (Schur complement) preconditioning, for fine and coarse operators."""

import numpy as np
import pytest

from repro.coarse import coarsen_operator
from repro.dirac import SchurOperator, WilsonCloverOperator
from repro.lattice import Blocking, Lattice
from repro.transfer import Transfer
from tests.conftest import random_spinor


@pytest.fixture(scope="module")
def schur2(wilson2):
    return SchurOperator(wilson2, parity=0)


class TestLifting:
    def test_lift_restrict_roundtrip(self, schur2, lat2):
        half = random_spinor(Lattice((2, 2, 2, 2)), seed=1)[: lat2.half_volume]
        assert np.array_equal(schur2.restrict(schur2.lift(half)), half)

    def test_lift_zero_pads_other_parity(self, schur2, lat2):
        half = random_spinor(lat2, seed=2)[: lat2.half_volume]
        full = schur2.lift(half)
        assert np.abs(full[lat2.odd_sites]).max() == 0.0

    def test_bad_parity_rejected(self, wilson2):
        with pytest.raises(ValueError):
            SchurOperator(wilson2, parity=2)


class TestSchurSolveEquivalence:
    def test_matches_direct_solve(self, wilson2, schur2, lat2):
        rng = np.random.default_rng(3)
        b = random_spinor(lat2, seed=3)
        dense = wilson2.to_dense()
        x_direct = np.linalg.solve(dense, b.reshape(-1)).reshape(lat2.volume, 4, 3)
        xe = np.linalg.solve(
            schur2.to_dense(), schur2.prepare_source(b).reshape(-1)
        ).reshape(schur2.half_volume, 4, 3)
        x_schur = schur2.reconstruct(xe, b)
        np.testing.assert_allclose(x_schur, x_direct, atol=1e-11)

    def test_odd_parity_variant(self, wilson2, lat2):
        schur = SchurOperator(wilson2, parity=1)
        b = random_spinor(lat2, seed=4)
        dense = wilson2.to_dense()
        x_direct = np.linalg.solve(dense, b.reshape(-1)).reshape(lat2.volume, 4, 3)
        xo = np.linalg.solve(
            schur.to_dense(), schur.prepare_source(b).reshape(-1)
        ).reshape(schur.half_volume, 4, 3)
        x_schur = schur.reconstruct(xo, b)
        np.testing.assert_allclose(x_schur, x_direct, atol=1e-11)

    def test_reconstruction_satisfies_full_system(self, wilson448, lat448):
        from repro.solvers import bicgstab

        schur = SchurOperator(wilson448, parity=0)
        b = random_spinor(lat448, seed=5)
        res = bicgstab(schur, schur.prepare_source(b), tol=1e-10, maxiter=2000)
        assert res.converged
        x = schur.reconstruct(res.x, b)
        resid = np.linalg.norm((b - wilson448.apply(x)).ravel())
        assert resid < 1e-8 * np.linalg.norm(b.ravel())


class TestSchurStructure:
    def test_schur_gamma5_hermiticity(self, schur2, lat2):
        # gamma5 M_hat gamma5 = M_hat^dag holds on the half lattice
        hv = schur2.half_volume
        v = random_spinor(lat2, seed=6)[:hv]
        w = random_spinor(lat2, seed=7)[:hv]
        g5 = schur2.gamma5_diag()[None, :, None]
        lhs = np.vdot(w.ravel(), (g5 * schur2.apply(g5 * v)).ravel())
        rhs = np.conj(np.vdot(v.ravel(), schur2.apply(w).ravel()))
        assert abs(lhs - rhs) < 1e-10 * abs(lhs)

    def test_better_conditioned_than_full(self, wilson2, schur2):
        full = wilson2.to_dense()
        red = schur2.to_dense()
        cond_full = np.linalg.cond(full)
        cond_red = np.linalg.cond(red)
        assert cond_red < cond_full


class TestCoarseSchur:
    def test_coarse_schur_matches_direct(self, wilson44, lat44):
        rng = np.random.default_rng(9)
        blocking = Blocking(lat44, (2, 2, 2, 2))
        nulls = [random_spinor(lat44, seed=100 + k) for k in range(4)]
        transfer = Transfer(blocking, nulls)
        mc = coarsen_operator(wilson44, transfer)
        schur = SchurOperator(mc, parity=0)
        b = rng.standard_normal((mc.lattice.volume, 2, 4)) + 1j * rng.standard_normal(
            (mc.lattice.volume, 2, 4)
        )
        dense = mc.to_dense()
        x_direct = np.linalg.solve(dense, b.reshape(-1)).reshape(b.shape)
        xe = np.linalg.solve(
            schur.to_dense(), schur.prepare_source(b).reshape(-1)
        ).reshape(schur.half_volume, 2, 4)
        np.testing.assert_allclose(schur.reconstruct(xe, b), x_direct, atol=1e-10)
