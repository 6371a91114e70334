"""Red-black (Schur complement) preconditioning, for fine and coarse operators."""

import numpy as np
import pytest

from repro.coarse import coarsen_operator
from repro.dirac import SchurOperator, SchurReference, WilsonCloverOperator
from repro.dirac.mrhs import batched_schur_for
from repro.lattice import Blocking, Lattice
from repro.transfer import Transfer
from tests.conftest import random_spinor, schur_dense


@pytest.fixture(scope="module")
def schur2(wilson2):
    return SchurOperator(wilson2)


class TestLifting:
    def test_lift_restrict_roundtrip(self, wilson2, lat2):
        oracle = SchurReference(wilson2)
        half = random_spinor(Lattice((2, 2, 2, 2)), seed=1)[: lat2.half_volume]
        assert np.array_equal(oracle.restrict(oracle.lift(half)), half)

    def test_lift_zero_pads_other_parity(self, wilson2, lat2):
        half = random_spinor(lat2, seed=2)[: lat2.half_volume]
        full = SchurReference(wilson2).lift(half)
        assert np.abs(full[lat2.odd_sites]).max() == 0.0

    def test_an_operator_without_kernel_tables_is_rejected(self, wilson44, lat44):
        transfer = Transfer(
            Blocking(lat44, (2, 2, 2, 2)),
            [random_spinor(lat44, seed=100 + k) for k in range(4)],
        )
        with pytest.raises(TypeError):
            SchurOperator(coarsen_operator(wilson44, transfer))


class TestSchurSolveEquivalence:
    def test_matches_direct_solve(self, wilson2, schur2, lat2):
        rng = np.random.default_rng(3)
        b = random_spinor(lat2, seed=3)
        dense = wilson2.to_dense()
        x_direct = np.linalg.solve(dense, b.reshape(-1)).reshape(lat2.volume, 4, 3)
        xe = np.linalg.solve(
            schur_dense(schur2), schur2.prepare_multi(b[None]).reshape(-1)
        ).reshape(1, lat2.half_volume, 4, 3)
        x_schur = schur2.reconstruct_multi(xe, b[None])[0]
        np.testing.assert_allclose(x_schur, x_direct, atol=1e-11)

    def test_reconstruction_satisfies_full_system(self, wilson448, lat448):
        from repro.solvers.bicgstab import bicgstab

        schur = SchurOperator(wilson448)
        b = random_spinor(lat448, seed=5)[None]
        res = bicgstab(schur, schur.prepare_multi(b)[0], tol=1e-10, maxiter=2000)
        assert res.converged
        x = schur.reconstruct_multi(res.x[None], b)[0]
        resid = np.linalg.norm((b[0] - wilson448.apply(x)).ravel())
        assert resid < 1e-8 * np.linalg.norm(b.ravel())


class TestSchurStructure:
    def test_schur_gamma5_hermiticity(self, wilson2, schur2, lat2):
        # gamma5 M_hat gamma5 = M_hat^dag holds on the half lattice
        hv = lat2.half_volume
        v = random_spinor(lat2, seed=6)[None, :hv]
        w = random_spinor(lat2, seed=7)[None, :hv]
        g5 = wilson2.gamma5_diag()[None, None, :, None]
        lhs = np.vdot(w.ravel(), (g5 * schur2.apply_multi(g5 * v)).ravel())
        rhs = np.conj(np.vdot(v.ravel(), schur2.apply_multi(w).ravel()))
        assert abs(lhs - rhs) < 1e-10 * abs(lhs)

    def test_better_conditioned_than_full(self, wilson2, schur2):
        full = wilson2.to_dense()
        red = schur_dense(schur2)
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
        schur = batched_schur_for(mc)
        b = rng.standard_normal((mc.lattice.volume, 2, 4)) + 1j * rng.standard_normal(
            (mc.lattice.volume, 2, 4)
        )
        dense = mc.to_dense()
        x_direct = np.linalg.solve(dense, b.reshape(-1)).reshape(b.shape)
        xe = np.linalg.solve(
            schur_dense(schur), schur.prepare_multi(b[None]).reshape(-1)
        ).reshape(1, mc.lattice.half_volume, 2, 4)
        np.testing.assert_allclose(
            schur.reconstruct_multi(xe, b[None])[0], x_direct, atol=1e-10
        )
