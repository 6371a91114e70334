"""Anisotropic Wilson-Clover operator (the Aniso40 regime)."""

import numpy as np
import pytest

from repro.dirac import WilsonCloverOperator
from repro.gauge import free_field
from repro.workloads import ANISO40_SCALED
from tests.conftest import random_spinor


class TestAnisotropicOperator:
    def test_free_constant_eigenvalue_independent_of_xi(self, lat44):
        for xi in (1.0, 2.0, 3.5):
            op = WilsonCloverOperator(
                free_field(lat44), mass=0.4, antiperiodic_t=False, anisotropy=xi
            )
            c = np.ones((lat44.volume, 4, 3), dtype=complex)
            np.testing.assert_allclose(op.apply(c), 0.4 * c, atol=1e-13)

    def test_isotropic_limit(self, gauge44, lat44):
        iso = WilsonCloverOperator(gauge44, mass=-0.1)
        xi1 = WilsonCloverOperator(gauge44, mass=-0.1, anisotropy=1.0)
        v = random_spinor(lat44, seed=80)
        np.testing.assert_allclose(iso.apply(v), xi1.apply(v), atol=1e-13)

    def test_spatial_hops_downweighted(self, gauge44, lat44):
        op = WilsonCloverOperator(gauge44, mass=-0.1, anisotropy=3.5)
        iso = WilsonCloverOperator(gauge44, mass=-0.1)
        v = random_spinor(lat44, seed=81)
        # spatial hop magnitude scales by 1/xi, temporal is unchanged
        for mu in (0, 1, 2):
            ratio = np.linalg.norm(op.apply_hop(mu, +1, v).ravel()) / np.linalg.norm(
                iso.apply_hop(mu, +1, v).ravel()
            )
            assert ratio == pytest.approx(1 / 3.5, rel=1e-10)
        t_ratio = np.linalg.norm(op.apply_hop(3, +1, v).ravel()) / np.linalg.norm(
            iso.apply_hop(3, +1, v).ravel()
        )
        assert t_ratio == pytest.approx(1.0, rel=1e-10)

    def test_gamma5_hermiticity_preserved(self, gauge44, lat44):
        op = WilsonCloverOperator(gauge44, mass=-0.1, anisotropy=3.5)
        v = random_spinor(lat44, seed=82)
        w = random_spinor(lat44, seed=83)
        g5 = op.gamma5_diag()[None, :, None]
        lhs = np.vdot(w.ravel(), (g5 * op.apply(g5 * v)).ravel())
        rhs = np.conj(np.vdot(v.ravel(), op.apply(w).ravel()))
        assert abs(lhs - rhs) < 1e-9 * abs(lhs)

    def test_custom_hop_weights(self, gauge44, lat44):
        op = WilsonCloverOperator(
            gauge44, mass=0.2, hop_weights=(0.5, 0.5, 0.5, 1.0)
        )
        assert op.hop_weights == (0.5, 0.5, 0.5, 1.0)
        c_free = WilsonCloverOperator(
            free_field(lat44), mass=0.2, antiperiodic_t=False,
            hop_weights=(0.5, 0.5, 0.5, 1.0),
        )
        c = np.ones((lat44.volume, 4, 3), dtype=complex)
        np.testing.assert_allclose(c_free.apply(c), 0.2 * c, atol=1e-13)

    def test_invalid_parameters_rejected(self, gauge44):
        with pytest.raises(ValueError):
            WilsonCloverOperator(gauge44, mass=0.1, anisotropy=0.0)
        with pytest.raises(ValueError):
            WilsonCloverOperator(gauge44, mass=0.1, hop_weights=(1, 1, 1))
        with pytest.raises(ValueError):
            WilsonCloverOperator(gauge44, mass=0.1, hop_weights=(1, -1, 1, 1))

    def test_dataset_uses_anisotropy(self):
        assert ANISO40_SCALED.anisotropy == 3.5
        kwargs = ANISO40_SCALED.operator_kwargs()
        assert kwargs["anisotropy"] == 3.5

    def test_schur_still_exact(self, gauge2, lat2):
        from repro.dirac import SchurOperator
        from tests.conftest import schur_dense

        op = WilsonCloverOperator(gauge2, mass=0.2, anisotropy=2.0)
        rng = np.random.default_rng(84)
        b = rng.standard_normal((lat2.volume, 4, 3)) + 1j * rng.standard_normal(
            (lat2.volume, 4, 3)
        )
        dense = op.to_dense()
        x_direct = np.linalg.solve(dense, b.reshape(-1)).reshape(lat2.volume, 4, 3)
        schur = SchurOperator(op)
        xe = np.linalg.solve(
            schur_dense(schur), schur.prepare_multi(b[None]).reshape(-1)
        ).reshape(1, lat2.half_volume, 4, 3)
        np.testing.assert_allclose(
            schur.reconstruct_multi(xe, b[None])[0], x_direct, atol=1e-11
        )
