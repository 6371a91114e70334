"""Chirality-preserving aggregation transfer operators."""

import numpy as np
import pytest

from repro.dirac.gamma import chirality_slices
from repro.lattice import Blocking, Lattice
from repro.transfer import Transfer
from tests.conftest import random_spinor


@pytest.fixture(scope="module")
def transfer44(lat44, blocking44):
    nulls = [random_spinor(lat44, seed=200 + k) for k in range(5)]
    return Transfer(blocking44, nulls)


def random_coarse(transfer, seed):
    r = np.random.default_rng(seed)
    shape = (transfer.coarse_lattice.volume, 2, transfer.coarse_nc)
    return r.standard_normal(shape) + 1j * r.standard_normal(shape)


class TestConstruction:
    def test_shapes(self, transfer44):
        assert transfer44.coarse_ns == 2
        assert transfer44.coarse_nc == 5
        assert transfer44.coarse_lattice.dims == (2, 2, 2, 2)

    def test_no_vectors_rejected(self, blocking44):
        with pytest.raises(ValueError):
            Transfer(blocking44, [])

    def test_wrong_volume_rejected(self, blocking44):
        bad = np.zeros((7, 4, 3), dtype=complex)
        with pytest.raises(ValueError):
            Transfer(blocking44, [bad])

    def test_too_many_vectors_rejected(self, lat44):
        # aggregate dof per chirality = bv * 2 * 3 = 16*6 = 96 on 2^4 blocks
        blocking = Blocking(lat44, (2, 2, 2, 2))
        nulls = [random_spinor(lat44, seed=k) for k in range(97)]
        with pytest.raises(ValueError):
            Transfer(blocking, nulls)

    def test_dependent_vectors_rejected(self, lat44, blocking44):
        v = random_spinor(lat44, seed=1)
        with pytest.raises(ValueError):
            Transfer(blocking44, [v, 2.0 * v])


class TestOrthonormality:
    def test_block_orthonormal(self, transfer44):
        assert transfer44.orthonormality_violation() < 1e-12

    def test_restrict_prolong_identity(self, transfer44):
        # R P = I on the coarse space
        xc = random_coarse(transfer44, 300)
        rt = transfer44.restrict(transfer44.prolong(xc))
        np.testing.assert_allclose(rt, xc, atol=1e-12)

    def test_prolong_restrict_projector(self, transfer44, lat44):
        # P R is an orthogonal projector on the fine space
        v = random_spinor(lat44, seed=301)
        pr = lambda x: transfer44.prolong(transfer44.restrict(x))
        once = pr(v)
        np.testing.assert_allclose(pr(once), once, atol=1e-12)
        # projector norm <= 1
        assert np.linalg.norm(once.ravel()) <= np.linalg.norm(v.ravel()) + 1e-12


class TestAdjointness:
    def test_restrictor_is_prolongator_dagger(self, transfer44, lat44):
        v = random_spinor(lat44, seed=302)
        xc = random_coarse(transfer44, 303)
        lhs = np.vdot(transfer44.restrict(v).ravel(), xc.ravel())
        rhs = np.vdot(v.ravel(), transfer44.prolong(xc).ravel())
        assert abs(lhs - rhs) < 1e-10 * abs(lhs)


class TestChirality:
    def test_prolong_preserves_chirality(self, transfer44):
        up, down = chirality_slices()
        xc = random_coarse(transfer44, 304)
        xc[:, 1, :] = 0  # only coarse chirality +
        fine = transfer44.prolong(xc)
        assert np.abs(fine[:, down, :]).max() < 1e-14

    def test_restrict_preserves_chirality(self, transfer44, lat44):
        up, down = chirality_slices()
        v = random_spinor(lat44, seed=305)
        v[:, up, :] = 0  # only fine chirality -
        xc = transfer44.restrict(v)
        assert np.abs(xc[:, 0, :]).max() < 1e-14

    def test_null_vectors_reconstructed_exactly(self, lat44, blocking44):
        # the prolongator must reproduce the near-null vectors it was
        # built from (weak approximation property, exact here because
        # the vectors are in the span of the aggregates by construction)
        nulls = [random_spinor(lat44, seed=400 + k) for k in range(3)]
        t = Transfer(blocking44, nulls)
        for v in nulls:
            pr = t.prolong(t.restrict(v))
            np.testing.assert_allclose(pr, v, atol=1e-11)


def _ensemble_transfer(ensemble: str):
    """A fine operator and a 2^4-blocked transfer of four random near-null
    vectors: a rough disordered field, an anisotropic one on distinct
    extents, and the free field without clover."""
    from repro.dirac import WilsonCloverOperator
    from repro.gauge import disordered_field, free_field

    if ensemble == "rough":
        lat = Lattice((4, 4, 4, 4))
        gauge = disordered_field(lat, np.random.default_rng(101), 0.7)
        op = WilsonCloverOperator(gauge, mass=-0.25, c_sw=1.0)
    elif ensemble == "aniso":
        lat = Lattice((4, 4, 4, 8))
        gauge = disordered_field(lat, np.random.default_rng(102), 0.4, smear_steps=1)
        op = WilsonCloverOperator(gauge, mass=-0.3, c_sw=1.3, anisotropy=2.5)
    else:
        lat = Lattice((4, 4, 4, 4))
        op = WilsonCloverOperator(free_field(lat), mass=0.1, c_sw=0.0)
    nulls = [random_spinor(lat, seed=500 + k) for k in range(4)]
    return op, Transfer(Blocking(lat, (2, 2, 2, 2)), nulls)


class TestFusedRestrict:
    """``restrict`` / ``restrict_multi`` gather both chiralities at once
    and multiply by the unconjugated basis; ``restrict_multi_reference``
    runs one chirality at a time against the conjugated basis."""

    @pytest.mark.parametrize("k", (1, 3, 8))
    @pytest.mark.parametrize("ensemble", ("rough", "aniso", "free"))
    def test_matches_the_per_chirality_reference(self, ensemble, k):
        op, t = _ensemble_transfer(ensemble)
        rng = np.random.default_rng(600 + k)
        shape = (k, op.lattice.volume, 4, 3)
        fines = op.apply_multi(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        want = t.restrict_multi_reference(fines)
        scale = np.abs(want).max()
        for dtype, rtol in ((np.complex128, 1e-12), (np.complex64, 5e-6)):
            stack = fines.astype(dtype)
            got = t.restrict_multi(stack)
            assert got.dtype == dtype and got.shape == want.shape
            assert np.abs(got - want).max() <= rtol * scale
            for i in range(k):
                one = t.restrict(stack[i])
                assert one.dtype == dtype
                assert np.abs(one - want[i]).max() <= rtol * scale
            # the conjugation runs on the gathered copy, not the input
            np.testing.assert_array_equal(stack, fines.astype(dtype))


class TestFieldInterface:
    def test_restrict_field(self, transfer44, lat44):
        from repro.fields import SpinorField

        f = SpinorField(lat44, random_spinor(lat44, seed=306))
        out = transfer44.restrict_field(f)
        assert out.lattice == transfer44.coarse_lattice
        np.testing.assert_allclose(out.data, transfer44.restrict(f.data))

    def test_prolong_field(self, transfer44):
        from repro.fields import SpinorField

        xc = random_coarse(transfer44, 307)
        f = SpinorField(transfer44.coarse_lattice, xc)
        out = transfer44.prolong_field(f)
        assert out.lattice == transfer44.fine_lattice
