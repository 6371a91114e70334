"""The coarse operator and its Galerkin construction (paper Eq 3)."""

import numpy as np
import pytest

from repro.coarse import CoarseOperator, coarsen_operator
from repro.coarse.coarse_op import gamma5_adjoint
from repro.dirac import WilsonCloverOperator
from repro.lattice import NDIM, Blocking, Lattice
from repro.transfer import Transfer
from tests.conftest import random_spinor


@pytest.fixture(scope="module")
def setup44(wilson44, lat44, blocking44):
    nulls = [random_spinor(lat44, seed=500 + k) for k in range(4)]
    transfer = Transfer(blocking44, nulls)
    coarse = coarsen_operator(wilson44, transfer)
    return wilson44, transfer, coarse


def random_coarse_vec(op, seed):
    r = np.random.default_rng(seed)
    shape = (op.lattice.volume, op.ns, op.nc)
    return r.standard_normal(shape) + 1j * r.standard_normal(shape)


class TestGalerkinIdentity:
    def test_exact_galerkin_product(self, setup44):
        fine, transfer, coarse = setup44
        xc = random_coarse_vec(coarse, 1)
        lhs = coarse.apply(xc)
        rhs = transfer.restrict(fine.apply(transfer.prolong(xc)))
        np.testing.assert_allclose(lhs, rhs, atol=1e-11)

    def test_diag_plus_hops_equals_apply(self, setup44):
        _, _, coarse = setup44
        xc = random_coarse_vec(coarse, 2)
        composed = coarse.apply_diag(xc) + coarse.apply_hopping(xc)
        np.testing.assert_allclose(coarse.apply(xc), composed, atol=1e-12)

    def test_mismatched_transfer_rejected(self, wilson44):
        other = Lattice((4, 4, 4, 8))
        blocking = Blocking(other, (2, 2, 2, 2))
        nulls = [random_spinor(other, seed=k) for k in range(3)]
        transfer = Transfer(blocking, nulls)
        with pytest.raises(ValueError):
            coarsen_operator(wilson44, transfer)


def coarsen_term_by_term(op, transfer) -> CoarseOperator:
    """The construction ``coarsen_operator`` replaced, as its oracle: one
    unit column and one fine term at a time, every hop evaluated on the
    whole lattice and split by whether it crossed an aggregate boundary."""
    blocking, coarse = transfer.blocking, transfer.coarse_lattice
    ns_c, nc_c = transfer.coarse_ns, transfer.coarse_nc
    n, vc = ns_c * nc_c, coarse.volume
    x_blocks = np.zeros((vc, n, n), dtype=np.complex128)
    hop_blocks = np.zeros((NDIM, 2, vc, n, n), dtype=np.complex128)
    unit = np.zeros((vc, ns_c, nc_c), dtype=np.complex128)
    for j in range(n):
        unit.reshape(vc, n)[:, j] = 1.0
        basis_fine = transfer.prolong(unit)
        unit[:] = 0.0
        x_blocks[:, :, j] += transfer.restrict(op.apply_diag(basis_fine)).reshape(vc, n)
        for mu in range(NDIM):
            for d, (sign, cross) in enumerate(
                ((+1, blocking.crosses_block_fwd(mu)), (-1, blocking.crosses_block_bwd(mu)))
            ):
                hop = op.apply_hop(mu, sign, basis_fine)
                crossing = hop * cross[:, None, None]
                hop_blocks[mu, d, :, :, j] += transfer.restrict(crossing).reshape(vc, n)
                x_blocks[:, :, j] += transfer.restrict(hop - crossing).reshape(vc, n)
    return CoarseOperator(coarse, x_blocks, hop_blocks, ns_c, nc_c)


class TestStackedConstruction:
    """Each chirality's columns as one stack, the forward hops on every
    site, the backward half derived by gamma5-hermiticity."""

    @pytest.fixture(scope="class")
    def two_levels(self, wilson448, lat448):
        t1 = Transfer(
            Blocking(lat448, (2, 2, 2, 2)),
            [random_spinor(lat448, seed=700 + k) for k in range(3)],
        )
        mc1 = coarsen_operator(wilson448, t1)
        t2 = Transfer(
            Blocking(mc1.lattice, (1, 1, 1, 2)),
            [random_coarse_vec(mc1, 710 + k) for k in range(2)],
        )
        return (wilson448, t1, mc1), (mc1, t2, coarsen_operator(mc1, t2))

    def test_blocks_equal_the_term_by_term_construction(self, two_levels):
        for fine, transfer, coarse in two_levels:
            want = coarsen_term_by_term(fine, transfer)
            scale = np.abs(want.x_blocks).max()
            assert np.abs(coarse.x_blocks - want.x_blocks).max() <= 1e-13 * scale
            assert np.abs(coarse.hop_blocks - want.hop_blocks).max() <= 1e-13 * scale

    def test_a_quarter_block_slab_equals_the_term_by_term_construction(
        self, wilson448, lat448
    ):
        """An extent-4 direction: each of its boundary slabs is a quarter
        of the block, the other directions' a half."""
        transfer = Transfer(
            Blocking(lat448, (2, 2, 2, 4)),
            [random_spinor(lat448, seed=720 + k) for k in range(3)],
        )
        got = coarsen_operator(wilson448, transfer)
        want = coarsen_term_by_term(wilson448, transfer)
        scale = np.abs(want.x_blocks).max()
        assert np.abs(got.x_blocks - want.x_blocks).max() <= 1e-13 * scale
        assert np.abs(got.hop_blocks - want.hop_blocks).max() <= 1e-13 * scale

    def test_an_anisotropic_operator_equals_the_term_by_term_construction(
        self, gauge448, lat448
    ):
        """Unequal hop weights, as in Aniso40 (xi = 3.5): the derived
        backward half carries each direction's own weight."""
        aniso = WilsonCloverOperator(gauge448, mass=-0.3, c_sw=1.0, anisotropy=3.5)
        assert len(set(aniso.hop_weights)) == 2
        transfer = Transfer(
            Blocking(lat448, (2, 2, 2, 4)),
            [random_spinor(lat448, seed=730 + k) for k in range(3)],
        )
        got = coarsen_operator(aniso, transfer)
        want = coarsen_term_by_term(aniso, transfer)
        scale = np.abs(want.x_blocks).max()
        assert np.abs(got.x_blocks - want.x_blocks).max() <= 1e-13 * scale
        assert np.abs(got.hop_blocks - want.hop_blocks).max() <= 1e-13 * scale

    def test_both_levels_are_gamma5_hermitian_bit_for_bit(self, two_levels):
        for _, _, coarse in two_levels:
            assert coarse.link_hermiticity_violation() == 0.0
            x = coarse.x_blocks
            assert np.array_equal(gamma5_adjoint(x, coarse.chiral_dof), x)
            g = np.kron(coarse.gamma5_diag(), np.ones(coarse.nc))
            assert np.array_equal(g[:, None] * np.conj(np.swapaxes(x, -1, -2)) * g, x)

    def test_a_coarse_input_that_is_not_gamma5_hermitian_is_refused(self, two_levels):
        """The backward half of a product is derived from the forward
        half, so an input that breaks the symmetry must raise, not yield
        wrong backward links."""
        mc1, t2, _ = two_levels[1]
        rng = np.random.default_rng(740)
        shape = mc1.hop_blocks.shape
        random_hops = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        broken = CoarseOperator(mc1.lattice, mc1.x_blocks, random_hops, mc1.ns, mc1.nc)
        with pytest.raises(ValueError, match="gamma5-hermitian"):
            coarsen_operator(broken, t2)
        shape = mc1.x_blocks.shape
        random_x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        broken = CoarseOperator(mc1.lattice, random_x, mc1.hop_blocks, mc1.ns, mc1.nc)
        with pytest.raises(ValueError, match="gamma5-hermitian"):
            coarsen_operator(broken, t2)
        # round-off below the tolerance is accepted
        nudged = mc1.x_blocks * (1 + 1e-15 * rng.standard_normal(shape))
        near = CoarseOperator(mc1.lattice, nudged, mc1.hop_blocks, mc1.ns, mc1.nc)
        coarsen_operator(near, t2)

    def test_column_chunks_give_the_same_blocks(self, two_levels, monkeypatch):
        fine, transfer, coarse = two_levels[0]
        field_bytes = fine.lattice.volume * fine.site_dof * 16
        # two columns per chunk: two chunks for each chirality's three
        monkeypatch.setattr("repro.coarse.galerkin._CHUNK_BYTES", 2 * field_bytes)
        chunked = coarsen_operator(fine, transfer)
        # (a GEMM's summation order depends on its column count)
        assert np.allclose(chunked.hop_blocks, coarse.hop_blocks, rtol=0, atol=1e-14)
        assert np.allclose(chunked.x_blocks, coarse.x_blocks, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("dtype", (np.complex128, np.complex64))
    def test_hop_on_a_site_slab_matches_the_gathered_hop(self, two_levels, dtype):
        """The batched per-site multiplies of the two operator types on a
        chiral stack against the base class's system-by-system default
        and the whole-lattice hop of the full stack; the site-local term
        of a chiral stack against the single-field one."""
        from repro.dirac.stencil import StencilOperator

        rtol = 1e-13 if dtype == np.complex128 else 1e-5
        for op in (two_levels[0][0], two_levels[0][2]):
            rng = np.random.default_rng(3)
            shape = (3, op.lattice.volume, op.ns // 2, op.nc)
            sites = np.flatnonzero(rng.random(op.lattice.volume) < 0.3)
            for chi in range(2):
                vs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                vs = vs.astype(dtype)
                whole = op.full_stack(vs, chi)
                got = op.apply_diag_multi(vs, chi)
                want = np.stack([op.apply_diag(v) for v in whole])
                assert got.dtype == dtype
                assert np.abs(got - want).max() <= rtol * np.abs(want).max()
                for mu in range(NDIM):
                    for sign in (+1, -1):
                        got = op.apply_hop_sites(mu, sign, sites, vs, chi)
                        want = StencilOperator.apply_hop_sites(op, mu, sign, sites, vs, chi)
                        assert got.dtype == dtype and got.shape == want.shape
                        assert np.abs(got - want).max() <= rtol * np.abs(want).max()
                        full = np.stack([op.apply_hop(mu, sign, v) for v in whole])
                        assert np.abs(got - full[:, sites]).max() <= rtol * np.abs(full).max()


class TestEq3Structure:
    def test_link_hermiticity(self, setup44):
        # Y^{-mu}(x) = G Y^{+mu}(x - mu)^dag G  — the Eq-3 structure
        _, _, coarse = setup44
        assert coarse.link_hermiticity_violation() < 1e-12

    def test_gamma5_hermiticity(self, setup44):
        _, _, coarse = setup44
        v = random_coarse_vec(coarse, 3)
        w = random_coarse_vec(coarse, 4)
        g5 = coarse.gamma5_diag()[None, :, None]
        lhs = np.vdot(w.ravel(), (g5 * coarse.apply(g5 * v)).ravel())
        rhs = np.conj(np.vdot(v.ravel(), coarse.apply(w).ravel()))
        assert abs(lhs - rhs) < 1e-9 * abs(lhs)

    def test_hopping_flips_coarse_parity(self, setup44):
        _, _, coarse = setup44
        lat = coarse.lattice
        v = random_coarse_vec(coarse, 5)
        v[lat.odd_sites] = 0
        h = coarse.apply_hopping(v)
        assert np.abs(h[lat.even_sites]).max() == 0.0

    def test_dense_consistency(self, setup44):
        _, _, coarse = setup44
        dense = coarse.to_dense()
        v = random_coarse_vec(coarse, 6)
        np.testing.assert_allclose(
            dense @ v.reshape(-1), coarse.apply(v).reshape(-1), atol=1e-11
        )

    def test_x_inv(self, setup44):
        _, _, coarse = setup44
        v = random_coarse_vec(coarse, 7)
        np.testing.assert_allclose(
            coarse.apply_diag_inv(coarse.apply_diag(v)), v, atol=1e-11
        )

    def test_shape_validation(self, lat2):
        n = 8
        with pytest.raises(ValueError):
            CoarseOperator(
                lat2,
                np.zeros((lat2.volume, n, n), dtype=complex),
                np.zeros((3, 2, lat2.volume, n, n), dtype=complex),
                ns=2,
                nc=4,
            )

    def test_memory_bytes(self, setup44):
        _, _, coarse = setup44
        n = coarse.site_dof
        expect = coarse.lattice.volume * 9 * n * n * 2 * 4.0
        assert coarse.memory_bytes(4.0) == expect


class TestRecursion:
    def test_second_level_galerkin(self, wilson448, lat448):
        t1 = Transfer(
            Blocking(lat448, (2, 2, 2, 2)),
            [random_spinor(lat448, seed=600 + k) for k in range(3)],
        )
        mc1 = coarsen_operator(wilson448, t1)
        rng = np.random.default_rng(7)
        shape = (mc1.lattice.volume, 2, 3)
        nulls2 = [
            rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            for _ in range(2)
        ]
        t2 = Transfer(Blocking(mc1.lattice, (1, 1, 1, 2)), nulls2)
        mc2 = coarsen_operator(mc1, t2)
        xc = random_coarse_vec(mc2, 8)
        lhs = mc2.apply(xc)
        rhs = t2.restrict(mc1.apply(t2.prolong(xc)))
        np.testing.assert_allclose(lhs, rhs, atol=1e-11)
        assert mc2.link_hermiticity_violation() < 1e-12

    def test_near_null_space_transferred(self, wilson448, lat448):
        # a vector well represented by the aggregates keeps a small
        # Rayleigh quotient through the Galerkin product, whichever
        # precision it was relaxed in
        from repro.mg import generate_null_vectors

        for dtype in (np.complex128, np.complex64):
            nulls = generate_null_vectors(
                wilson448, 3, np.random.default_rng(11), null_iters=40, dtype=dtype
            )
            t = Transfer(Blocking(lat448, (2, 2, 2, 4)), nulls)
            mc = coarsen_operator(wilson448, t)
            v = nulls[0]
            fine_ray = np.linalg.norm(wilson448.apply(v).ravel())
            xc = t.restrict(v)
            coarse_ray = np.linalg.norm(mc.apply(xc).ravel()) / np.linalg.norm(xc.ravel())
            # coarse operator must not blow up the near-null component
            assert coarse_ray < 20 * fine_ray + 0.5
