"""Cross-module property-based tests: invariants over random problems.

Hypothesis draws random (small) lattice geometries, gauge roughness,
masses and blockings; the structural invariants — gamma5-hermiticity,
Schur-complement exactness, Galerkin identity, transfer adjointness,
partitioned-operator equality — must hold for every combination.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.coarse import coarsen_operator
from repro.comm import PartitionedOperator
from repro.dirac import SchurOperator, WilsonCloverOperator
from repro.gauge import disordered_field
from repro.lattice import Blocking, Lattice, Partition
from repro.transfer import Transfer

SETTINGS = dict(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def wilson_problem(draw):
    dims = (
        draw(st.sampled_from([2, 4])),
        draw(st.sampled_from([2, 4])),
        draw(st.sampled_from([2, 4])),
        draw(st.sampled_from([2, 4, 8])),
    )
    disorder = draw(st.floats(0.0, 0.8))
    mass = draw(st.floats(-0.8, 0.8))
    c_sw = draw(st.sampled_from([0.0, 1.0]))
    xi = draw(st.sampled_from([1.0, 2.0]))
    seed = draw(st.integers(0, 10**6))
    lat = Lattice(dims)
    u = disordered_field(lat, np.random.default_rng(seed), disorder)
    op = WilsonCloverOperator(u, mass=mass, c_sw=c_sw, anisotropy=xi)
    rng = np.random.default_rng(seed + 1)
    shape = (lat.volume, 4, 3)
    v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    w = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return op, v, w


class TestOperatorProperties:
    @given(wilson_problem())
    @settings(**SETTINGS)
    def test_gamma5_hermiticity(self, problem):
        op, v, w = problem
        g5 = op.gamma5_diag()[None, :, None]
        lhs = np.vdot(w.ravel(), (g5 * op.apply(g5 * v)).ravel())
        rhs = np.conj(np.vdot(v.ravel(), op.apply(w).ravel()))
        assert abs(lhs - rhs) <= 1e-8 * max(abs(lhs), 1.0)

    @given(wilson_problem())
    @settings(**SETTINGS)
    def test_linearity(self, problem):
        op, v, w = problem
        lhs = op.apply(1.5 * v - 2j * w)
        rhs = 1.5 * op.apply(v) - 2j * op.apply(w)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    @given(wilson_problem())
    @settings(**SETTINGS)
    def test_decomposition_consistency(self, problem):
        op, v, _ = problem
        np.testing.assert_allclose(
            op.apply(v), op.apply_diag(v) + op.apply_hopping(v), atol=1e-10
        )

    @given(wilson_problem())
    @settings(**SETTINGS)
    def test_schur_gamma5_hermiticity(self, problem):
        op, v, w = problem
        schur = SchurOperator(op)
        hv = op.lattice.half_volume
        vh, wh = v[None, :hv], w[None, :hv]
        g5 = op.gamma5_diag()[None, None, :, None]
        lhs = np.vdot(wh.ravel(), (g5 * schur.apply_multi(g5 * vh)).ravel())
        rhs = np.conj(np.vdot(vh.ravel(), schur.apply_multi(wh).ravel()))
        assert abs(lhs - rhs) <= 1e-8 * max(abs(lhs), 1.0)


class TestTransferProperties:
    @given(wilson_problem(), st.integers(2, 4))
    @settings(**SETTINGS)
    def test_galerkin_identity(self, problem, n_null):
        op, _, _ = problem
        lat = op.lattice
        block = tuple(max(1, d // 2) for d in lat.dims)
        try:
            blocking = Blocking(lat, block)
        except ValueError:
            return  # geometry not blockable; nothing to check
        rng = np.random.default_rng(3)
        shape = (lat.volume, 4, 3)
        nulls = [
            rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            for _ in range(n_null)
        ]
        t = Transfer(blocking, nulls)
        mc = coarsen_operator(op, t)
        xc = rng.standard_normal((mc.lattice.volume, 2, n_null)) + 1j * rng.standard_normal(
            (mc.lattice.volume, 2, n_null)
        )
        lhs = mc.apply(xc)
        rhs = t.restrict(op.apply(t.prolong(xc)))
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    @given(wilson_problem(), st.integers(2, 3))
    @settings(**SETTINGS)
    def test_transfer_adjointness(self, problem, n_null):
        op, v, _ = problem
        lat = op.lattice
        block = tuple(max(1, d // 2) for d in lat.dims)
        try:
            blocking = Blocking(lat, block)
        except ValueError:
            return
        rng = np.random.default_rng(4)
        shape = (lat.volume, 4, 3)
        nulls = [
            rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            for _ in range(n_null)
        ]
        t = Transfer(blocking, nulls)
        xc = rng.standard_normal((t.coarse_lattice.volume, 2, n_null)) + 1j * rng.standard_normal(
            (t.coarse_lattice.volume, 2, n_null)
        )
        lhs = np.vdot(t.restrict(v).ravel(), xc.ravel())
        rhs = np.vdot(v.ravel(), t.prolong(xc).ravel())
        assert abs(lhs - rhs) <= 1e-8 * max(abs(lhs), 1.0)


class TestDecompositionProperties:
    @given(wilson_problem(), st.integers(0, 3))
    @settings(**SETTINGS)
    def test_partitioned_equals_global(self, problem, part_dir):
        op, v, _ = problem
        lat = op.lattice
        grid = [1, 1, 1, 1]
        if lat.dims[part_dir] >= 4:
            grid[part_dir] = 2
        pop = PartitionedOperator(op, Partition(lat, tuple(grid)))
        np.testing.assert_array_equal(pop.apply(v), op.apply_reference(v))
        np.testing.assert_allclose(pop.apply(v), op.apply(v), rtol=0, atol=1e-12)
