"""Multigrid convergence theory: smoothing and approximation properties.

The two classical ingredients (paper Section 3.4): a smoother that
damps high-frequency error, and a coarse space that captures the
near-null modes.  These tests measure both directly, plus the two-grid
error-contraction factor.
"""

import numpy as np
import pytest

from repro.dirac import WilsonCloverOperator
from repro.gauge import disordered_field
from repro.lattice import Blocking, Lattice
from repro.mg import (
    KCyclePreconditioner,
    LevelParams,
    MGParams,
    MultigridHierarchy,
    SchurMRSmoother,
    generate_null_vectors,
)
from repro.solvers import norm
from repro.solvers.gcr import gcr
from repro.transfer import Transfer
from tests.conftest import random_spinor


@pytest.fixture(scope="module")
def op():
    lat = Lattice((4, 4, 4, 8))
    u = disordered_field(lat, np.random.default_rng(11), 0.55, smear_steps=1)
    return WilsonCloverOperator(u, mass=-1.406 + 0.03, c_sw=1.0)


@pytest.fixture(scope="module")
def hierarchy(op):
    params = MGParams(
        levels=[LevelParams(block=(2, 2, 2, 4), n_null=8, null_iters=60)],
        outer_tol=1e-8,
    )
    return MultigridHierarchy.build(op, params, np.random.default_rng(5))


class TestSmoothingProperty:
    def test_smoother_damps_random_error_faster_than_null_modes(self, op, hierarchy):
        # random error (rich in high modes) must contract faster under
        # smoothing than a near-null vector (the lowest mode content)
        smoother = SchurMRSmoother(op, steps=4)
        null_vec = hierarchy.levels[0].null_vectors[0]

        def contraction(e):
            # smooth the system M z = M e from zero: new error e - z
            r = op.apply(e)
            z = smoother.apply(r)
            return norm(e - z) / norm(e)

        rand_e = random_spinor(op.lattice, seed=90)
        rand_e /= np.linalg.norm(rand_e.ravel())
        c_rand = contraction(rand_e)
        c_null = contraction(null_vec)
        assert c_rand < c_null

    def test_smoothing_reduces_residual_not_stalls(self, op):
        smoother = SchurMRSmoother(op, steps=4)
        r = random_spinor(op.lattice, seed=91)
        z = smoother.apply(r)
        assert norm(r - op.apply(z)) < 0.7 * norm(r)


class TestApproximationProperty:
    def test_coarse_space_captures_null_vectors(self, op, hierarchy):
        # weak approximation property: the prolongator reproduces the
        # near-null vectors it aggregated (exactly, by construction)
        lev = hierarchy.levels[0]
        t = lev.transfer
        for v in lev.null_vectors[:3]:
            pr = t.prolong(t.restrict(v))
            assert norm(pr - v) / norm(v) < 1e-10

    def test_coarse_space_misses_random_vectors(self, op, hierarchy):
        # a generic vector is NOT in the coarse range: P R is a genuine
        # projection, not the identity
        t = hierarchy.levels[0].transfer
        v = random_spinor(op.lattice, seed=92)
        pr = t.prolong(t.restrict(v))
        assert norm(pr - v) / norm(v) > 0.5

    def test_null_vectors_have_small_rayleigh_quotient(self, op, hierarchy):
        for v in hierarchy.levels[0].null_vectors[:3]:
            ray_null = norm(op.apply(v)) / norm(v)
            rand = random_spinor(op.lattice, seed=93)
            ray_rand = norm(op.apply(rand)) / norm(rand)
            assert ray_null < 0.25 * ray_rand


class TestTwoGridContraction:
    def test_error_contraction_per_cycle(self, op, hierarchy):
        # one K-cycle application as an iteration x -> x + B(b - Mx)
        # must contract the error strongly (factor well below 1/2)
        pre = KCyclePreconditioner(hierarchy)
        rng = np.random.default_rng(94)
        shape = (op.lattice.volume, 4, 3)
        e = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        factors = []
        for _ in range(3):
            r = op.apply(e)
            e = e - pre.apply(r)
            factors.append(norm(e))
        rho23 = factors[2] / factors[1]
        assert rho23 < 0.75  # asymptotic per-cycle contraction

    def test_contraction_beats_smoother_alone(self, op, hierarchy):
        pre = KCyclePreconditioner(hierarchy)
        smoother = SchurMRSmoother(op, steps=4)
        rng = np.random.default_rng(95)
        shape = (op.lattice.volume, 4, 3)
        e0 = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        def contract(apply_b, e, n=3):
            for _ in range(n):
                e = e - apply_b(op.apply(e))
            return norm(e) / norm(e0)

        rho_mg = contract(pre.apply, e0.copy())
        rho_sm = contract(smoother.apply, e0.copy())
        # the smoother alone stalls on the near-null space; MG does not
        assert rho_mg < 0.5 * rho_sm

    def test_no_cycle_amplifies_and_the_mean_rate_holds(self, op, hierarchy):
        # the three-cycle ratio above over a longer run: every single
        # cycle contracts, and the mean rate stays where the first
        # cycles put it.  (A two-level hierarchy iterates on its coarsest
        # grid, stopped at ``coarse_tol``; solved exactly, this coarse
        # correction swung between 0.68 and 1.11 per cycle — DESIGN.md
        # section 20.)
        pre = KCyclePreconditioner(hierarchy)
        assert not hierarchy.levels[-1].solved_directly
        rng = np.random.default_rng(94)
        shape = (op.lattice.volume, 4, 3)
        e = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        norms = []
        for _ in range(24):
            e = e - pre.apply(op.apply(e))
            norms.append(norm(e))
        ratios = np.divide(norms[1:], norms[:-1])
        assert ratios.max() < 1.0
        assert (norms[-1] / norms[0]) ** (1.0 / 23) < 0.8

    def test_preconditioner_beats_smoother_alone_under_gcr(self, op, hierarchy):
        # the same comparison where the cycle is used: as the
        # preconditioner of the outer GCR
        pre = KCyclePreconditioner(hierarchy)
        smoother = SchurMRSmoother(op, steps=4)
        b = random_spinor(op.lattice, seed=95)
        with_mg = gcr(op, b, tol=1e-8, maxiter=500, preconditioner=pre)
        with_sm = gcr(op, b, tol=1e-8, maxiter=500, preconditioner=smoother)
        assert with_mg.converged and with_sm.converged
        assert with_mg.iterations < 0.5 * with_sm.iterations

    def test_more_null_vectors_contract_harder(self, op):
        rng_e = np.random.default_rng(96)
        shape = (op.lattice.volume, 4, 3)
        e0 = rng_e.standard_normal(shape) + 1j * rng_e.standard_normal(shape)
        rhos = {}
        for n_null in (2, 8):
            params = MGParams(
                levels=[LevelParams(block=(2, 2, 2, 4), n_null=n_null, null_iters=60)],
                outer_tol=1e-8,
            )
            # holds on 7 of the setup seeds 1..8 (not on 5, where two
            # vectors already contract to 0.150; DESIGN.md section 21)
            h = MultigridHierarchy.build(op, params, np.random.default_rng(4))
            pre = KCyclePreconditioner(h)
            e = e0.copy()
            for _ in range(2):
                e = e - pre.apply(op.apply(e))
            rhos[n_null] = norm(e) / norm(e0)
        assert rhos[8] < rhos[2]
