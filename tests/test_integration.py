"""Full-stack integration: gauge -> operator -> multigrid -> physics checks."""

import numpy as np
import pytest

from repro.comm import PartitionedOperator
from repro.dirac import SchurOperator, WilsonCloverOperator
from repro.fields import SpinorField
from repro.lattice import Lattice, Partition
from repro.mg import LevelParams, MGParams, MultigridSolver
from repro.precision import Precision
from repro.solvers import norm
from repro.solvers.bicgstab import bicgstab
from repro.workloads import ANISO40_SCALED, run_propagator
from tests.conftest import random_spinor


@pytest.fixture(scope="module")
def dataset_op():
    ds = ANISO40_SCALED
    return ds, WilsonCloverOperator(ds.gauge(), **ds.operator_kwargs())


@pytest.fixture(scope="module")
def dataset_mg(dataset_op):
    ds, op = dataset_op
    params = MGParams(
        levels=[LevelParams(block=ds.blockings[0], n_null=6, null_iters=50)],
        outer_tol=ds.target_residuum,
    )
    return MultigridSolver(op, params, np.random.default_rng(3))


class TestEndToEnd:
    def test_mg_solves_scaled_dataset(self, dataset_op, dataset_mg):
        ds, op = dataset_op
        b = random_spinor(ds.lattice(), seed=50)
        res = dataset_mg.solve(b)
        assert res.converged
        assert norm(b - op.apply(res.x)) / norm(b) < 2 * ds.target_residuum

    def test_mg_vs_bicgstab_iteration_gap(self, dataset_op, dataset_mg):
        ds, op = dataset_op
        b = random_spinor(ds.lattice(), seed=51)
        mg_res = dataset_mg.solve(b)
        bi_res = bicgstab(op, b, tol=ds.target_residuum, maxiter=50000)
        assert mg_res.iterations * 3 < bi_res.iterations

    def test_propagator_workload(self, dataset_op, dataset_mg):
        ds, op = dataset_op

        def solve(b, tol_override=None):
            return dataset_mg.solve(b, tol=tol_override or ds.target_residuum)

        result = run_propagator(solve, ds.lattice(), op, n_components=2)
        assert len(result.iterations) == 2
        assert result.mean_iterations() < 60
        assert result.mean_error_over_residual() > 0
        stats = result.mean_level_stats()
        assert 0 in stats and stats[0]["op_applies"] > 0

    def test_point_source_propagator_decays(self, dataset_op, dataset_mg):
        # physics sanity: |propagator(x)| decays away from the source
        ds, op = dataset_op
        lat = ds.lattice()
        b = SpinorField.point_source(lat, 0, 0, 0)
        res = dataset_mg.solve(b.data, tol=1e-8)
        mag = np.abs(res.x).sum(axis=(1, 2))
        t = lat.site_coords[:, 3]
        near = mag[t == 1].mean()
        far = mag[t == lat.dims[3] // 2].mean()
        assert far < near

    def test_mixed_precision_mg(self, dataset_op):
        ds, op = dataset_op
        params = MGParams(
            levels=[LevelParams(block=ds.blockings[0], n_null=6, null_iters=40)],
            outer_tol=1e-8,
            smoother_precision=Precision.HALF,
            coarse_precision=Precision.SINGLE,
        )
        mgs = MultigridSolver(op, params, np.random.default_rng(4))
        b = random_spinor(ds.lattice(), seed=52)
        res = mgs.solve(b)
        assert res.converged
        assert norm(b - op.apply(res.x)) / norm(b) < 2e-8

    def test_partitioned_operator_in_mg_context(self, dataset_op):
        # the domain-decomposed operator reproduces the site-major
        # formulation bit for bit, and the production kernel to roundoff
        ds, op = dataset_op
        part = Partition(ds.lattice(), (1, 1, 1, 2))
        pop = PartitionedOperator(op, part)
        v = random_spinor(ds.lattice(), seed=53)
        np.testing.assert_array_equal(pop.apply(v), op.apply_reference(v))
        np.testing.assert_allclose(pop.apply(v), op.apply(v), rtol=0, atol=1e-12)

    def test_schur_and_full_mg_agree(self, dataset_op, dataset_mg):
        # solving via red-black BiCGStab and via MG gives the same x
        ds, op = dataset_op
        b = random_spinor(ds.lattice(), seed=54)
        x_mg = dataset_mg.solve(b, tol=1e-10).x
        schur = SchurOperator(op)
        res = bicgstab(schur, schur.prepare_multi(b[None])[0], tol=1e-11, maxiter=50000)
        x_bi = schur.reconstruct_multi(res.x[None], b[None])[0]
        assert norm(x_mg - x_bi) / norm(x_bi) < 1e-7
