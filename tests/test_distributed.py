"""Fully distributed solver execution (per-rank fields + allreduce)."""

import numpy as np
import pytest

from repro.comm.distributed import (
    DistributedField,
    DistributedOperator,
    distributed_bicgstab,
)
from repro.dirac import SchurOperator
from repro.lattice import Partition
from repro.solvers import norm
from repro.solvers.bicgstab import bicgstab
from tests.conftest import random_spinor


@pytest.fixture(scope="module")
def setup(wilson448, lat448):
    part = Partition(lat448, (1, 1, 2, 2))
    dop = DistributedOperator(wilson448, part)
    return part, dop


class TestDistributedField:
    def test_roundtrip(self, setup, lat448):
        part, _ = setup
        v = random_spinor(lat448, seed=1)
        f = DistributedField.from_global(part, v)
        assert f.locals.shape[0] == part.num_ranks
        assert np.array_equal(f.to_global(), v)

    def test_copy_independent(self, setup, lat448):
        part, _ = setup
        f = DistributedField.from_global(part, random_spinor(lat448, seed=2))
        g = f.copy()
        g.locals[0, 0] = 0
        assert not np.array_equal(f.locals, g.locals)


class TestDistributedOperator:
    def test_apply_matches_global(self, setup, wilson448, lat448):
        part, dop = setup
        v = random_spinor(lat448, seed=3)
        out = dop.apply(DistributedField.from_global(part, v))
        np.testing.assert_allclose(out.to_global(), wilson448.apply(v), atol=1e-12)

    def test_dot_matches_global_and_counts_allreduce(self, setup, lat448):
        part, dop = setup
        a = DistributedField.from_global(part, random_spinor(lat448, seed=4))
        b = DistributedField.from_global(part, random_spinor(lat448, seed=5))
        before = dop.comm.traffic.allreduces
        d = dop.dot(a, b)
        assert dop.comm.traffic.allreduces == before + 1
        expect = np.vdot(a.to_global().ravel(), b.to_global().ravel())
        assert d == pytest.approx(expect)

    def test_mismatched_partition_rejected(self, wilson448):
        from repro.lattice import Lattice

        with pytest.raises(ValueError):
            DistributedOperator(
                wilson448, Partition(Lattice((4, 4, 4, 4)), (1, 1, 1, 2))
            )


class TestDistributedBiCGStab:
    def test_identical_iterates_to_global_solver(self, setup, wilson448, lat448):
        part, dop = setup
        b = random_spinor(lat448, seed=6)
        res_d = distributed_bicgstab(
            dop, DistributedField.from_global(part, b), tol=1e-8
        )
        res_g = bicgstab(wilson448, b, tol=1e-8)
        assert res_d.converged and res_g.converged
        assert res_d.iterations == res_g.iterations
        np.testing.assert_allclose(res_d.x, res_g.x, atol=1e-9)

    def test_true_residual(self, setup, wilson448, lat448):
        part, dop = setup
        b = random_spinor(lat448, seed=7)
        res = distributed_bicgstab(dop, DistributedField.from_global(part, b), tol=1e-9)
        assert norm(b - wilson448.apply(res.x)) / norm(b) < 2e-9

    def test_collective_count_matches_model(self, setup, lat448):
        """~4 allreduces per iteration plus the norm checks — the count
        the machine model charges (BICGSTAB_REDUCTIONS = 4)."""
        part, dop = setup
        b = random_spinor(lat448, seed=8)
        dop.comm.traffic.reset()
        res = distributed_bicgstab(dop, DistributedField.from_global(part, b), tol=1e-8)
        per_iter = dop.comm.traffic.allreduces / res.iterations
        assert 4.0 <= per_iter <= 7.0

    def test_halo_bytes_accounted(self, setup, lat448):
        part, dop = setup
        b = random_spinor(lat448, seed=9)
        dop.comm.traffic.reset()
        res = distributed_bicgstab(dop, DistributedField.from_global(part, b), tol=1e-8)
        # two matvecs per iteration, each exchanging every partitioned face
        assert dop.comm.traffic.bytes_sent > 0
        per_matvec = dop.comm.traffic.bytes_sent / res.matvecs
        face_bytes = sum(
            2 * part.num_ranks * dop.halo.face_bytes(mu, 12)
            for mu in range(4)
            if part.is_partitioned(mu)
        )
        assert per_matvec == pytest.approx(face_bytes, rel=1e-12)

    def test_works_on_schur_system(self, wilson448, lat448):
        # red-black + distributed: the full production configuration.
        # The Schur operator is NOT nearest-neighbour (it hops twice),
        # so it cannot be decomposed with a one-deep halo — this test
        # documents that the distributed path is for nearest-neighbour
        # stencils (fine and coarse operators), as in QUDA.
        schur = SchurOperator(wilson448)
        assert not hasattr(schur, "apply_hop_gathered")
