"""Simulated-MPI communication: communicator, halo exchange, partitioned ops."""

import numpy as np
import pytest

from repro.coarse import coarsen_operator
from repro.comm import HaloExchange, PartitionedOperator, SimulatedComm, TrafficLog
from repro.lattice import NDIM, Blocking, Lattice, Partition
from repro.transfer import Transfer
from tests.conftest import random_spinor

PROC_GRIDS = [(1, 1, 1, 2), (2, 1, 1, 1), (2, 2, 1, 1), (1, 1, 2, 2), (2, 2, 2, 2)]


class TestCommunicator:
    def test_send_recv_roundtrip(self):
        comm = SimulatedComm(2)
        buf = np.arange(12.0)
        comm.send(0, 1, buf)
        out = comm.recv(0, 1)
        assert np.array_equal(out, buf)

    def test_fifo_per_channel(self):
        comm = SimulatedComm(2)
        comm.send(0, 1, np.array([1.0]))
        comm.send(0, 1, np.array([2.0]))
        assert comm.recv(0, 1)[0] == 1.0
        assert comm.recv(0, 1)[0] == 2.0

    def test_tags_separate_channels(self):
        comm = SimulatedComm(2)
        comm.send(0, 1, np.array([1.0]), tag="a")
        comm.send(0, 1, np.array([2.0]), tag="b")
        assert comm.recv(0, 1, tag="b")[0] == 2.0
        assert comm.recv(0, 1, tag="a")[0] == 1.0

    def test_recv_without_send_deadlocks(self):
        comm = SimulatedComm(2)
        with pytest.raises(RuntimeError, match="deadlock"):
            comm.recv(0, 1)

    def test_send_copies_buffer(self):
        comm = SimulatedComm(2)
        buf = np.array([1.0])
        comm.send(0, 1, buf)
        buf[0] = 99.0
        assert comm.recv(0, 1)[0] == 1.0

    def test_traffic_accounting(self):
        comm = SimulatedComm(3)
        comm.send(0, 1, np.zeros(4))
        comm.send(1, 1, np.zeros(2))  # self-send = local copy
        assert comm.traffic.messages == 1
        assert comm.traffic.bytes_sent == 32
        assert comm.traffic.local_copies == 1
        assert comm.traffic.local_bytes == 16

    def test_allreduce(self):
        comm = SimulatedComm(4)
        vals = np.arange(4.0)[:, None]
        out = comm.allreduce_sum(vals)
        assert out[0] == 6.0
        assert comm.traffic.allreduces == 1

    def test_allreduce_shape_check(self):
        comm = SimulatedComm(4)
        with pytest.raises(ValueError):
            comm.allreduce_sum(np.zeros((3, 1)))

    def test_rank_range_check(self):
        comm = SimulatedComm(2)
        with pytest.raises(ValueError):
            comm.send(0, 5, np.zeros(1))


class TestTrafficLog:
    def test_reset(self):
        log = TrafficLog()
        log.record_message(0, 1, 100, "x")
        log.record_allreduce()
        log.reset()
        assert log.messages == 0 and log.allreduces == 0 and not log.per_direction

    def test_summary(self):
        log = TrafficLog()
        log.record_message(0, 1, 64)
        s = log.summary()
        assert s["messages"] == 1 and s["bytes_sent"] == 64


class TestHaloExchange:
    @pytest.mark.parametrize("grid", PROC_GRIDS)
    def test_gathered_neighbors_match_global(self, lat448, grid):
        part = Partition(lat448, grid)
        halo = HaloExchange(part)
        v = random_spinor(lat448, seed=7)
        locals_ = v[part.owned_sites]
        for mu in range(NDIM):
            for sign in (+1, -1):
                gathered = halo.gather_neighbors(locals_, mu, sign)
                table = lat448.fwd[mu] if sign > 0 else lat448.bwd[mu]
                expect = v[table][part.owned_sites]
                assert np.array_equal(gathered, expect), (grid, mu, sign)

    def test_no_traffic_for_unpartitioned_direction(self, lat448):
        part = Partition(lat448, (1, 1, 1, 2))
        halo = HaloExchange(part)
        v = random_spinor(lat448, seed=8)
        locals_ = v[part.owned_sites]
        halo.gather_neighbors(locals_, 0, +1)
        assert halo.comm.traffic.messages == 0
        halo.gather_neighbors(locals_, 3, +1)
        assert halo.comm.traffic.messages == part.num_ranks

    def test_face_bytes(self, lat448):
        part = Partition(lat448, (1, 1, 1, 2))
        halo = HaloExchange(part)
        # face volume in t: 4*4*4 = 64 sites, 12 complex dof, 16 B each
        assert halo.face_bytes(3, 12) == 64 * 12 * 16

    def test_mismatched_comm_rejected(self, lat448):
        part = Partition(lat448, (1, 1, 1, 2))
        with pytest.raises(ValueError):
            HaloExchange(part, SimulatedComm(3))


class TestPartitionedOperator:
    @pytest.mark.parametrize("grid", PROC_GRIDS)
    def test_exact_agreement_fine(self, wilson448, lat448, grid):
        part = Partition(lat448, grid)
        pop = PartitionedOperator(wilson448, part)
        v = random_spinor(lat448, seed=9)
        # a pure data-movement rewrite of the site-major formulation:
        # bitwise equal to it, roundoff-equal to the production kernel
        np.testing.assert_array_equal(pop.apply(v), wilson448.apply_reference(v))
        np.testing.assert_allclose(pop.apply(v), wilson448.apply(v), rtol=0, atol=1e-12)

    def test_exact_agreement_coarse(self, wilson448, lat448):
        t = Transfer(
            Blocking(lat448, (2, 2, 2, 2)),
            [random_spinor(lat448, seed=700 + k) for k in range(4)],
        )
        mc = coarsen_operator(wilson448, t)
        part = Partition(mc.lattice, (1, 1, 1, 2))
        pop = PartitionedOperator(mc, part)
        rng = np.random.default_rng(10)
        v = rng.standard_normal((mc.lattice.volume, 2, 4)) + 1j * rng.standard_normal(
            (mc.lattice.volume, 2, 4)
        )
        # a pure data-movement rewrite of the per-direction formulation,
        # summed in its order: bitwise equal to it, roundoff-equal to the
        # production apply (which sums coincident links first)
        reference = mc.apply_diag(v)
        for mu in range(NDIM):
            for sign in (+1, -1):
                reference += mc.apply_hop(mu, sign, v)
        np.testing.assert_array_equal(pop.apply(v), reference)
        np.testing.assert_allclose(pop.apply(v), mc.apply(v), rtol=0, atol=1e-12)

    def test_traffic_matches_analytic(self, wilson448, lat448):
        for grid in [(1, 1, 1, 2), (2, 2, 2, 2)]:
            part = Partition(lat448, grid)
            pop = PartitionedOperator(wilson448, part)
            pop.apply(random_spinor(lat448, seed=11))
            assert pop.comm.traffic.bytes_sent == pop.exchange_bytes_per_apply()

    def test_split_join_roundtrip(self, wilson448, lat448):
        part = Partition(lat448, (2, 1, 1, 2))
        pop = PartitionedOperator(wilson448, part)
        v = random_spinor(lat448, seed=12)
        assert np.array_equal(pop.join(pop.split(v)), v)

    def test_mismatched_partition_rejected(self, wilson448):
        other = Partition(Lattice((4, 4, 4, 4)), (1, 1, 1, 2))
        with pytest.raises(ValueError):
            PartitionedOperator(wilson448, other)

    def test_usable_in_solver(self, wilson448, lat448):
        # a partitioned operator is a drop-in replacement in any solver
        from repro.solvers.bicgstab import bicgstab

        part = Partition(lat448, (1, 1, 2, 2))
        pop = PartitionedOperator(wilson448, part)
        b = random_spinor(lat448, seed=13)
        res = bicgstab(pop, b, tol=1e-8, maxiter=5000)
        assert res.converged
        resid = np.linalg.norm((b - wilson448.apply(res.x)).ravel())
        assert resid < 2e-8 * np.linalg.norm(b.ravel())
