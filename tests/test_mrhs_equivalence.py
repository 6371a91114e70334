"""The stack axis changes nothing: batch-independence and oracle layer.

The multigrid solve path computes on a ``(K, V, ns, nc)`` stack and a
single right-hand side is K=1, so there is no second implementation to
agree with.  What keeps "MRHS all the way down" safe instead:

* every stacked kernel — fine/coarse Schur complements, transfers —
  reproduces its stack of one and its oracle (``SchurReference``, the
  ``*_reference`` kernels);
* the smoother and one cycle application per level reproduce a literal
  five-step oracle written from the reference kernels and a textbook MR
  loop (:func:`oracle_cycle`);
* no system's result depends on what it is batched with
  (``solve_multi(bs)[i]`` vs ``solve(bs[i])`` for K in {1, 2, 3, 8}, a
  ragged 4+3 split), and a converged or zero system is frozen exactly
  while the rest continue — the properties a masking or lockstep bug
  breaks.

Run the group with ``pytest -q -m mrhs``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dirac import WilsonCloverOperator
from repro.dirac.even_odd import SchurOperator, SchurReference
from repro.dirac.mrhs import (
    BatchedCoarseSchur,
    batched_schur_for,
    supports_dense_block_schur,
)
from repro.dirac.wilson_kernel import supports_wilson_kernel
from repro.gauge import disordered_field
from repro.lattice import Lattice
from repro.mg import LevelParams, MGParams, MultigridSolver
from repro.dirac.stencil import operator_application_cost_multi
from repro.mg.kcycle import KCyclePreconditioner
from repro.precision import Precision
from repro import telemetry
from repro.solvers import batched_gcr, norm, validate_rhs_stack, vdot
from repro.solvers.gcr import gcr
from tests.conftest import random_spinor, schur_dense
from tests.strategies import SEEDS

pytestmark = pytest.mark.mrhs

K_CASES = (1, 2, 3, 8)


def stack_for(lattice, k: int, ns: int = 4, nc: int = 3, seed: int = 300):
    rng = np.random.default_rng(seed)
    shape = (k, lattice.volume, ns, nc)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.fixture(scope="module")
def mg3():
    """A deterministic three-level hierarchy (the verified reference).

    4x4x4x8 disordered field, two coarsenings — deep enough that the
    K-cycle exercises recursion, BatchedCoarseSchur on the intermediate
    level, and the dense direct solve of the coarsest red-black system.
    """
    lat = Lattice((4, 4, 4, 8))
    u = disordered_field(lat, np.random.default_rng(11), 0.55, smear_steps=1)
    op = WilsonCloverOperator(u, mass=-1.376, c_sw=1.0)
    params = MGParams(
        levels=[
            LevelParams(block=(2, 2, 2, 2), n_null=6, null_iters=30),
            LevelParams(block=(1, 1, 1, 2), n_null=4, null_iters=30),
        ],
        outer_tol=1e-8,
        # batch independence and the oracles are pinned here to rounding
        # error (1e-10), which is a statement about the all-double arithmetic
        smoother_precision=Precision.DOUBLE,
        coarse_precision=Precision.DOUBLE,
    )
    solver = MultigridSolver(op, params, np.random.default_rng(5))
    return op, solver


@pytest.fixture(scope="module")
def coarse_op(mg3):
    return mg3[1].hierarchy.levels[1].op


# ----------------------------------------------------------------------
# per-level operator equivalence
# ----------------------------------------------------------------------
class TestLevelOperators:
    @pytest.mark.parametrize("k", K_CASES)
    def test_fine_apply_multi(self, mg3, k):
        op, _ = mg3
        vs = stack_for(op.lattice, k, seed=300 + k)
        batched = op.apply_multi(vs)
        for i in range(k):
            np.testing.assert_allclose(batched[i], op.apply(vs[i]), atol=1e-12)

    @pytest.mark.parametrize("k", K_CASES)
    def test_coarse_apply_multi(self, coarse_op, k):
        mc = coarse_op
        vs = stack_for(mc.lattice, k, mc.ns, mc.nc, seed=310 + k)
        batched = mc.apply_multi(vs)
        for i in range(k):
            np.testing.assert_allclose(batched[i], mc.apply(vs[i]), atol=1e-11)

    @pytest.mark.parametrize("k", K_CASES)
    def test_fine_schur_apply(self, mg3, k):
        op, _ = mg3
        assert supports_wilson_kernel(op)
        schur = batched_schur_for(op)
        rng = np.random.default_rng(320 + k)
        shape = (k, op.lattice.half_volume, op.ns, op.nc)
        halves = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        batched = schur.apply_multi(halves)
        oracle = SchurReference(op)
        for i in range(k):
            np.testing.assert_array_equal(batched[i], schur.apply_multi(halves[i : i + 1])[0])
            np.testing.assert_allclose(batched[i], oracle.apply(halves[i]), atol=1e-12)

    @pytest.mark.parametrize("k", K_CASES)
    def test_coarse_schur_roundtrip(self, coarse_op, k):
        """BatchedCoarseSchur prepare/apply/reconstruct == the zero-padded oracle."""
        mc = coarse_op
        assert supports_dense_block_schur(mc)
        bschur, schur = BatchedCoarseSchur(mc), SchurReference(mc)
        bs = stack_for(mc.lattice, k, mc.ns, mc.nc, seed=330 + k)
        prep = bschur.prepare_multi(bs)
        applied = bschur.apply_multi(prep)
        recon = bschur.reconstruct_multi(prep, bs)
        for i in range(k):
            np.testing.assert_allclose(
                prep[i], schur.prepare_source(bs[i]), atol=1e-12
            )
            np.testing.assert_allclose(
                applied[i], schur.apply(prep[i]), atol=1e-11
            )
            np.testing.assert_allclose(
                recon[i], schur.reconstruct(prep[i], bs[i]), atol=1e-11
            )

    def test_batched_schur_for_dispatch(self, mg3, coarse_op):
        op, _ = mg3
        assert isinstance(batched_schur_for(op), SchurOperator)
        assert isinstance(batched_schur_for(coarse_op), BatchedCoarseSchur)

    @pytest.mark.parametrize("level", [0, 1])
    def test_smoother_matches_sequential(self, mg3, level):
        """A stack is smoothed as its systems are one by one, and as the
        reference red-black MR smooths them."""
        _, solver = mg3
        lev = solver.hierarchy.levels[level]
        rs = stack_for(lev.op.lattice, 3, lev.op.ns, lev.op.nc, seed=340 + level)
        zs = lev.smoother.apply(rs)
        for i in range(3):
            np.testing.assert_allclose(zs[i], lev.smoother.apply(rs[i]), atol=1e-10)
            np.testing.assert_allclose(zs[i], oracle_smooth(lev, rs[i]), atol=1e-10)

    @pytest.mark.parametrize("level", [0, 1])
    @pytest.mark.parametrize("k", K_CASES)
    def test_transfer_multi(self, mg3, level, k):
        _, solver = mg3
        lev = solver.hierarchy.levels[level]
        t = lev.transfer
        fines = stack_for(lev.op.lattice, k, lev.op.ns, lev.op.nc, seed=350 + k)
        rc = t.restrict_multi(fines)
        for i in range(k):
            np.testing.assert_allclose(rc[i], t.restrict(fines[i]), atol=1e-12)
        back = t.prolong_multi(rc)
        for i in range(k):
            np.testing.assert_allclose(back[i], t.prolong(rc[i]), atol=1e-12)


# ----------------------------------------------------------------------
# hypothesis: batched Schur equivalence over drawn fields
# ----------------------------------------------------------------------
class TestSchurProperty:
    @given(seed=SEEDS, k=st.integers(1, 4))
    @settings(max_examples=8, deadline=None)
    def test_fine_schur_property(self, seed, k):
        lat = Lattice((4, 4, 2, 2))
        rng = np.random.default_rng(seed)
        u = disordered_field(lat, rng, 0.4, smear_steps=1)
        op = WilsonCloverOperator(u, mass=-0.2, c_sw=1.0)
        schur, oracle = batched_schur_for(op), SchurReference(op)
        bs = np.asarray(
            rng.standard_normal((k, lat.volume, 4, 3))
            + 1j * rng.standard_normal((k, lat.volume, 4, 3))
        )
        prep = schur.prepare_multi(bs)
        recon = schur.reconstruct_multi(prep, bs)
        for i in range(k):
            np.testing.assert_allclose(prep[i], oracle.prepare_source(bs[i]), atol=1e-11)
            np.testing.assert_allclose(
                recon[i], oracle.reconstruct(prep[i], bs[i]), atol=1e-11
            )


# ----------------------------------------------------------------------
# the literal five-step cycle (paper Section 7.1) on one field, from the
# reference kernels: what a stack of one must reproduce on every level
# ----------------------------------------------------------------------
class _Ref:
    """``apply`` -> a ``*_reference`` method (no stacked form)."""

    def __init__(self, apply):
        self.apply = apply


def reference_apply(op):
    """The single-field oracle of ``op``: the Wilson-Clover operator's
    site-major reference; a coarse operator's ``apply`` is its one
    formulation."""
    return getattr(op, "apply_reference", op.apply)


def reference_restrict(transfer, fine):
    """``R fine`` one chirality at a time against the conjugated basis."""
    return transfer.restrict_multi_reference(fine[None])[0]


def oracle_smooth(lev, r):
    """``smoother_steps`` damped MR steps from zero on the Schur system."""
    schur = SchurReference(lev.op)
    res = schur.prepare_source(r)
    half = np.zeros_like(res)
    for _ in range(lev.params.smoother_steps):
        q = schur.apply(res)
        alpha = lev.params.smoother_omega * vdot(q, res) / vdot(q, q).real
        half += alpha * res
        res -= alpha * q
    return schur.reconstruct(half, r)


def oracle_cycle(hierarchy, level, r):
    lev, coarse = hierarchy.levels[level], hierarchy.levels[level + 1]
    lp = lev.params
    loose = dict(tol=lp.coarse_tol, maxiter=lp.coarse_maxiter)
    z = oracle_smooth(lev, r)  # 1. pre-smooth
    rc = reference_restrict(lev.transfer, r - reference_apply(lev.op)(z))  # 2.
    if coarse.is_coarsest:  # 3. the red-black system, solved exactly, on the coarsest level ...
        schur = SchurReference(coarse.op)
        rhs = schur.prepare_source(rc)
        half = np.linalg.solve(schur_dense(schur), rhs.reshape(-1)).reshape(rhs.shape)
        ec = schur.reconstruct(half, rc)
    else:  # ... GCR preconditioned by the next level's cycle above it
        ec = gcr(
            _Ref(reference_apply(coarse.op)),
            rc,
            nkrylov=coarse.params.nkrylov,
            preconditioner=_Ref(lambda res: oracle_cycle(hierarchy, level + 1, res)),
            **loose,
        ).x
    z = z + lev.transfer.prolong(ec)  # 4. prolongate and correct
    return z + oracle_smooth(lev, r - reference_apply(lev.op)(z))  # 5. post-smooth


class TestCycleOracle:
    @pytest.mark.parametrize("level", [0, 1])
    def test_one_cycle_application_matches_the_oracle(self, mg3, level):
        _, solver = mg3
        lev = solver.hierarchy.levels[level]
        rs = stack_for(lev.op.lattice, 2, lev.op.ns, lev.op.nc, seed=365 + level)
        pre = KCyclePreconditioner(solver.hierarchy, level)
        zs = pre.apply(rs)
        for r, z in zip(rs, zs):
            want = oracle_cycle(solver.hierarchy, level, r)
            assert norm(z - want) / norm(want) < 1e-10
            assert norm(pre.apply(r) - want) / norm(want) < 1e-10


# ----------------------------------------------------------------------
# full-depth K-cycle and solve: no result depends on its batch
# ----------------------------------------------------------------------
class TestBatchedKCycle:
    def test_preconditioner_matches_sequential(self, mg3):
        op, solver = mg3
        pre = solver.preconditioner
        rs = stack_for(op.lattice, 4, seed=370)
        zs = pre.apply(rs)
        for i in range(4):
            z_one = pre.apply(rs[i])
            assert norm(zs[i] - z_one) / norm(z_one) < 1e-10

    def test_solve_matches_sequential(self, mg3):
        op, solver = mg3
        bs = stack_for(op.lattice, 4, seed=380)
        together = solver.solve_multi(bs, tol=1e-8)
        for res, b in zip(together, bs):
            alone = solver.solve(b, tol=1e-8)
            assert res.converged and alone.converged
            assert res.iterations == alone.iterations
            assert norm(res.x - alone.x) / norm(alone.x) < 1e-10

    def test_k1_degenerate(self, mg3):
        """A single right-hand side is the stack of one: same iterate,
        same work booked on every level, the outer GCR's included."""
        op, solver = mg3
        b = random_spinor(op.lattice, seed=385)
        res_b = solver.solve_multi(b[None], tol=1e-8)[0]
        res_s = solver.solve(b, tol=1e-8)
        assert res_b.iterations == res_s.iterations
        assert np.array_equal(res_b.x, res_s.x)
        assert res_b.telemetry.level_stats == res_s.telemetry.level_stats
        fine = res_s.telemetry.level_stats[0]
        assert fine["gcr_iters"] == res_s.iterations
        # per outer iteration the GCR's matvec and nothing else: the
        # red-black cycle stays on the Schur system between its smoothings
        assert fine["op_applies"] == res_s.iterations

    def test_ragged_final_batch(self, mg3):
        """7 RHS split 4+3 equals the same 7 solved in one batch."""
        op, solver = mg3
        bs = stack_for(op.lattice, 7, seed=390)
        whole = solver.solve_multi(bs, tol=1e-8)
        chunked = solver.solve_multi(bs[:4], tol=1e-8) + solver.solve_multi(
            bs[4:], tol=1e-8
        )
        for rw, rc in zip(whole, chunked):
            assert rw.iterations == rc.iterations
            assert norm(rw.x - rc.x) / norm(rc.x) < 1e-10

    def test_level_stats_in_telemetry(self, mg3):
        op, solver = mg3
        bs = stack_for(op.lattice, 2, seed=395)
        results = solver.solve_multi(bs, tol=1e-8)
        stats = results[0].telemetry.level_stats
        assert set(stats) == {0, 1, 2}
        assert stats[1]["op_applies"] > 0
        assert stats[2]["op_applies"] > 0
        # the outer GCR is booked on level 0 for every system of the stack
        assert stats[0]["gcr_iters"] == sum(r.iterations for r in results)
        assert all(r.telemetry.level_stats == stats for r in results)


class TestBatchIndependence:
    @pytest.mark.parametrize("k", K_CASES)
    def test_system_does_not_depend_on_its_batch(self, mg3, k):
        op, solver = mg3
        bs = stack_for(op.lattice, k, seed=400 + k)
        for res, b in zip(solver.solve_multi(bs, tol=1e-8), bs):
            alone = solver.solve(b, tol=1e-8)
            assert res.converged
            assert res.iterations == alone.iterations
            assert len(res.residual_history) == res.iterations + 1
            assert norm(res.x - alone.x) / norm(alone.x) < 1e-10

    def test_converged_and_zero_systems_are_frozen_exactly(self, mg3):
        """The systems of a stack converge at different iterations (and
        one is zero): each stays bit for bit where it was when it
        converged while the rest run on."""
        op, solver = mg3
        bs = stack_for(op.lattice, 8, seed=408)
        bs[5] = 0.0
        full = solver.solve_multi(bs, tol=1e-8)
        iters = [r.iterations for r in full]
        first, last = int(np.argmin(iters[:5])), int(np.argmax(iters))
        assert 0 < iters[first] < iters[last] and all(r.converged for r in full)
        assert iters[5] == 0 and not full[5].x.any()
        # the same stack stopped the moment its first system converged
        stopped = solver.solve_multi(bs, tol=1e-8, maxiter=iters[first])
        assert stopped[first].converged and not stopped[last].converged
        assert np.array_equal(full[first].x, stopped[first].x)
        assert full[first].residual_history == stopped[first].residual_history
        for i in (first, last):
            alone = solver.solve(bs[i], tol=1e-8)
            assert iters[i] == alone.iterations
            assert norm(full[i].x - alone.x) / norm(alone.x) < 1e-10


class TestSolveMultiBookkeeping:
    def test_registry_counters_advance_by_k(self, mg3):
        op, solver = mg3
        bs = stack_for(op.lattice, 3, seed=430)
        label = solver.params.subspace_label()
        telemetry.enable()
        telemetry.reset()
        try:
            results = solver.solve_multi(bs, tol=1e-8)
            registry = telemetry.get_registry()
            assert registry.value("mg.solves", subspace=label) == 3
            assert registry.value("mg.outer_iterations", subspace=label) == sum(
                r.iterations for r in results
            )
            assert registry.value("mg.gcr_iters", level=0) == sum(
                r.iterations for r in results
            )
        finally:
            telemetry.disable()
            telemetry.reset()
        root = results[0].telemetry.spans[0]
        assert root["name"] == "mg.solve" and root["attrs"]["n_rhs"] == 3


# ----------------------------------------------------------------------
# shape validation: malformed stacks fail loudly
# ----------------------------------------------------------------------
class TestShapeValidation:
    def test_one_dimensional_stack_rejected(self, wilson44):
        with pytest.raises(ValueError, match="stack"):
            validate_rhs_stack(wilson44, np.zeros(12, dtype=np.complex128))

    @pytest.mark.parametrize("solver_fn", [batched_gcr], ids=["batched_gcr"])
    def test_wrong_site_shape_rejected(self, wilson44, lat44, solver_fn):
        bad = np.zeros((2, lat44.volume, 4, 2), dtype=np.complex128)  # nc=2
        with pytest.raises(ValueError, match="does not match operator"):
            solver_fn(wilson44, bad, tol=1e-8, maxiter=10)

    def test_solve_multi_rejects_wrong_volume(self, mg3):
        _, solver = mg3
        bad = np.zeros((2, 7, 4, 3), dtype=np.complex128)
        with pytest.raises(ValueError, match="does not match operator"):
            solver.solve_multi(bad, tol=1e-8)

    def test_solve_multi_names_the_non_finite_system(self, mg3):
        op, solver = mg3
        bs = stack_for(op.lattice, 3, seed=450)
        bs[1, 5, 2, 1] = np.nan
        with pytest.raises(ValueError, match=r"non-finite.*\[1\] of 3"):
            solver.solve_multi(bs, tol=1e-8)
        with pytest.raises(ValueError, match="non-finite"):
            solver.solve(bs[1], tol=1e-8)

    def test_dtype_is_checked_and_real_stacks_come_back_complex(self, wilson44, lat44):
        shape = (2, lat44.volume, 4, 3)
        with pytest.raises(ValueError, match="non-numeric dtype object"):
            validate_rhs_stack(wilson44, np.zeros(shape, dtype=object))
        for given, expect in [
            (np.float64, np.complex128),
            (np.int64, np.complex128),
            (np.float32, np.complex64),
        ]:
            assert validate_rhs_stack(wilson44, np.ones(shape, given)).dtype == expect
        # the cycle's own complex64 stacks pass through untouched, uncopied
        single = np.ones(shape, np.complex64)
        assert validate_rhs_stack(wilson44, single) is single

    def test_solve_multi_takes_a_real_stack(self, mg3):
        # raised UFuncTypeError in the first in-place update before
        op, solver = mg3
        bs = stack_for(op.lattice, 2, seed=451)
        real = solver.solve_multi(bs.real.copy(), tol=1e-8)
        promoted = solver.solve_multi(bs.real.astype(np.complex128), tol=1e-8)
        for r, p in zip(real, promoted):
            assert r.converged and r.iterations == p.iterations
            np.testing.assert_array_equal(r.x, p.x)


# ----------------------------------------------------------------------
# cost model: batching moves levels toward the bandwidth ceiling
# ----------------------------------------------------------------------
class TestCostModel:
    @staticmethod
    def _intensity(cost):
        flops, nbytes = cost
        return flops / nbytes

    def test_fine_intensity_rises_with_k(self, mg3):
        op, _ = mg3
        ai1 = self._intensity(op.application_cost_multi(1))
        ai8 = self._intensity(op.application_cost_multi(8))
        assert ai8 > ai1
        np.testing.assert_allclose(
            op.application_cost_multi(1)[0] * 8, op.application_cost_multi(8)[0]
        )

    def test_coarse_intensity_rises_with_k(self, coarse_op):
        ai1 = self._intensity(coarse_op.application_cost_multi(1))
        ai8 = self._intensity(coarse_op.application_cost_multi(8))
        # coarse dof blocks are dense: matrix traffic dominates at K=1,
        # so batching buys a large arithmetic-intensity gain
        assert ai8 > 2 * ai1

    def test_transfer_cost_multi(self, mg3):
        _, solver = mg3
        t = solver.hierarchy.levels[0].transfer
        f1, b1 = t.application_cost_multi(1)
        f8, b8 = t.application_cost_multi(8)
        np.testing.assert_allclose(f8, 8 * f1)
        assert b8 < 8 * b1  # basis read once for the whole batch

    def test_operator_cost_multi_fallback(self, mg3):
        """Operators without the hook cost k x the single-RHS numbers."""

        class Plain:
            def application_cost(self, dtype):
                return (10.0, 100.0)

        assert operator_application_cost_multi(Plain(), 4) == (40.0, 400.0)
        op, _ = mg3
        assert (
            operator_application_cost_multi(op, 4)
            == op.application_cost_multi(4)
        )
