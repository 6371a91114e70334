"""Red-black is the system every level iterates on (DESIGN.md section 21).

Two identities, pinned here:

* the setup relaxes the Schur complement: ``M v = 0`` holds exactly when
  ``S v_e = 0`` and ``v_o = -A_oo^{-1} H_oe v_e``, so
  ``generate_null_vectors`` relaxes the even half of its random start on
  ``S`` and reconstructs the odd half — ``M v`` vanishes on the odd
  sites, the generator is consumed as before, and the fine-grid
  relaxation of the benchmark configuration reaches its floor in two
  thirds of the iterations the full system needed;
* the cycle stays on the even half lattice between its two smoothings:
  ``b_hat(rs - M z) = b_hat(rs) - S z_e``, so the production ``_cycle``
  equals the textbook five steps to the rounding of its precision, at
  every precision boundary, for every K, on every level — and carries
  what travels between the smoothings as values, so concurrent cycles
  over one hierarchy do not see each other.

The full-system relaxation these compare against lives in
``tools/sweep_setup_relaxation.py``.  Run the group with
``pytest -q -m mrhs``.
"""

from __future__ import annotations

import dataclasses
import sys
import threading

import numpy as np
import pytest

from repro import telemetry
from repro.dirac import WilsonCloverOperator
from repro.dirac.even_odd import SchurOperator
from repro.dirac.stencil import operator_application_cost_multi
from repro.fields import SpinorField
from repro.mg import (
    KCyclePreconditioner,
    MultigridHierarchy,
    MultigridSolver,
    generate_null_vectors,
)
from repro.mg import setup
from repro.mg.setup import relaxation_floor
from repro.precision import Precision, dtype_of
from repro.telemetry.tracer import get_tracer
from tests.conftest import load_tool

pytestmark = pytest.mark.mrhs

C64, C128 = np.dtype(np.complex64), np.dtype(np.complex128)


@pytest.fixture(scope="module")
def tool():
    return load_tool("sweep_setup_relaxation")


@pytest.fixture(scope="module")
def level_ops(aniso40_solve):
    """The fine operator and a Galerkin operator (level 1 of the
    canonical hierarchy)."""
    levels = aniso40_solve[1].hierarchy.levels
    return {"fine": levels[0].op, "galerkin": levels[1].op}


# ----------------------------------------------------------------------
# the setup relaxes the Schur complement
# ----------------------------------------------------------------------
@pytest.mark.parametrize("which", ("fine", "galerkin"))
@pytest.mark.parametrize("dtype", (C64, C128), ids=("complex64", "complex128"))
def test_null_vectors_are_unit_double_and_annihilated_on_odd_sites(level_ops, which, dtype):
    op = level_ops[which]
    vecs = generate_null_vectors(op, 3, np.random.default_rng(12), null_iters=12, dtype=dtype)
    # a Galerkin operator relaxes in complex128 whatever the cycle's dtype
    relaxed_in = C128 if which == "galerkin" else dtype
    odd = op.lattice.odd_sites
    for vec in vecs:
        assert vec.dtype == C128 and vec.shape == (op.lattice.volume, op.ns, op.nc)
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-14)
        mv = op.apply(vec)
        # v_o = -A_oo^{-1} H_oe v_e: what is left of M v is S v_e, on even sites
        assert np.linalg.norm(mv[odd]) <= (1e-5 if relaxed_in == C64 else 1e-12)
        assert np.linalg.norm(mv) > 1e3 * np.linalg.norm(mv[odd])
        # ... and it is a near-null vector: far below a random field's |M x| / |x|
        rand = np.random.default_rng(13).standard_normal(vec.shape)
        assert np.linalg.norm(mv) < 0.5 * np.linalg.norm(op.apply(rand)) / np.linalg.norm(rand)


@pytest.mark.parametrize("which", ("fine", "galerkin"))
def test_generator_is_consumed_exactly_as_by_the_full_system_relaxation(level_ops, which, tool):
    """Cached setups and golden counts depend on the draw order: ``2 n``
    full-lattice ``standard_normal`` draws, whatever half is relaxed."""
    op = level_ops[which]
    ours, parents = np.random.default_rng(21), np.random.default_rng(21)
    generate_null_vectors(op, 3, ours, null_iters=2, dtype=C64)
    tool.full_system_null_vectors(op, 3, parents, null_iters=2, dtype=C64)
    assert ours.bit_generator.state == parents.bit_generator.state
    replay = np.random.default_rng(21)
    for _ in range(2 * 3):
        replay.standard_normal((op.lattice.volume, op.ns, op.nc))
    assert ours.bit_generator.state == replay.bit_generator.state


def test_zero_iteration_cap_returns_the_reconstructed_start(level_ops):
    op = level_ops["fine"]
    shape = (op.lattice.volume, op.ns, op.nc)
    rng = np.random.default_rng(22)
    x0 = np.stack(
        [rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for _ in range(2)]
    )
    even = x0[:, op.lattice.even_sites]
    want = SchurOperator(op).reconstruct_multi(even, np.zeros_like(x0))
    got = generate_null_vectors(op, 2, np.random.default_rng(22), null_iters=0)
    for g, w, x in zip(got, want, x0):
        np.testing.assert_allclose(g, w / np.linalg.norm(w), rtol=0, atol=1e-14)
        np.testing.assert_allclose(
            g[op.lattice.even_sites] * np.linalg.norm(w), x[op.lattice.even_sites], atol=1e-12
        )


def test_benchmark_fine_grid_relaxation_stops_at_the_floor_within_45_iterations(aniso40_solve, tool):
    """Aniso40-scaled 24/24, the benchmark's setup seed: the full system
    needed 53-60 iterations (the cap) for the same floor."""
    ds, solver, _ = aniso40_solve
    op, lp = solver.hierarchy.levels[0].op, solver.params.levels[0]
    with tool.recorded_relaxations() as runs:
        generate_null_vectors(op, lp.n_null, np.random.default_rng(1), lp.null_iters, dtype=C64)
    (results,) = runs
    assert len(results) == lp.n_null and lp.null_iters == 60
    for res in results:
        assert res.converged and res.final_residual < relaxation_floor(C64)
        assert res.iterations <= 45
    with tool.recorded_relaxations() as runs:
        tool.full_system_null_vectors(
            op, lp.n_null, np.random.default_rng(1), lp.null_iters, dtype=C64
        )
    assert min(res.iterations for res in runs[0]) > 45


def test_relaxation_books_schur_applications_on_the_setup_spans(level_ops):
    op = level_ops["fine"]
    telemetry.enable()
    telemetry.reset()
    try:
        # called through its module: the call the telemetry table traces
        setup.generate_null_vectors(op, 2, np.random.default_rng(23), null_iters=5, dtype=C64)
        (span,) = get_tracer().find("null-vectors")
    finally:
        telemetry.disable()
        telemetry.reset()
    attrs = span.attrs
    assert attrs["system"] == "red-black"
    assert (attrs["n_rhs"], attrs["dtype"], attrs["iterations"]) == (2, "complex64", 5)
    assert 0 < attrs["residual_max"] < 1
    flops, nbytes = operator_application_cost_multi(op, 2, C64)
    (solve,) = [c for c in span.children if c.name == "solve.bicgstab"]
    # a Schur application is a stencil-equivalent: forming the sources
    # and the reconstruction's half on the span (costs are exclusive,
    # like self-times), two per iteration on the solver's
    assert attrs["flops"] == pytest.approx(1.5 * flops)
    assert attrs["bytes"] == pytest.approx(1.5 * nbytes)
    assert solve.attrs["flops"] == pytest.approx(2 * 5 * flops)
    assert solve.attrs["bytes"] == pytest.approx(2 * 5 * nbytes)


# ----------------------------------------------------------------------
# the cycle stays on the even half lattice between its smoothings
# ----------------------------------------------------------------------
def _textbook_cycle(pre: KCyclePreconditioner, rs: np.ndarray) -> np.ndarray:
    """The five steps with every defect recomputed on the full lattice
    and the very same coarse solve."""
    lev = pre.hierarchy.levels[pre.level]
    z = lev.smoother.apply(rs)
    r1 = rs - lev.op.apply_multi(z)
    ec = pre._coarse_solve(lev.transfer.restrict_multi(r1))  # noqa: SLF001
    z = z + lev.transfer.prolong_multi(ec)
    r2 = rs - lev.op.apply_multi(z)
    return z + lev.smoother.apply(r2)


#: (smoother precision, cycle precision, tolerance)
BOUNDARIES = {
    "single": (Precision.SINGLE, Precision.SINGLE, 2e-6),
    "double": (Precision.DOUBLE, Precision.DOUBLE, 1e-12),
    "single-in-double-cycle": (Precision.SINGLE, Precision.DOUBLE, 2e-6),
}


@pytest.fixture(scope="module")
def hierarchies(aniso40_solve):
    """The canonical three-level null space under each precision pair."""
    ds, solver, _ = aniso40_solve
    op = WilsonCloverOperator(ds.gauge(), **ds.operator_kwargs())
    built = {}
    for name, (smoother, cycle, _) in BOUNDARIES.items():
        params = dataclasses.replace(
            solver.params, smoother_precision=smoother, coarse_precision=cycle
        )
        built[name] = MultigridHierarchy.build(
            op, params, np.random.default_rng(0),
            null_vectors=solver.hierarchy.export_null_vectors(),
        )
    return built


def _stack(op, k: int, seed: int, dtype) -> np.ndarray:
    rng = np.random.default_rng(seed)
    shape = (k, op.lattice.volume, op.ns, op.nc)
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).astype(dtype)


@pytest.mark.parametrize("level", (0, 1))
@pytest.mark.parametrize("k", (1, 3))
@pytest.mark.parametrize("boundary", BOUNDARIES)
def test_production_cycle_is_the_textbook_composition(hierarchies, boundary, k, level):
    hierarchy = hierarchies[boundary]
    tol = BOUNDARIES[boundary][2]
    pre = KCyclePreconditioner(hierarchy, level=level)
    rs = _stack(hierarchy.levels[level].op, k, 50 + level, dtype_of(hierarchy.params.coarse_precision))
    # per-system scales apart: the held iterate lives on the scale its
    # residual entered the smoother's precision with
    rs *= np.array((1.0, 1e-3, 1e3)[:k], dtype=rs.real.dtype).reshape(k, 1, 1, 1)
    got, want = pre._cycle(rs), _textbook_cycle(pre, rs)  # noqa: SLF001
    assert got.dtype == want.dtype == rs.dtype
    err = np.linalg.norm((got - want).reshape(k, -1), axis=1)
    assert (err <= tol * np.linalg.norm(want.reshape(k, -1), axis=1)).all()
    assert (err > 0).any() or boundary == "double"  # two evaluations, not one


def test_half_precision_smoothing_stays_within_one_outer_iteration_of_the_parent(
    aniso40_parent_solver,
):
    """Under ``HALF`` every Schur application goes through the 16-bit
    storage, the restarting one of the second smoothing included; on the
    parent's null space and 4/4 schedule the canonical solve took 11
    outer iterations at the parent commit."""
    parent = aniso40_parent_solver
    params = dataclasses.replace(parent.params, smoother_precision=Precision.HALF)
    solver = MultigridSolver(
        parent.hierarchy.levels[0].op, params, np.random.default_rng(0),
        null_vectors=parent.hierarchy.export_null_vectors(),
    )
    lattice = parent.hierarchy.levels[0].op.lattice
    b = SpinorField.random(lattice, rng=np.random.default_rng(0))
    result = solver.solve(b.data, tol=5e-6)
    assert result.converged and abs(result.iterations - 11) <= 1


def test_concurrent_cycles_over_one_hierarchy_return_the_single_threaded_result(aniso40_solve):
    """What travels from a cycle's first smoothing to its second is a
    return value: N threads driving one shared preconditioner, each on
    its own stack, get bit for bit what they get alone.  (They all bump
    the one cycle's ``counts``, which are not read here: a solve builds
    its own cycle, so no two solves share them —
    ``tests/test_solve_counters.py``.)"""
    hierarchy = aniso40_solve[1].hierarchy
    pre = KCyclePreconditioner(hierarchy, level=0)
    n_threads, rounds = 6, 3  # more threads than this host has cores
    stacks = [_stack(hierarchy.levels[0].op, 1 + i % 2, 60 + i, C128) for i in range(n_threads)]
    alone = [pre.apply(rs) for rs in stacks]
    got: list = [None] * n_threads
    start = threading.Barrier(n_threads)

    def work(i: int) -> None:
        start.wait(timeout=60)
        got[i] = [pre.apply(stacks[i]) for _ in range(rounds)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    for want, results in zip(alone, got):
        assert results is not None and len(results) == rounds
        for z in results:
            np.testing.assert_array_equal(z, want)
