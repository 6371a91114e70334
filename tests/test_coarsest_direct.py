"""The coarsest grid is solved, not iterated on.

A red-black coarsest system of at most ``DIRECT_MAX_UNKNOWNS`` unknowns
below a coarse level is assembled densely from the coarse operator's
blocks, LU-factored once per dtype on first use and solved for a whole
K-stack by one pair of triangular solves (DESIGN.md section 20).  Pinned
here:

* the block assembly against the column-by-column reference
  (``SchurOperator.to_dense``), including lattices with 2-extent
  directions where ``+mu`` and ``-mu`` reach the same neighbour;
* ``solve_multi`` against ``numpy.linalg.solve``, stack against singles,
  the zero right-hand side, the ``HALF`` storage path;
* ownership: the system lives on the coarsest level, nothing is built
  by ``build``, two solvers over one hierarchy share one factor, and
  ``setup_memory_bytes`` books exactly what a first solve then builds;
* the cycle: zero Krylov iterations and reductions on the coarsest
  level, and with the size constant at 0 the red-black GCR of the
  parent commit, counter for counter; a two-level hierarchy, whose
  coarsest grid is the fine operator's own coarse correction, iterates
  as before.

Run the group with ``pytest -q -m mrhs``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import telemetry
from repro.dirac import WilsonCloverOperator
from repro.dirac import mrhs
from repro.dirac.even_odd import SchurOperator
from repro.dirac.mrhs import BatchedCoarseSchur, solves_directly
from repro.gauge import disordered_field
from repro.lattice import Lattice
from repro.mg import LevelParams, MGParams, MultigridHierarchy, MultigridSolver
from repro.precision import Precision, dtype_of, half_roundtrip
from repro.telemetry.export import iter_span_dicts
from tests.conftest import random_spinor

pytestmark = pytest.mark.mrhs

C64, C128 = np.dtype(np.complex64), np.dtype(np.complex128)


def _hierarchy(dims, seed: int, blocks=((2, 2, 2, 2),), **precisions) -> MultigridHierarchy:
    lat = Lattice(dims)
    u = disordered_field(lat, np.random.default_rng(seed), 0.5, smear_steps=1)
    op = WilsonCloverOperator(u, mass=-0.3, c_sw=1.0)
    params = MGParams(
        levels=[LevelParams(block=block, n_null=4, null_iters=10) for block in blocks],
        outer_tol=1e-8,
        **precisions,
    )
    return MultigridHierarchy.build(op, params, np.random.default_rng(seed + 1))


def _two_level(dims, seed: int, **precisions) -> MultigridHierarchy:
    return _hierarchy(dims, seed, **precisions)


def _three_level(seed: int, **precisions) -> MultigridHierarchy:
    """4x4x4x8 -> 2x2x2x4 -> 2^4, the coarsest system 64 unknowns."""
    return _hierarchy((4, 4, 4, 8), seed, ((2, 2, 2, 2), (1, 1, 1, 2)), **precisions)


@pytest.fixture(scope="module")
def two_level():
    """4x4x4x8 -> 2x2x2x4: three 2-extent directions and one of extent 4."""
    return _two_level((4, 4, 4, 8), seed=21)


@pytest.fixture(scope="module")
def coarsest_ops(two_level, aniso40_solve):
    """Coarsest operators of a two-level hierarchy and of Aniso40-scaled
    (level 2, a 2^4 lattice: every direction wraps onto itself)."""
    return {
        "two-level": two_level.levels[-1].op,
        "aniso40-L2": aniso40_solve[1].hierarchy.levels[2].op,
    }


def _half_stack(op, k: int, seed: int, dtype=C128) -> np.ndarray:
    rng = np.random.default_rng(seed)
    shape = (k, op.lattice.half_volume, op.ns, op.nc)
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).astype(dtype)


# ----------------------------------------------------------------------
# the dense form
# ----------------------------------------------------------------------
@pytest.mark.parametrize("which", ("two-level", "aniso40-L2"))
@pytest.mark.parametrize("dtype, tol", ((C128, 1e-12), (C64, 1e-5)))
def test_block_assembly_matches_the_column_by_column_matrix(coarsest_ops, which, dtype, tol):
    op = coarsest_ops[which]
    assert 2 in op.lattice.dims  # +mu and -mu are the same neighbour there
    want = SchurOperator(op, parity=0).to_dense()
    got = BatchedCoarseSchur(op).to_dense(dtype)
    assert got.dtype == dtype and got.shape == want.shape
    assert np.abs(got - want).max() <= tol * np.abs(want).max()


@pytest.mark.parametrize("which", ("two-level", "aniso40-L2"))
@pytest.mark.parametrize("dtype, tol", ((C128, 1e-10), (C64, 1e-4)))
def test_solve_multi_is_the_exact_solve_of_every_system(coarsest_ops, which, dtype, tol):
    op = coarsest_ops[which]
    schur = BatchedCoarseSchur(op)
    rhs = _half_stack(op, 3, seed=5, dtype=dtype)
    xs = schur.solve_multi(rhs)
    assert xs.dtype == dtype and xs.shape == rhs.shape
    dense = SchurOperator(op, parity=0).to_dense()
    for x, b in zip(xs, rhs):
        want = np.linalg.solve(dense, b.reshape(-1).astype(C128))
        assert np.linalg.norm(x.reshape(-1) - want) <= tol * np.linalg.norm(want)
    # a stack is its systems one by one, a zero right-hand side stays zero
    for x, b in zip(xs, rhs):
        alone = schur.solve_multi(b[None])[0]
        assert np.linalg.norm(x - alone) <= (1e-12 if dtype == C128 else 1e-5) * np.linalg.norm(x)
    rhs[1] = 0.0
    assert not schur.solve_multi(rhs)[1].any()
    # what the cycle's GCR iterated towards
    back = schur.apply_multi(xs)
    assert np.linalg.norm(back[0] - rhs[0]) <= tol * np.linalg.norm(rhs[0])


def test_half_precision_solves_through_the_storage_rounding(two_level):
    """Under ``HALF`` the GCR saw every Schur application through the
    16-bit storage; the direct solve is stored the same way, in and out."""
    from repro.solvers.mixed import reduced_storage

    schur = two_level.levels[-1].schur
    rhs = _half_stack(schur.op, 2, seed=6, dtype=C64)
    stored = reduced_storage(schur, Precision.HALF)

    def store(stack):
        return half_roundtrip(stack.reshape((-1,) + stack.shape[2:])).reshape(stack.shape)

    want = store(schur.solve_multi(store(rhs)))
    np.testing.assert_array_equal(stored.solve_multi(rhs), want)
    assert reduced_storage(schur, Precision.SINGLE) is schur


# ----------------------------------------------------------------------
# the rule
# ----------------------------------------------------------------------
def test_one_rule_decides(two_level, aniso40_solve, monkeypatch):
    schur = two_level.levels[-1].schur
    assert isinstance(schur, BatchedCoarseSchur) and solves_directly(schur)
    assert not solves_directly(None)  # coarsest_schur=False
    assert not solves_directly(SchurOperator(two_level.levels[0].op))  # not dense-block
    monkeypatch.setattr(mrhs, "DIRECT_MAX_UNKNOWNS", schur.unknowns - 1)
    assert not solves_directly(schur)
    monkeypatch.setattr(mrhs, "DIRECT_MAX_UNKNOWNS", schur.unknowns)
    assert solves_directly(schur)
    # ... and only the coarsest level of at least three is solved that way
    assert not any(lev.solved_directly for lev in two_level.levels)
    levels = aniso40_solve[1].hierarchy.levels
    assert [lev.solved_directly for lev in levels] == [False, False, True]
    monkeypatch.setattr(mrhs, "DIRECT_MAX_UNKNOWNS", levels[-1].schur.unknowns - 1)
    assert not levels[-1].solved_directly


def test_an_intermediate_level_is_never_solved_directly():
    """Every level owns a red-black system now, and on a four-level
    hierarchy level 2's (128 unknowns) is small enough to factor: the
    rule is for the coarsest level, whose cycle has no level below."""
    hierarchy = _hierarchy(
        (4, 4, 4, 16), 41, ((2, 2, 2, 2), (1, 1, 1, 2), (1, 1, 1, 2))
    )
    assert all(solves_directly(lev.schur) for lev in hierarchy.levels[1:])
    assert [lev.solved_directly for lev in hierarchy.levels] == [False, False, False, True]
    b = random_spinor(hierarchy.levels[0].op.lattice, seed=42)
    result = MultigridSolver.from_hierarchy(hierarchy).solve(b)
    assert result.converged
    stats = result.telemetry.level_stats
    assert stats[2]["gcr_iters"] > 0 and stats[3]["gcr_iters"] == 0
    assert not hierarchy.levels[2].schur._factors  # noqa: SLF001


# ----------------------------------------------------------------------
# ownership and booking
# ----------------------------------------------------------------------
def _schur_bytes_built(schur) -> int:
    """An ``nbytes`` walk over what a red-black system holds."""
    total = sum(lu.nbytes + perm.nbytes for lu, perm in schur._factors.values())  # noqa: SLF001
    for to_other, to_own, diag, dinv in schur._tables.values():  # noqa: SLF001
        total += to_other.nbytes + to_own.nbytes + diag.nbytes + dinv.nbytes
    return total


@pytest.mark.parametrize("precision", (Precision.SINGLE, Precision.DOUBLE))
def test_level_owns_one_system_built_on_first_use_and_booked_from_the_start(precision):
    hierarchy = _three_level(seed=31, coarse_precision=precision, smoother_precision=precision)
    coarsest = hierarchy.levels[-1]
    schur = coarsest.schur
    dtype = dtype_of(precision)
    # one red-black system per level operator: the relaxation ran on the
    # one the smoother sweeps, and (coarsest) the one the cycle solves
    for lev in hierarchy.levels[:-1]:
        assert lev.schur is lev.smoother.schur and lev.schur.op is lev.op
    # nothing is gathered, assembled or factored by build — except what
    # level 1's relaxation read, in complex128, and a setup whose cycle
    # does not stream complex128 has already dropped again
    assert not schur._tables and not schur._factors  # noqa: SLF001
    relaxed = hierarchy.levels[1]
    assert set(relaxed.schur._tables) == ({C128} if dtype == C128 else set())  # noqa: SLF001
    # ... and the inverse site blocks that relaxation needed, which the
    # first solve used to invert: an operator attribute from build on
    assert "_x_inv" in vars(relaxed.op) and "_x_inv" not in vars(coarsest.op)
    booked = hierarchy.setup_memory_bytes()
    bare = MultigridHierarchy(
        hierarchy.levels[:-1] + [type(coarsest)(index=coarsest.index, op=coarsest.op)],
        hierarchy.params,
    )
    # in place of the operator's own reduced copies, which no solve casts
    unread = coarsest.op.reduced_bytes(dtype) if dtype != C128 else 0
    delta = booked - (bare.setup_memory_bytes() - unread)
    assert delta == schur.table_bytes(dtype) + schur.factor_bytes(dtype)
    # restored from disk books the same as cold-built: the restore ran no
    # relaxation, so level 1's inverse is booked before it exists
    restored = MultigridHierarchy.build(
        WilsonCloverOperator(hierarchy.levels[0].op.gauge, mass=-0.3, c_sw=1.0),
        hierarchy.params, np.random.default_rng(0),
        null_vectors=hierarchy.export_null_vectors(),
    )
    assert "_x_inv" not in vars(restored.levels[1].op)
    assert restored.setup_memory_bytes() == booked

    first = MultigridSolver.from_hierarchy(hierarchy, hierarchy.params)
    second = MultigridSolver.from_hierarchy(hierarchy, hierarchy.params)
    cycles = [solver.preconditioner._inner for solver in (first, second)]  # noqa: SLF001
    assert cycles[0]._schur is cycles[1]._schur is schur  # noqa: SLF001
    b = random_spinor(hierarchy.levels[0].op.lattice, seed=32)
    assert first.solve(b).converged
    factor = schur._factors[dtype]  # noqa: SLF001
    assert second.solve(b).converged
    assert list(schur._factors) == [dtype]  # noqa: SLF001
    assert schur._factors[dtype] is factor  # noqa: SLF001 — one factor per hierarchy
    # the booked delta is what the first solve built, and still the booking
    assert _schur_bytes_built(schur) == delta
    assert not getattr(coarsest.op, "_reduced", {})
    # level 1's one system holds the smoother's tables and nothing else
    assert set(relaxed.schur._tables) == {dtype}  # noqa: SLF001
    assert _schur_bytes_built(relaxed.schur) == relaxed.schur.table_bytes(dtype)
    # double, first inverted by the solve: the coarsest level's only
    extra = coarsest.op._x_inv.nbytes  # noqa: SLF001
    assert hierarchy.setup_memory_bytes() == booked + extra
    assert MultigridSolver.from_hierarchy(restored).solve(b).converged
    assert restored.setup_memory_bytes() == booked + extra


def test_two_level_hierarchy_iterates_on_its_coarsest_grid():
    """Directly under the fine grid the coarsest solve stays the GCR
    stopped at ``coarse_tol``: no factor is built, none is booked."""
    two_level = _two_level((4, 4, 4, 4), seed=37)
    coarsest = two_level.levels[-1]
    booked = two_level.setup_memory_bytes()
    b = random_spinor(two_level.levels[0].op.lattice, seed=38)
    result = MultigridSolver.from_hierarchy(two_level).solve(b)
    assert result.converged
    stats = result.telemetry.level_stats
    assert stats[1]["gcr_iters"] > 0 and stats[1]["reductions"] > 0
    assert coarsest.schur._tables and not coarsest.schur._factors  # noqa: SLF001
    extra = coarsest.op._x_inv.nbytes  # noqa: SLF001 — double, first inverted by the solve
    assert two_level.setup_memory_bytes() == booked + extra


def test_coarsest_schur_off_keeps_the_operator_and_iterates():
    hierarchy = _two_level((4, 4, 4, 4), seed=33)
    params = hierarchy.params
    off = MGParams(levels=params.levels, outer_tol=params.outer_tol, coarsest_schur=False)
    plain = MultigridHierarchy.build(
        hierarchy.levels[0].op, off, np.random.default_rng(0),
        null_vectors=hierarchy.export_null_vectors(),
    )
    assert plain.levels[-1].schur is None
    b = random_spinor(plain.levels[0].op.lattice, seed=34)
    result = MultigridSolver.from_hierarchy(plain).solve(b)
    assert result.converged
    assert result.telemetry.level_stats[1]["gcr_iters"] > 0


# ----------------------------------------------------------------------
# the cycle
# ----------------------------------------------------------------------
def test_direct_coarsest_level_runs_no_iteration_and_no_reduction(aniso40_solve):
    _, _, result = aniso40_solve
    stats = result.telemetry.level_stats
    assert result.converged
    assert stats[2]["gcr_iters"] == 0 and stats[2]["reductions"] == 0
    # source preparation and reconstruction of each coarsest solve
    assert stats[2]["op_applies"] == 2 * stats[1]["restricts"]
    # the GCRs' matvecs and nothing else: the red-black cycle stays on
    # the Schur system between its two smoothings (DESIGN.md section 21)
    assert stats[0]["op_applies"] == result.iterations
    assert stats[1]["op_applies"] == stats[1]["gcr_iters"]


#: ``level_stats`` of the canonical Aniso40-scaled solve recorded at the
#: parent commit (PR 17); with the size constant at 0 its level 2 reads
#: :data:`PARENT_L2`, the red-black GCR of PR 16, and nothing else moves
PARENT = {
    0: {"op_applies": 22, "smoother_applies": 110, "gcr_iters": 11,
        "restricts": 11, "prolongs": 11, "reductions": 254},
    1: {"op_applies": 22, "smoother_applies": 110, "gcr_iters": 11,
        "restricts": 11, "prolongs": 11, "reductions": 209},
    2: {"op_applies": 22, "smoother_applies": 0, "gcr_iters": 0,
        "restricts": 0, "prolongs": 0, "reductions": 0},
}
PARENT_L2 = {"op_applies": 70, "gcr_iters": 48, "reductions": 226}


def _without_the_recomputed_defect(stats: dict) -> dict:
    """The parent's counters less the one operator application per cycle
    this commit's red-black cycle no longer makes on levels 0 and 1."""
    return {
        level: dict(row, op_applies=row["op_applies"] - (row["restricts"] if level < 2 else 0))
        for level, row in stats.items()
    }


def test_size_constant_zero_reproduces_the_parent_gcr_counters(aniso40_parent_solver, monkeypatch):
    """Below level 0 the red-black setup changes the null space by
    design, so two fresh setups are not the comparison: on the parent's
    null space (every level relaxed on the full system) the solve does
    the parent's work on every level, counter for counter — minus the
    defect the cycle no longer recomputes.  And one rule, no second
    cycle: below the size constant the very same ``_coarse_solve`` runs
    the GCR it always ran."""
    from repro.fields import SpinorField

    solver = aniso40_parent_solver
    lattice = solver.hierarchy.levels[0].op.lattice
    b = SpinorField.random(lattice, rng=np.random.default_rng(0))
    direct = solver.solve(b.data, tol=5e-6)
    assert direct.converged and direct.iterations == 11
    assert direct.telemetry.level_stats == _without_the_recomputed_defect(PARENT)
    monkeypatch.setattr(mrhs, "DIRECT_MAX_UNKNOWNS", 0)
    iterated = solver.solve(b.data, tol=5e-6)
    assert iterated.converged and iterated.iterations == 11
    assert iterated.telemetry.level_stats == _without_the_recomputed_defect(
        {**PARENT, 2: {**PARENT[2], **PARENT_L2}}
    )


def test_size_constant_zero_leaves_every_count_above_the_coarsest_level(aniso40_solve, monkeypatch):
    """The same on the canonical (red-black) setup: iterating on the
    coarsest grid moves no count on levels 0 and 1, and the exact
    coarse solve does not cost an outer iteration."""
    from repro.fields import SpinorField

    ds, solver, direct = aniso40_solve
    monkeypatch.setattr(mrhs, "DIRECT_MAX_UNKNOWNS", 0)
    b = SpinorField.random(ds.lattice(), rng=np.random.default_rng(0))
    result = solver.solve(b.data, tol=5e-6)
    stats = result.telemetry.level_stats
    assert result.converged and result.iterations <= 11
    assert stats[2]["gcr_iters"] > 0 and stats[2]["reductions"] > 0
    assert stats[2]["op_applies"] == stats[2]["gcr_iters"] + 2 * stats[1]["restricts"]
    for level in (0, 1):
        for name in ("smoother_applies", "restricts", "prolongs", "gcr_iters"):
            assert stats[level][name] == direct.telemetry.level_stats[level][name]
    assert direct.iterations <= result.iterations


def test_factor_span_gauge_and_direct_coarse_solve_attributes():
    hierarchy = _three_level(seed=35)
    solver = MultigridSolver.from_hierarchy(hierarchy)
    bs = np.stack([random_spinor(hierarchy.levels[0].op.lattice, seed=36 + i) for i in range(2)])
    telemetry.enable()
    telemetry.reset()
    try:
        solver.solve_multi(bs)
        solver.solve_multi(bs)
        doc = telemetry.trace_document(meta={"kind": "test"})
        factor_s = telemetry.get_registry().value("mg.coarsest_factor_s", dtype="complex64")
    finally:
        telemetry.disable()
        telemetry.reset()
    spans = list(iter_span_dicts(doc["spans"]))
    schur = hierarchy.levels[-1].schur
    n = schur.unknowns
    (factor,) = [s for s in spans if s["name"] == "mg.coarsest.factor"]  # once per dtype
    assert factor["attrs"]["n"] == n and factor["attrs"]["dtype"] == "complex64"
    assert factor["attrs"]["assemble_s"] > 0 and factor["attrs"]["factor_s"] > 0
    assert factor_s == pytest.approx(
        factor["attrs"]["assemble_s"] + factor["attrs"]["factor_s"]
    )
    coarse = [s for s in spans if s["name"] == "coarse-solve" and s["attrs"]["level"] == 2]
    assert coarse
    for span in coarse:
        attrs = span["attrs"]
        assert attrs["direct"] is True and attrs["n_rhs"] == 2
        assert attrs["flops"] == 8.0 * n * n * 2
        assert attrs["bytes"] == n * n * C64.itemsize
        assert not [c for c in span["children"] if c["name"] == "solve.gcr"]
