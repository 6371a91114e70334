"""The production Wilson-Clover kernel held to its oracles.

``repro.dirac.wilson_kernel`` is the only fine-grid formulation the
package runs; the site-major ``apply_reference`` / ``hop_sum_reference``
and the zero-padded Schur algebra (``SchurReference``) exist to check
it.  Everything here is differential: kernel vs oracle at
``<= 1e-12`` relative, over boundary conditions, anisotropy, the
clover-free operator, batch sizes, a lattice whose half volume leaves a
ragged last cache block, and complex64 input (``<= 5e-6``).
"""

from __future__ import annotations

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dirac import SchurOperator, SchurReference, WilsonCloverOperator
from repro.dirac.wilson_kernel import (
    BLOCK,
    SiteFastestSchur,
    WilsonKernel,
    wilson_kernel_for,
)
from repro.gauge import disordered_field
from repro.lattice import Lattice
from repro.mg import MultigridHierarchy
from repro.mg.hierarchy import _layout_bytes
from repro.mg.params import LevelParams, MGParams
from repro.mg.setup import generate_null_vectors
from repro.mg.smoother import SchurMRSmoother
from repro.precision import Precision
from repro.serve.cache import SetupCache
from repro.workloads.datasets import ANISO40_SCALED
from strategies import SEEDS, lattices, wilson_operators
from tests.conftest import schur_dense

RTOL = 1e-12
RTOL_SINGLE = 5e-6  # complex64 result vs the complex128 oracle
BATCHES = (1, 3, 8)

#: name -> (lattice extents, operator keyword arguments)
CONFIGS = {
    "periodic": ((4, 4, 4, 8), dict(mass=-0.2, c_sw=1.0, antiperiodic_t=False)),
    "antiperiodic": ((4, 4, 4, 8), dict(mass=-0.2, c_sw=1.0, antiperiodic_t=True)),
    "anisotropic": ((4, 4, 4, 8), dict(mass=-0.2, c_sw=1.0, anisotropy=3.5)),
    "no-clover": ((4, 4, 4, 8), dict(mass=0.1, c_sw=0.0)),
    # half volume 1296 = 2 * BLOCK + 272: the last cache block is ragged
    "ragged": ((6, 6, 6, 12), dict(mass=-0.2, c_sw=1.0)),
}


def _rel_err(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


def _cnormal(rng, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.fixture(scope="module", params=sorted(CONFIGS))
def op(request):
    dims, kwargs = CONFIGS[request.param]
    lat = Lattice(dims)
    gauge = disordered_field(lat, np.random.default_rng(len(request.param)), 0.5)
    return WilsonCloverOperator(gauge, **kwargs)


@pytest.fixture(scope="module")
def stack(op):
    """Eight full-lattice right-hand sides."""
    return _cnormal(np.random.default_rng(11), (max(BATCHES), op.lattice.volume, 4, 3))


def test_ragged_config_really_is_ragged():
    half = Lattice(CONFIGS["ragged"][0]).half_volume
    assert half > BLOCK and half % BLOCK


# ----------------------------------------------------------------------
# full apply and hop sum
# ----------------------------------------------------------------------
def test_apply_matches_reference(op, stack):
    v = stack[0]
    assert _rel_err(op.apply(v), op.apply_reference(v)) <= RTOL


def test_hop_sum_matches_reference(op, stack):
    v = stack[0]
    assert _rel_err(op.apply_hopping(v), op.hop_sum_reference(v)) <= RTOL


@pytest.mark.parametrize("k", BATCHES)
def test_apply_multi_matches_reference(op, stack, k):
    want = np.stack([op.apply_reference(v) for v in stack[:k]])
    got = op.apply_multi(stack[:k])
    assert got.shape == want.shape
    assert _rel_err(got, want) <= RTOL


# ----------------------------------------------------------------------
# red-black system
# ----------------------------------------------------------------------
@pytest.mark.parametrize("parity", (0,))  # the parity every system solves on
def test_schur_matches_zero_padded_algebra(op, stack, parity):
    """A stack of one through the kernel is the oracle's single field."""
    schur, oracle = SchurOperator(op), SchurReference(op)
    b = stack[0]
    half = b[op.lattice.sites_of_parity(parity)]
    assert _rel_err(schur.apply_multi(half[None])[0], oracle.apply(half)) <= RTOL
    assert _rel_err(schur.prepare_multi(b[None])[0], oracle.prepare_source(b)) <= RTOL
    assert (
        _rel_err(schur.reconstruct_multi(half[None], b[None])[0], oracle.reconstruct(half, b))
        <= RTOL
    )


@pytest.mark.parametrize("k", BATCHES)
def test_batched_schur_matches_zero_padded_algebra(op, stack, k):
    schur, oracle = SchurOperator(op), SchurReference(op)
    bs = stack[:k]
    halves = bs[:, op.lattice.even_sites]
    for got, want in (
        (schur.apply_multi(halves), [oracle.apply(h) for h in halves]),
        (schur.prepare_multi(bs), [oracle.prepare_source(b) for b in bs]),
        (
            schur.reconstruct_multi(halves, bs),
            [oracle.reconstruct(h, b) for h, b in zip(halves, bs)],
        ),
    ):
        want = np.stack(want)
        assert got.shape == want.shape
        assert _rel_err(got, want) <= RTOL


@pytest.mark.parametrize("antiperiodic", (False, True))
def test_schur_matches_dense_complement(antiperiodic):
    """On 2^3x4 (forward and backward neighbours coincide in three
    directions) the kernel's Schur matrix equals the complement of the
    dense reference matrix."""
    lat = Lattice((2, 2, 2, 4))
    gauge = disordered_field(lat, np.random.default_rng(3), 0.4)
    op = WilsonCloverOperator(gauge, mass=0.1, c_sw=1.0, antiperiodic_t=antiperiodic)
    n = lat.volume * 12
    dense = np.empty((n, n), dtype=np.complex128)
    for j, unit in enumerate(np.eye(n, dtype=np.complex128)):
        dense[:, j] = op.apply_reference(unit.reshape(lat.volume, 4, 3)).reshape(-1)
    assert _rel_err(op.to_dense(), dense) <= RTOL

    def dof(sites):
        return (sites[:, None] * 12 + np.arange(12)).reshape(-1)

    e, o = dof(lat.even_sites), dof(lat.odd_sites)
    complement = dense[np.ix_(e, e)] - dense[np.ix_(e, o)] @ np.linalg.solve(
        dense[np.ix_(o, o)], dense[np.ix_(o, e)]
    )
    assert _rel_err(schur_dense(SchurOperator(op)), complement) <= RTOL


# ----------------------------------------------------------------------
# reduced-precision input
# ----------------------------------------------------------------------
def test_complex64_input_is_computed_in_complex64(op, stack):
    """Precision is the dtype of the data: a complex64 field meets the
    complex64 kernel and comes back complex64, within single-precision
    rounding of the double oracle on the same (rounded) input."""
    v32 = stack[0].astype(np.complex64)
    v64 = v32.astype(np.complex128)
    got = op.apply(v32)
    assert got.dtype == np.complex64
    assert _rel_err(got, op.apply_reference(v64)) <= RTOL_SINGLE
    assert wilson_kernel_for(op, np.complex64) is not wilson_kernel_for(op)

    schur, oracle = SchurOperator(op), SchurReference(op)
    h32, h64 = v32[op.lattice.even_sites], v64[op.lattice.even_sites]
    for got, want in (
        (schur.apply_multi(h32[None])[0], oracle.apply(h64)),
        (schur.prepare_multi(v32[None])[0], oracle.prepare_source(v64)),
        (schur.reconstruct_multi(h32[None], v32[None])[0], oracle.reconstruct(h64, v64)),
        (oracle.apply(h32), oracle.apply(h64)),
    ):
        assert got.dtype == np.complex64
        assert _rel_err(got, want) <= RTOL_SINGLE


def test_complex64_input_is_computed_in_double(op, stack):
    """...by a component that owns ``DOUBLE``: until PR 14 every operator
    upcast silently; now only a precision owner converts, at its own
    boundary, and hands back the caller's dtype.  The result is exactly
    the double computation rounded once, not the complex64 one."""
    v32 = stack[0].astype(np.complex64)
    smoother = SchurMRSmoother(op, precision=Precision.DOUBLE)
    got = smoother.apply(v32)
    assert got.dtype == np.complex64
    in_double = smoother.apply(v32.astype(np.complex128))
    assert in_double.dtype == np.complex128
    assert np.array_equal(got, in_double.astype(np.complex64))
    in_single = SchurMRSmoother(op, precision=Precision.SINGLE).apply(v32)
    assert in_single.dtype == np.complex64
    assert not np.array_equal(got, in_single)
    assert _rel_err(in_single, in_double) <= RTOL_SINGLE


# ----------------------------------------------------------------------
# structure
# ----------------------------------------------------------------------
@settings(max_examples=20, deadline=None)
@given(st.data())
def test_parity_hop_writes_only_the_opposite_parity(data):
    lat = data.draw(lattices())
    op = data.draw(wilson_operators(lattice=lat))
    parity = data.draw(st.sampled_from((0, 1)))
    rng = np.random.default_rng(data.draw(SEEDS))
    v = np.zeros((lat.volume, 4, 3), dtype=np.complex128)
    own = lat.sites_of_parity(parity)
    v[own] = _cnormal(rng, (len(own), 4, 3))
    out = op.apply_hopping(v)
    assert not out[own].any()
    assert _rel_err(out, op.hop_sum_reference(v)) <= RTOL


def test_one_kernel_per_operator(op):
    """Smoother, full apply and the batched cycle share one table set."""
    kernel = wilson_kernel_for(op)
    assert wilson_kernel_for(op) is kernel
    assert wilson_kernel_for(SchurMRSmoother(op).schur.op) is kernel


# ----------------------------------------------------------------------
# bitwise pin: the arithmetic the complex64 null space was drawn with
# ----------------------------------------------------------------------
def _broadcast_hop(kernel, parity, src):
    """The hop as written with a ``(column, row, direction, site)`` link
    slab, both operands of each multiply broadcast."""
    k, vh = src.shape[0], kernel.half_volume
    compressed = np.matmul(kernel._compress, src.reshape(k * 3, 4, vh))
    compressed = compressed.reshape(k, 6, -1)
    out = np.empty((k, 3, 4, vh), dtype=kernel.dtype)
    blocks = zip(kernel._bounds, kernel._links[parity], kernel._gather[parity])
    for (lo, hi), links, gather in blocks:
        n = hi - lo
        # (column, row, 1, direction, site)
        u = np.ascontiguousarray(links[:, :, 0])[:, :, None]
        for i in range(k):
            by_colour = compressed[i][:, gather].reshape(3, 1, 2, 8, n)
            acc = u[0] * by_colour[0]
            acc += u[1] * by_colour[1]
            acc += u[2] * by_colour[2]
            acc = acc.reshape(3, 16, n)
            out[i, :, :, lo:hi] = np.matmul(kernel._reconstruct, acc)
    return out


def _broadcast_chiral(kernel, tables, x):
    """The chiral blocks as written with tables ``(source colour, source
    half-spin, colour, chirality, half-spin, site)``, the source
    broadcast over two middle axes and the six source pairs reduced on
    the leading axis."""
    k, vh = x.shape[0], kernel.half_volume
    source = x.reshape(k, 3, 2, 2, vh).transpose(0, 1, 3, 2, 4)
    source = source[:, :, :, None, :, None, :]
    out = np.empty((k, 3, 4, vh), dtype=kernel.dtype)
    for (lo, hi), table in zip(kernel._bounds, tables):
        table = np.ascontiguousarray(table.transpose(2, 3, 0, 4, 1, 5))
        for i in range(k):
            prod = table * source[i, ..., lo:hi]
            prod = prod.reshape(6, 3, 4, hi - lo)
            out[i, :, :, lo:hi] = np.add.reduce(prod, axis=0)
    return out


@pytest.mark.parametrize(
    "dims", [(4, 4, 4, 8), (6, 6, 6, 12)], ids=["one-block", "three-blocks"]
)
@pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
def test_kernel_is_bitwise_the_broadcast_formula(dims, dtype):
    """Layout changes may not reassociate: a different rounding re-draws
    the complex64 null space, and with it every setup's counters."""
    lat = Lattice(dims)
    gauge = disordered_field(lat, np.random.default_rng(5), 0.5)
    op = WilsonCloverOperator(gauge, mass=-0.2, c_sw=1.0, anisotropy=3.5)
    kernel = WilsonKernel(op, dtype)
    assert len(kernel._bounds) == (1 if lat.half_volume <= BLOCK else 3)
    rng = np.random.default_rng(6)
    for k in (1, 3):
        x = _cnormal(rng, (k, 3, 4, lat.half_volume)).astype(dtype)
        for parity in (0, 1):
            want = _broadcast_hop(kernel, parity, x)
            assert np.array_equal(kernel.hop(parity, x), want)
            for name in ("diag", "diag_inv"):
                table = getattr(kernel, f"_{name}")[parity]
                want = _broadcast_chiral(kernel, table, x)
                assert np.array_equal(getattr(kernel, name)(parity, x), want)
        inner = _broadcast_hop(kernel, 1, x)
        inner = _broadcast_chiral(kernel, kernel._diag_inv[1], inner)
        want = _broadcast_chiral(kernel, kernel._diag[0], x)
        want -= _broadcast_hop(kernel, 0, inner)
        assert np.array_equal(SiteFastestSchur(kernel).apply_multi(x), want)


# ----------------------------------------------------------------------
# setup: same null vectors, same RNG stream
# ----------------------------------------------------------------------
class _ReferenceDriven:
    """The operator with ``apply`` and the primitives the red-black
    algebra composes pinned to the site-major oracles, for
    ``SchurReference`` to run the zero-padded algebra over them."""

    def __init__(self, op):
        self.lattice, self.ns, self.nc = op.lattice, op.ns, op.nc
        self.apply = op.apply_reference
        self.apply_hopping = op.hop_sum_reference
        self.apply_diag, self.apply_diag_inv = op.apply_diag, op.apply_diag_inv


def _aniso40_operator() -> WilsonCloverOperator:
    return WilsonCloverOperator(ANISO40_SCALED.gauge(), **ANISO40_SCALED.operator_kwargs())


def test_null_vectors_match_reference_driven_setup(request):
    """The stacked relaxation through the kernel equals the one driven
    system by system through the site-major oracle, at either relaxation
    dtype; what comes back is complex128 and of unit norm."""
    from repro import telemetry
    from repro.mg import setup

    op = _aniso40_operator()
    registry = telemetry.get_registry()
    # the one switch: it installs the wrapper that books the counter
    telemetry.enable()
    request.addfinalizer(telemetry.disable)
    # (20 iterations of complex64 round-off separate the two drivers)
    for dtype, rtol in ((np.complex128, 1e-9), (np.complex64, 2e-3)):
        rng_kernel, rng_oracle = np.random.default_rng(5), np.random.default_rng(5)
        booked = registry.value("mg.null_vector_generations")
        got = setup.generate_null_vectors(op, 3, rng_kernel, null_iters=20, dtype=dtype)
        # booked once per vector: what the setup caches' warm-hit assertions count
        assert registry.value("mg.null_vector_generations") == booked + 3
        oracle_op = _ReferenceDriven(op)
        want = generate_null_vectors(
            oracle_op, 3, rng_oracle, null_iters=20, dtype=dtype,
            schur=SchurReference(oracle_op),
        )
        for g, w in zip(got, want):
            assert g.dtype == np.complex128
            assert np.linalg.norm(g) == pytest.approx(1.0, abs=1e-14)
            assert _rel_err(g, w) <= rtol
        # the draw order is part of the contract: cached setups and golden
        # iteration counts depend on it — real then imaginary part, vector
        # by vector, 2 * n_vectors draws in all
        replay = np.random.default_rng(5)
        for _ in range(2 * 3):
            replay.standard_normal((op.lattice.volume, 4, 3))
        assert rng_kernel.standard_normal() == rng_oracle.standard_normal()
        assert rng_oracle.standard_normal() == replay.standard_normal(2)[1]


def test_solve_counters_match_an_oracle_driven_solve(aniso40_solve, monkeypatch):
    """"Numerics unchanged" in exact counts: on one setup, the solve
    through the kernel and the solve through the site-major oracles take
    the same outer iterations and the same work on every level.  (Across
    two *setups* the level-2 counts can differ by one iteration: level-1
    null vectors are converged-relaxation round-off, see DESIGN.md
    section 17.)"""
    from repro.fields import SpinorField
    from repro.mg import MultigridSolver, hierarchy

    ds, solver, with_kernel = aniso40_solve
    op = WilsonCloverOperator(ds.gauge(), **ds.operator_kwargs())
    factory = hierarchy.batched_schur_for
    monkeypatch.setattr(
        hierarchy,
        "batched_schur_for",
        lambda level_op: SchurReference(op) if level_op is op else factory(level_op),
    )
    no_kernel = lambda op, dtype=None: None  # noqa: E731
    monkeypatch.setattr("repro.dirac.wilson_kernel.wilson_kernel_for", no_kernel)
    monkeypatch.setattr("repro.dirac.even_odd.wilson_kernel_for", no_kernel)
    monkeypatch.setattr(
        WilsonCloverOperator, "apply", WilsonCloverOperator.apply_reference
    )
    monkeypatch.setattr(
        WilsonCloverOperator, "apply_hopping", WilsonCloverOperator.hop_sum_reference
    )
    monkeypatch.setattr(
        WilsonCloverOperator,
        "apply_multi",
        lambda self, vs: np.stack([self.apply_reference(v) for v in vs]),
    )
    oracle_solver = MultigridSolver(
        op,
        solver.params,
        np.random.default_rng(1),
        null_vectors=solver.hierarchy.export_null_vectors(),
    )
    b = SpinorField.random(ds.lattice(), rng=np.random.default_rng(0))
    with_oracle = oracle_solver.solve(b.data, tol=5e-6)
    assert not hasattr(op, "_wilson_kernel")  # the oracle path really ran
    assert with_oracle.converged
    assert with_oracle.iterations == with_kernel.iterations
    assert with_oracle.telemetry.level_stats == with_kernel.telemetry.level_stats


# ----------------------------------------------------------------------
# setup cost accounting
# ----------------------------------------------------------------------
def _reduced_built(hierarchy) -> int:
    """Bytes of the reduced-precision copies cast so far on the coarse
    operators and transfers."""
    owners = [lev.op for lev in hierarchy.levels[1:]]
    owners += [lev.transfer for lev in hierarchy.levels[:-1]]
    return sum(
        copy.nbytes
        for owner in owners
        for copy in getattr(owner, "_reduced", {}).values()
    )


def _default_solve(hierarchy, seed: int = 4):
    """One solve with the hierarchy's own (default: single) precisions."""
    from repro.mg import MultigridSolver

    op = hierarchy.levels[0].op
    b = _cnormal(np.random.default_rng(seed), (op.lattice.volume, 4, 3))
    return MultigridSolver.from_hierarchy(hierarchy).solve(b, tol=1e-6)


def test_setup_memory_books_kernel_tables_before_they_exist(gauge44):
    op = WilsonCloverOperator(gauge44, mass=-0.2, c_sw=1.0)
    rng = np.random.default_rng(2)
    params = MGParams(levels=[LevelParams(block=(2, 2, 2, 2), n_null=2)])
    nulls = [[_cnormal(rng, (op.lattice.volume, 4, 3)) for _ in range(2)]]
    # building from given null vectors (the restore path) applies the
    # fine operator only in the Galerkin product, which evaluates its
    # terms without the kernel: no kernel table of any dtype and no
    # complex64 copies yet
    hierarchy = MultigridHierarchy.build(op, params, rng, null_vectors=nulls)
    assert not getattr(op, "_wilson_kernel", None)
    assert _reduced_built(hierarchy) == 0
    transfer = hierarchy.levels[0].transfer
    booked = hierarchy.setup_memory_bytes()
    # the outer GCR applies level 0 in double, the default cycle applies
    # every level in complex64
    assert _default_solve(hierarchy).converged
    half_volume = op.lattice.half_volume
    tables = 0
    for dtype in (np.complex128, np.complex64):
        built = sum(t.nbytes for t in wilson_kernel_for(op, dtype).tables())
        assert built == WilsonKernel.table_bytes(half_volume, dtype)
        assert built >= (op._u_fwd.nbytes + op._u_bwd.nbytes) * np.dtype(dtype).itemsize // 16  # noqa: SLF001
        tables += built
    basis = transfer._basis.nbytes  # noqa: SLF001 — resident as long as the setup
    copies = transfer._basis.size * np.dtype(np.complex64).itemsize  # noqa: SLF001
    # the coarsest level is only reached through its red-black system:
    # its gathered tables live on the level and are booked in place of
    # the operator's own copies, which no solve casts (a two-level
    # hierarchy iterates there, so there are no dense factors to book)
    assert _reduced_built(hierarchy) == copies
    schur = hierarchy.levels[1].schur
    red_black = {
        dtype: _layout_bytes(schur.streamed_layout(dtype)) for dtype in (np.complex128, np.complex64)
    }
    (to_other, to_own, diag, dinv), = schur._tables.values()  # noqa: SLF001
    assert not schur._factors  # noqa: SLF001
    assert red_black[np.complex64] == (
        to_other.nbytes + to_own.nbytes + diag.nbytes + dinv.nbytes
    )
    own_arrays = sum(
        value.nbytes
        for lev in hierarchy.levels
        for value in list(vars(lev.op).values()) + lev.null_vectors
        if isinstance(value, np.ndarray)
    )
    assert booked == own_arrays + tables + basis + copies + red_black[np.complex64]
    assert hierarchy.setup_memory_bytes() == booked  # building them changes nothing
    # an all-double configuration builds, and books, none of the copies
    double = MGParams(
        levels=params.levels,
        smoother_precision=Precision.DOUBLE,
        coarse_precision=Precision.DOUBLE,
    )
    assert MultigridHierarchy(hierarchy.levels, double).setup_memory_bytes() == (
        booked - copies - WilsonKernel.table_bytes(half_volume, np.complex64)
        - red_black[np.complex64] + red_black[np.complex128]
    )


def test_restored_setup_books_the_same_bytes_as_a_cold_build(gauge44, tmp_path):
    """LRU accounting must not depend on whether the first apply (which
    builds the kernel tables) or the first solve (which casts the
    complex64 copies) happened before or after the insert."""
    params = MGParams(
        levels=[LevelParams(block=(2, 2, 2, 2), n_null=2, null_iters=5)]
    )

    def booked():
        op = WilsonCloverOperator(gauge44, mass=-0.2, c_sw=1.0)
        cache = SetupCache(disk_dir=str(tmp_path))
        hierarchy = cache.get_or_build(op, params, np.random.default_rng(3))
        return cache, hierarchy, op

    cold, cold_hierarchy, _ = booked()
    warm, hierarchy, op = booked()
    assert (cold.stats["misses"], warm.stats["disk_hits"]) == (1, 1)
    # the restore loaded the Galerkin product instead of computing it:
    # it applied the operator in no precision, so it built no kernel table
    assert not getattr(op, "_wilson_kernel", None)
    assert warm.nbytes == cold.nbytes
    op.apply(hierarchy.levels[0].null_vectors[0])
    assert hierarchy.setup_memory_bytes() == warm.nbytes
    # after the first solve both hold their complex64 copies and still agree
    for built in (cold_hierarchy, hierarchy):
        assert _default_solve(built).converged
        assert _reduced_built(built) > 0
    assert hierarchy.setup_memory_bytes() == cold_hierarchy.setup_memory_bytes()
    assert hierarchy.setup_memory_bytes() == warm.nbytes


def test_smoother_construction_stays_off_the_restore_budget():
    """Restoring a persisted setup rebuilds every smoother; the kernel
    tables (2-4 ms at V=1024) must not be paid there per consumer."""
    op = _aniso40_operator()
    begin = time.perf_counter()
    first = SchurMRSmoother(op)
    second = SchurMRSmoother(op, precision=Precision.HALF)
    elapsed = time.perf_counter() - begin
    assert elapsed < 0.010
    v = _cnormal(np.random.default_rng(1), (op.lattice.volume, 4, 3))
    first.apply(v)
    second.apply(v)
    assert wilson_kernel_for(op) is wilson_kernel_for(first.schur.op)
