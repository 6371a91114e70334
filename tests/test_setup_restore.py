"""A persisted setup is restored, not recomputed, and the restored
hierarchy is the built one.

``SetupCache`` writes :meth:`MultigridHierarchy.arrays` (null vectors,
transfer bases, Galerkin coarse operators) and
:meth:`MultigridHierarchy.streamed_arrays` (what the cycle streams) and a
restart maps them and reassembles the hierarchy with
:meth:`MultigridHierarchy.from_arrays`.  Nothing of the setup arithmetic
runs on that path, and nothing of the first solve's construction runs
after it, so everything a solve reads must come back bit for bit: the
arrays, the solution, the iteration count and every per-level counter,
and the bytes the LRU books — every array read-only.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg

from repro import telemetry
from repro.coarse import coarse_op as coarse_op_module
from repro.dirac import WilsonCloverOperator
from repro.dirac import wilson as wilson_module
from repro.dirac.mrhs import BatchedCoarseSchur, _DenseBlockHop
from repro.gauge import disordered_field
from repro.lattice import Lattice
from repro.mg import LevelParams, MGParams, MultigridHierarchy, MultigridSolver
from repro.precision import Precision, reduced
from repro.serve import SetupCache
from repro.serve import cache as cache_module
from repro.telemetry.tracer import get_tracer
from repro.transfer import transfer as transfer_module

pytestmark = pytest.mark.serve

LEVELS = {
    "two-level": [LevelParams(block=(2, 2, 2, 4), n_null=4, null_iters=20)],
    "three-level": [
        LevelParams(block=(2, 2, 2, 2), n_null=6, null_iters=20),
        LevelParams(block=(1, 1, 1, 2), n_null=4, null_iters=20),
    ],
}
#: spans of the work a restore must not do
SETUP_WORK = ("coarsen", "transfer-build", "null-vectors")


@pytest.fixture(scope="module")
def op():
    lat = Lattice((4, 4, 4, 8))
    u = disordered_field(lat, np.random.default_rng(11), 0.55, smear_steps=1)
    return WilsonCloverOperator(u, mass=-1.376, c_sw=1.0)


@pytest.fixture(scope="module", params=sorted(LEVELS))
def round_trip(request, op, tmp_path_factory):
    """A cold build persisted by one cache, restored by a fresh one with
    the tracer on: ``(built, restored, booked bytes of each, span names)``."""
    params = MGParams(levels=LEVELS[request.param], outer_tol=1e-8)
    disk_dir = str(tmp_path_factory.mktemp("setup"))
    built = SetupCache(disk_dir=disk_dir).get_or_build(op, params, np.random.default_rng(5))
    fresh = SetupCache(disk_dir=disk_dir)
    telemetry.enable()
    telemetry.reset()
    try:
        restored = fresh.get_or_build(op, params)
        names = {span.name for span in get_tracer().iter_spans()}
    finally:
        telemetry.disable()
        telemetry.reset()
    assert fresh.stats["disk_hits"] == 1 and fresh.stats["misses"] == 0
    booked = (built.setup_memory_bytes(), restored.setup_memory_bytes())
    return built, restored, booked, names


def test_every_array_round_trips_bitwise(round_trip):
    built, restored, _, _ = round_trip
    before, after = built.arrays(), restored.arrays()
    assert sorted(before) == sorted(after)
    for name, array in before.items():
        assert after[name].dtype == array.dtype == np.complex128, name
        assert np.array_equal(after[name], array), name


def test_restored_hierarchy_solves_bitwise_like_the_built_one(round_trip, op):
    built, restored, _, _ = round_trip
    b = np.random.default_rng(4).standard_normal((op.lattice.volume, 4, 3)) + 0j
    want = MultigridSolver.from_hierarchy(built).solve(b, tol=1e-8)
    got = MultigridSolver.from_hierarchy(restored).solve(b, tol=1e-8)
    assert want.converged and want.iterations > 1
    assert np.array_equal(got.x, want.x)
    assert got.iterations == want.iterations
    assert got.telemetry.level_stats == want.telemetry.level_stats


def test_restored_setup_books_the_same_bytes(round_trip):
    _, _, (built, restored), _ = round_trip
    assert restored == built


def test_traced_restore_runs_no_setup_work(round_trip):
    *_, names = round_trip
    assert "serve.setup_cache.restore" in names
    assert not [name for name in names if name.startswith(SETUP_WORK)]


def test_a_restore_builds_no_table_it_books(round_trip, op, tmp_path, monkeypatch):
    """A restore books the coarse tables at their known size and builds
    none of them: it holds the ones the file maps, read-only — and it
    builds none of the coarse lattices' neighbour tables either."""
    built = round_trip[0]
    SetupCache(disk_dir=str(tmp_path)).seed(op, built.params, built)

    def gathers(*args, **kwargs):
        raise AssertionError("a restore gathered a table")

    monkeypatch.setattr(_DenseBlockHop, "__init__", gathers)
    restored = SetupCache(disk_dir=str(tmp_path)).get_or_build(op, built.params)
    assert restored.setup_memory_bytes() == round_trip[2][0]
    for lev in restored.levels[1:]:
        tables = list(lev.op._tables.values())  # noqa: SLF001
        if lev.schur is not None:
            tables += [t for held in lev.schur._tables.values() for t in held]  # noqa: SLF001
        assert tables
        for table in tables:
            for array in table.arrays().values() if hasattr(table, "arrays") else [table]:
                assert not array.flags.writeable
        assert not {"fwd", "bwd"} & set(vars(lev.op.lattice))


def test_one_gauge_fingerprint_per_disk_hit(round_trip, op, tmp_path, monkeypatch):
    built = round_trip[0]
    SetupCache(disk_dir=str(tmp_path)).seed(op, built.params, built)
    calls = []

    def counted(gauge):
        calls.append(gauge)
        return real(gauge)

    real = cache_module.gauge_fingerprint
    monkeypatch.setattr(cache_module, "gauge_fingerprint", counted)
    fresh = SetupCache(disk_dir=str(tmp_path))
    fresh.get_or_build(op, built.params)
    assert fresh.stats["disk_hits"] == 1
    assert len(calls) == 1


def test_from_arrays_refuses_arrays_of_another_configuration(round_trip, op):
    built = round_trip[0]
    arrays = built.arrays()
    arrays["x1"] = arrays["x1"][:, :-1]
    with pytest.raises(ValueError, match="'x1'"):
        MultigridHierarchy.from_arrays(op, built.params, arrays)
    del arrays["x1"]
    with pytest.raises(ValueError, match="got nothing"):
        MultigridHierarchy.from_arrays(op, built.params, arrays)


def _setup_arrays(hierarchy):
    """Every array the setup holds beyond the fine operator the caller
    passed in: null vectors, the transfer bases and their copies, coarse
    operators, their inverses and tables, the red-black systems' tables
    and factors."""
    for lev in hierarchy.levels:
        yield from lev.null_vectors
        owners = [lev.transfer] if lev.transfer is not None else []
        if lev.transfer is not None:
            yield lev.transfer._basis  # noqa: SLF001
        if lev.index:
            owners.append(lev.op)
            yield from (v for v in vars(lev.op).values() if isinstance(v, np.ndarray))
        for owner in owners:
            yield from getattr(owner, "_reduced", {}).values()
            for table in getattr(owner, "_tables", {}).values():
                yield from table.arrays().values()
        for held in getattr(lev.schur, "_tables", {}).values():
            for table in held:
                yield from table.arrays().values() if hasattr(table, "arrays") else [table]
        for factor in getattr(lev.schur, "_factors", {}).values():
            yield from factor


def _walked_bytes(hierarchy):
    """The setup's resident bytes as ``setup_memory_bytes`` defines them,
    counted array by array: the setup's own, the fine operator's arrays
    and the kernel tables built on it."""
    fine = hierarchy.levels[0].op
    own = sum(v.nbytes for v in vars(fine).values() if isinstance(v, np.ndarray))
    kernels = sum(
        table.nbytes
        for kernel in fine._wilson_kernel.values()  # noqa: SLF001
        for table in kernel.tables()
    )
    return sum(a.nbytes for a in _setup_arrays(hierarchy)) + own + kernels


def _refuse_construction(monkeypatch):
    """Make every first-use construction of a solve raise: gathering a
    distinct-neighbour table, assembling or factoring the dense coarsest
    system, inverting site blocks, casting a reduced-precision copy."""

    def refuse(what):
        def raises(*args, **kwargs):
            raise AssertionError(f"the first solve after a restore built {what}")
        return raises

    monkeypatch.setattr(_DenseBlockHop, "__init__", refuse("a distinct-neighbour table"))
    monkeypatch.setattr(BatchedCoarseSchur, "to_dense", refuse("a dense Schur matrix"))
    monkeypatch.setattr(scipy.linalg, "lu_factor", refuse("LU factors"))
    monkeypatch.setattr(np.linalg, "inv", refuse("an inverse"))

    def held_only(owner, name, dtype):
        if getattr(owner, name).dtype != dtype and (name, dtype) not in vars(owner).get("_reduced", {}):
            raise AssertionError(f"the first solve after a restore cast {name} to {dtype}")
        return reduced(owner, name, dtype)

    for module in (coarse_op_module, transfer_module, wilson_module):
        monkeypatch.setattr(module, "reduced", held_only)


def test_first_solve_after_a_restore_builds_nothing(round_trip, op, tmp_path, monkeypatch):
    """A restored hierarchy holds everything its cycle streams: a K=1 and
    a K=8 solve gather no table, invert, assemble or factor nothing and
    cast no reduced copy, and read bitwise like the built hierarchy —
    the coarsest LU in column order, as a view into the file."""
    built = round_trip[0]
    SetupCache(disk_dir=str(tmp_path)).seed(op, built.params, built)
    restored = SetupCache(disk_dir=str(tmp_path)).get_or_build(op, built.params)
    bs = np.random.default_rng(6).standard_normal((8, op.lattice.volume, 4, 3)) + 0j

    def solves(hierarchy):
        solver = MultigridSolver.from_hierarchy(hierarchy)
        return [solver.solve(bs[0], tol=1e-8)] + solver.solve_multi(bs, tol=1e-8)

    want = solves(built)
    booked = restored.setup_memory_bytes()
    assert booked == _walked_bytes(restored)
    for name, array in built.streamed_arrays().items():
        assert np.array_equal(restored.streamed_arrays()[name], array), name

    _refuse_construction(monkeypatch)
    blas = scipy.linalg.get_blas_funcs
    factors = []

    def triangular_solves(names, arrays):
        def reads_in_column_order(fn):
            def checked(alpha_or_a, *args, **kwargs):
                lu = alpha_or_a if fn.__name__.endswith("trsv") else args[0]
                assert lu.flags.f_contiguous and not lu.flags.writeable
                factors.append(lu)
                return fn(alpha_or_a, *args, **kwargs)
            return checked
        return tuple(reads_in_column_order(fn) for fn in blas(names, arrays))

    monkeypatch.setattr(scipy.linalg, "get_blas_funcs", triangular_solves)
    got = solves(restored)
    monkeypatch.undo()

    for g, w in zip(got, want):
        assert np.array_equal(g.x, w.x)
        assert g.iterations == w.iterations
        assert g.telemetry.level_stats == w.telemetry.level_stats
    coarsest = restored.levels[-1]
    assert bool(factors) == coarsest.solved_directly == (restored.n_levels == 3)
    if factors:
        (lu, _), = coarsest.schur._factors.values()  # noqa: SLF001
        assert all(f is lu for f in factors) and not lu.flags.owndata
    assert restored.setup_memory_bytes() == booked == _walked_bytes(restored)
    assert not [a.shape for a in _setup_arrays(restored) if a.flags.writeable]


def test_booking_holds_through_two_solves_on_every_path(round_trip, op, tmp_path):
    """A memory-only cold build, a persisted build and its restore book
    the same bytes before a first solve, after it and after a second —
    what an ``nbytes`` walk counts once the solves have built everything
    the cycle streams."""
    params = round_trip[0].params
    cold = SetupCache().get_or_build(op, params, np.random.default_rng(5))
    persisted = SetupCache(disk_dir=str(tmp_path)).get_or_build(
        op, params, np.random.default_rng(5)
    )
    restored = SetupCache(disk_dir=str(tmp_path)).get_or_build(op, params)
    b = np.random.default_rng(8).standard_normal((op.lattice.volume, 4, 3)) + 0j
    booked = {}
    for path, hierarchy in (("cold", cold), ("persisted", persisted), ("restored", restored)):
        solver = MultigridSolver.from_hierarchy(hierarchy)
        booked[path] = [hierarchy.setup_memory_bytes()]
        for _ in range(2):
            assert solver.solve(b, tol=1e-8).converged
            booked[path].append(hierarchy.setup_memory_bytes())
        assert booked[path] == [_walked_bytes(hierarchy)] * 3, path
    assert booked["cold"] == booked["persisted"] == booked["restored"]


#: configurations beside the default whose cycles stream other tables
CONFIGURATIONS = {
    "double": dict(smoother_precision=Precision.DOUBLE, coarse_precision=Precision.DOUBLE),
    "double-smoother": dict(smoother_precision=Precision.DOUBLE),
}


@pytest.mark.parametrize("config", sorted(CONFIGURATIONS))
def test_every_configuration_restores_what_its_cycle_streams(config, op, tmp_path, monkeypatch):
    params = MGParams(levels=LEVELS["three-level"], outer_tol=1e-8, **CONFIGURATIONS[config])
    built = SetupCache(disk_dir=str(tmp_path)).get_or_build(op, params, np.random.default_rng(5))
    restored = SetupCache(disk_dir=str(tmp_path)).get_or_build(op, params)
    b = np.random.default_rng(7).standard_normal((op.lattice.volume, 4, 3)) + 0j
    want = MultigridSolver.from_hierarchy(built).solve(b, tol=1e-8)
    booked = restored.setup_memory_bytes()
    _refuse_construction(monkeypatch)
    got = MultigridSolver.from_hierarchy(restored).solve(b, tol=1e-8)
    monkeypatch.undo()
    assert np.array_equal(got.x, want.x)
    assert got.iterations == want.iterations
    assert got.telemetry.level_stats == want.telemetry.level_stats
    assert restored.setup_memory_bytes() == booked
