"""A persisted setup is restored, not recomputed, and the restored
hierarchy is the built one.

``SetupCache`` writes :meth:`MultigridHierarchy.arrays` (null vectors,
transfer bases, Galerkin coarse operators) and a restart reassembles
them with :meth:`MultigridHierarchy.from_arrays`.  Nothing of the setup
arithmetic runs on that path, so everything a solve reads must come back
bit for bit: the arrays, the solution, the iteration count and every
per-level counter, and the bytes the LRU books.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import telemetry
from repro.dirac import WilsonCloverOperator
from repro.gauge import disordered_field
from repro.lattice import Lattice
from repro.mg import LevelParams, MGParams, MultigridHierarchy, MultigridSolver
from repro.serve import SetupCache
from repro.serve import cache as cache_module
from repro.telemetry.tracer import get_tracer

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


def test_a_restore_builds_no_table_it_books(round_trip, op, tmp_path):
    """A restore books the coarse tables at their known size and builds
    none of them — nor the coarse lattices' neighbour tables the first
    solve gathers them through."""
    built = round_trip[0]
    SetupCache(disk_dir=str(tmp_path)).seed(op, built.params, built)
    restored = SetupCache(disk_dir=str(tmp_path)).get_or_build(op, built.params)
    assert restored.setup_memory_bytes() == round_trip[2][0]
    for lev in restored.levels[1:]:
        assert not lev.op._tables  # noqa: SLF001
        assert lev.schur is None or not lev.schur._tables  # noqa: SLF001
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
