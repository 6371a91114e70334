"""A solve's work counters are its own.

Every solve counts its per-level work in the cycle it builds and returns
it in ``result.telemetry.level_stats``; nothing on the hierarchy is
written to count work.  So solves running at once over one hierarchy —
threads on one solver, two service workers on one entry — each report
exactly what they report alone.  Run with ``pytest -q -m chaos``.
"""

from __future__ import annotations

import dataclasses
import sys
import threading

import pytest

from repro.mg import MGLevel
from repro.serve import ServeConfig, SetupCache, SolveService
from tests.conftest import random_spinor

pytestmark = pytest.mark.chaos

WAIT = 60  # seconds a thread or future may take before the test calls it hung
TOL = 5e-6
N_RHS = 4


@pytest.fixture(scope="module")
def alone(aniso40_solve):
    """The shared solver, four right-hand sides and the ``level_stats``
    each of them reports when solved by itself."""
    _, solver, _ = aniso40_solve
    lattice = solver.hierarchy.levels[0].op.lattice
    bs = [random_spinor(lattice, seed=70 + i) for i in range(N_RHS)]
    stats = [solver.solve(b, tol=TOL).telemetry.level_stats for b in bs]
    return solver, bs, stats


def test_threads_on_one_solver_each_report_their_own_counters(alone):
    solver, bs, want = alone
    got: list = [None] * N_RHS
    start = threading.Barrier(N_RHS)

    def work(i: int) -> None:
        start.wait(timeout=WAIT)
        got[i] = solver.solve(bs[i], tol=TOL).telemetry.level_stats

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(N_RHS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=WAIT)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert got == want


def test_two_workers_on_one_entry_each_report_their_own_counters(alone):
    solver, bs, want = alone
    op = solver.hierarchy.levels[0].op
    cache = SetupCache()
    cache.seed(op, solver.params, solver.hierarchy)
    with SolveService(ServeConfig(n_workers=2, max_batch=1), cache=cache) as svc:
        svc.register("wc", op, solver.params)
        futures = svc.submit_many("wc", bs, tol=TOL)
        results = [f.result(timeout=WAIT) for f in futures]
    assert [res.telemetry.level_stats for res in results] == want


def test_a_level_is_fixed_at_construction(aniso40_solve):
    for lev in aniso40_solve[1].hierarchy.levels:
        for field in dataclasses.fields(MGLevel):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(lev, field.name, getattr(lev, field.name))
