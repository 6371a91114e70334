"""Shared fixtures.

Expensive objects (gauge fields, operators, multigrid hierarchies) are
session-scoped: tests treat them as immutable.
"""

from __future__ import annotations

import contextlib
import importlib.util
import os
import pathlib
import threading

import numpy as np
import pytest

from repro.dirac import WilsonCloverOperator
from repro.gauge import disordered_field, free_field
from repro.lattice import Blocking, Lattice


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20160612)


@pytest.fixture(scope="session")
def lat44():
    """A 4^4 lattice."""
    return Lattice((4, 4, 4, 4))


@pytest.fixture(scope="session")
def lat448():
    """A 4x4x4x8 lattice (distinct extents expose index-order bugs)."""
    return Lattice((4, 4, 4, 8))


@pytest.fixture(scope="session")
def lat2():
    """The minimal 2^4 lattice (dense-matrix territory)."""
    return Lattice((2, 2, 2, 2))


@pytest.fixture(scope="session")
def gauge44(lat44):
    return disordered_field(lat44, np.random.default_rng(7), 0.5)


@pytest.fixture(scope="session")
def gauge448(lat448):
    return disordered_field(lat448, np.random.default_rng(8), 0.5, smear_steps=1)


@pytest.fixture(scope="session")
def gauge2(lat2):
    return disordered_field(lat2, np.random.default_rng(9), 0.4)


@pytest.fixture(scope="session")
def wilson44(gauge44):
    return WilsonCloverOperator(gauge44, mass=-0.2, c_sw=1.0)


@pytest.fixture(scope="session")
def wilson448(gauge448):
    return WilsonCloverOperator(gauge448, mass=-0.3, c_sw=1.0)


@pytest.fixture(scope="session")
def wilson2(gauge2):
    return WilsonCloverOperator(gauge2, mass=0.1, c_sw=1.0)


@pytest.fixture(scope="session")
def blocking44(lat44):
    return Blocking(lat44, (2, 2, 2, 2))


def load_tool(name: str):
    """``tools/<name>.py`` as a module: the sweep scripts own the
    alternatives ``src/`` decided against (the full-system setup
    relaxation), and tests that compare against one use the tool's."""
    path = pathlib.Path(__file__).resolve().parent.parent / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"tools_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def random_spinor(lattice, ns=4, nc=3, seed=0):
    r = np.random.default_rng(seed)
    shape = (lattice.volume, ns, nc)
    return r.standard_normal(shape) + 1j * r.standard_normal(shape)


def schur_dense(system) -> np.ndarray:
    """The Schur matrix of a red-black system as one dense array, from
    one ``apply_multi`` over the unit vectors (tiny lattices only)."""
    op, n = system.op, system.unknowns
    units = np.eye(n, dtype=np.complex128).reshape(n, -1, op.ns, op.nc)
    return system.apply_multi(units).reshape(n, n).T


@pytest.fixture(scope="session")
def spinor44(lat44):
    return random_spinor(lat44, seed=1)


@contextlib.contextmanager
def busy_workers(svc, op_name, rhs):
    """Hold every worker of ``svc`` inside the solve of a blocker request
    until the block exits; yields the blockers' futures.

    Workers pull, so requests coalesce exactly while every worker is
    busy: what is submitted inside the block is still pending when the
    first worker frees up, which makes "these requests form one batch" a
    fact of the test instead of a matter of thread timing.
    """
    solver = svc._ops[op_name].solver
    real = solver.solve_multi
    entered, release = threading.Semaphore(0), threading.Event()

    def gated(bs, **kwargs):
        entered.release()
        assert release.wait(60), "busy_workers block never exited"
        return real(bs, **kwargs)

    solver.solve_multi = gated
    blockers = []
    try:
        for _ in range(svc.config.n_workers):  # one by one: one batch each
            blockers.append(svc.submit(op_name, rhs))
            assert entered.acquire(timeout=60), "no worker took the blocker"
        solver.solve_multi = real  # only the blockers are gated
        yield blockers
    finally:
        solver.solve_multi = real
        release.set()


# -- hypothesis profiles -----------------------------------------------
# "ci" trims example counts so the full suite stays fast in CI; select
# with HYPOTHESIS_PROFILE=ci (the workflow sets it).
try:
    from hypothesis import HealthCheck
    from hypothesis import settings as _hyp_settings

    _COMMON = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    _hyp_settings.register_profile("default", **_COMMON)
    _hyp_settings.register_profile("ci", max_examples=10, **_COMMON)
    _hyp_settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
except ImportError:  # hypothesis-less environments still run the suite
    pass


def pytest_addoption(parser):
    parser.addoption(
        "--regen-golden",
        action="store_true",
        default=False,
        help="rewrite tests/golden/*.json from the current numerics "
        "instead of comparing against them",
    )


@pytest.fixture(scope="session")
def aniso40_solve():
    """The canonical Aniso40-scaled multigrid solve.

    One deterministic (gauge, hierarchy, rhs) triple shared by the
    golden-regression and verify-registry tests so the expensive setup
    runs once per session.
    """
    from repro.fields import SpinorField
    from repro.mg import MultigridSolver
    from repro.workloads import SCALED_FOR_PAPER, mg_params_for

    ds = SCALED_FOR_PAPER["Aniso40"]
    op = WilsonCloverOperator(ds.gauge(), **ds.operator_kwargs())
    params = mg_params_for(ds, "24/24")
    solver = MultigridSolver(op, params, np.random.default_rng(1))
    b = SpinorField.random(ds.lattice(), rng=np.random.default_rng(0))
    result = solver.solve(b.data, tol=5e-6)
    return ds, solver, result


@pytest.fixture(scope="session")
def aniso40_parent_solver(aniso40_solve):
    """The canonical solver on the null space of the commits before the
    red-black setup (PRs 16-17): the same operator, parameters and
    generator seed, every level relaxed on the full system, and the
    4/4 smoothing schedule those commits ran.  Below level 0 two fresh
    setups of two commits are not comparable; counters recorded from
    the parent are pinned on this one."""
    from repro.mg import MultigridSolver

    ds, solver, _ = aniso40_solve
    op = WilsonCloverOperator(ds.gauge(), **ds.operator_kwargs())
    params = load_tool("sweep_smoothing").with_schedule(solver.params, 4, 4)
    with load_tool("sweep_setup_relaxation").full_system_relaxation():
        return MultigridSolver(op, params, np.random.default_rng(1))
