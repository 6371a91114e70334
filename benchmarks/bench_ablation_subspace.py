"""Ablation: null-space subspace size (the 24/24 vs 24/32 vs 32/32 trade).

Section 7.2: "while 32/32 gives a better preconditioner since it
captures more of the null space, the increased cost of the intermediate
grid results in a net computational loss."  We sweep the (scaled)
subspace size on real solves: outer iterations must fall monotonically
with the subspace size, while the intermediate-level work per solve
grows — reproducing the trade-off.
"""

import numpy as np
import pytest

from repro.dirac import WilsonCloverOperator
from repro.mg import LevelParams, MGParams, MultigridSolver
from repro.workloads import ANISO40_SCALED

from tests.conftest import random_spinor

from _shared import record_row


@pytest.fixture(scope="module")
def problem():
    ds = ANISO40_SCALED
    op = WilsonCloverOperator(ds.gauge(), **ds.operator_kwargs())
    b = random_spinor(ds.lattice(), seed=123)
    return ds, op, b


def run_with_subspace(problem, n_null):
    ds, op, b = problem
    params = MGParams(
        levels=[LevelParams(block=ds.blockings[0], n_null=n_null, null_iters=50)],
        outer_tol=1e-8,
    )
    mg = MultigridSolver(op, params, np.random.default_rng(9))
    res = mg.solve(b)
    assert res.converged
    coarse_dim = mg.hierarchy.levels[1].op.lattice.volume * 2 * n_null
    return res.iterations, res.telemetry.level_stats, coarse_dim


@pytest.mark.parametrize("n_null", [2, 4, 8, 12])
def test_bench_subspace_sweep(benchmark, problem, n_null):
    iters, stats, coarse_dim = benchmark.pedantic(
        run_with_subspace, args=(problem, n_null), rounds=1, iterations=1
    )
    benchmark.extra_info["outer_iterations"] = iters
    benchmark.extra_info["coarse_dim"] = coarse_dim
    benchmark.extra_info["coarse_ops"] = stats[1]["op_applies"]
    record_row(
        "ablation_subspace",
        benchmark=f"subspace.n{n_null}",
        outer_iterations=iters,
        coarse_dim=coarse_dim,
        coarse_ops=stats[1]["op_applies"],
    )


def test_subspace_tradeoff(benchmark, problem):
    """Larger subspace => fewer outer iterations but costlier coarse grid."""

    def sweep():
        return {n: run_with_subspace(problem, n) for n in (2, 4, 12)}

    out = benchmark.pedantic(sweep, rounds=1, iterations=1)
    i2, _, _ = out[2]
    i12, s12, dim12 = out[12]
    _, s4, dim4 = out[4]
    assert i12 < i2  # better preconditioner
    # coarse matrix work scales with Nc_hat^2: the "net loss" mechanism
    work4 = s4[1]["op_applies"] * (2 * 4) ** 2
    work12 = s12[1]["op_applies"] * (2 * 12) ** 2
    assert dim12 > dim4
    assert work12 > work4
