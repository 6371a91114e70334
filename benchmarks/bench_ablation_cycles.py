"""Ablation: cycle type (K vs V vs W).

The K-cycle is the paper's choice (Section 7.1); V/W-cycles trade
coarse-level Krylov acceleration for less coarse work.
"""

import numpy as np
import pytest

from repro.dirac import WilsonCloverOperator
from repro.gauge import disordered_field
from repro.lattice import Lattice
from repro.mg import LevelParams, MGParams, MultigridSolver

from tests.conftest import random_spinor

from _shared import record_row


@pytest.fixture(scope="module")
def problem():
    lat = Lattice((4, 4, 4, 8))
    u = disordered_field(lat, np.random.default_rng(11), 0.55, smear_steps=1)
    op = WilsonCloverOperator(u, mass=-1.406 + 0.03, c_sw=1.0)
    b = random_spinor(lat, seed=1000)
    return op, b


@pytest.mark.parametrize("cycle", ["K", "V", "W"])
def test_bench_cycle_types(benchmark, problem, cycle):
    op, b = problem

    def solve():
        params = MGParams(
            levels=[LevelParams(block=(2, 2, 2, 4), n_null=8, null_iters=50)],
            outer_tol=1e-8,
            cycle_type=cycle,
        )
        mgs = MultigridSolver(op, params, np.random.default_rng(5))
        return mgs.solve(b)

    res = benchmark.pedantic(solve, rounds=1, iterations=1)
    assert res.converged
    benchmark.extra_info["outer_iterations"] = res.iterations
    benchmark.extra_info["coarse_ops"] = res.telemetry.level_stats[1]["op_applies"]
    record_row(
        "ablation_cycles",
        benchmark=f"cycle.{cycle}",
        outer_iterations=res.iterations,
        coarse_ops=res.telemetry.level_stats[1]["op_applies"],
    )

