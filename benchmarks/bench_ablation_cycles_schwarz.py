"""Ablations: cycle type (K vs V vs W) and Schwarz-smoothed GCR.

The K-cycle is the paper's choice (Section 7.1); V/W-cycles trade
coarse-level Krylov acceleration for less coarse work.  The Schwarz
(domain-cut) smoother is the Section 9 communication-reduction path:
same smoothing structure, zero halo traffic.
"""

import numpy as np
import pytest

from repro.dirac import WilsonCloverOperator
from repro.gauge import disordered_field
from repro.lattice import Lattice, Partition
from repro.mg import (
    LevelParams,
    MGParams,
    MultigridSolver,
    SchwarzMRSmoother,
)
from repro.solvers import MRSmoother, gcr

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
        "ablation_cycles_schwarz",
        benchmark=f"cycle.{cycle}",
        outer_iterations=res.iterations,
        coarse_ops=res.telemetry.level_stats[1]["op_applies"],
    )


@pytest.mark.parametrize("smoother_kind", ["global-mr", "schwarz-mr"])
def test_bench_schwarz_smoothed_gcr(benchmark, problem, smoother_kind):
    """GCR preconditioned by a global vs a domain-cut (halo-free) smoother."""
    op, b = problem
    if smoother_kind == "global-mr":
        smoother = MRSmoother(op, steps=4)
    else:
        smoother = SchwarzMRSmoother(op, Partition(op.lattice, (1, 1, 2, 2)), steps=4)

    res = benchmark.pedantic(
        gcr,
        args=(op, b),
        kwargs={"tol": 1e-8, "maxiter": 3000, "preconditioner": smoother},
        rounds=1,
        iterations=1,
    )
    assert res.converged
    benchmark.extra_info["iterations"] = res.iterations


def test_schwarz_iteration_penalty_bounded(benchmark, problem):
    """Cutting the domain couplings costs iterations, but only mildly —
    that is why it wins once communication is the bottleneck."""
    op, b = problem

    def run():
        g = gcr(op, b, tol=1e-8, maxiter=3000, preconditioner=MRSmoother(op, steps=4))
        s = gcr(
            op, b, tol=1e-8, maxiter=3000,
            preconditioner=SchwarzMRSmoother(
                op, Partition(op.lattice, (1, 1, 2, 2)), steps=4
            ),
        )
        return g, s

    g, s = benchmark.pedantic(run, rounds=1, iterations=1)
    assert g.converged and s.converged
    assert s.iterations <= 3 * g.iterations
