"""Ablation: mixed precision with reliable updates (Sections 3.3, 4, 7.1).

Solves the same red-black system at a double-precision target tolerance
with inner BiCGStab in double, single and half precision.  Single is
measured, not emulated: the inner stencil runs natively on complex64
fields and complex64 link/clover tables (half the bytes of the double
kernel), cast in and out at the operator boundary; half adds the 16-bit
storage rounding on top of that complex64 compute.  Reduced precision
costs extra outer (reliable-update) cycles but every variant reaches
the same final accuracy — QUDA's "high speed with no loss in accuracy"
claim — and on the modeled GPU the traffic saving wins.
"""

import numpy as np
import pytest

from repro.dirac import SchurOperator, WilsonCloverOperator
from repro.precision import Precision
from repro.solvers import bicgstab, mixed_precision_solve, norm
from repro.workloads import ANISO40_SCALED

from tests.conftest import random_spinor

from _shared import record_row


@pytest.fixture(scope="module")
def system():
    ds = ANISO40_SCALED
    op = WilsonCloverOperator(ds.gauge(), **ds.operator_kwargs())
    schur = SchurOperator(op, parity=0)
    b = random_spinor(ds.lattice(), seed=77)
    return schur, schur.prepare_source(b)


@pytest.mark.parametrize(
    "precision", [Precision.DOUBLE, Precision.SINGLE, Precision.HALF],
    ids=["double", "single", "half"],
)
def test_bench_precision_sweep(benchmark, system, precision):
    schur, bs = system

    def solve():
        return mixed_precision_solve(
            schur,
            bs,
            bicgstab,
            tol=1e-10,
            inner_precision=precision,
            inner_kwargs={"maxiter": 500},
        )

    res = benchmark.pedantic(solve, rounds=1, iterations=1)
    assert res.converged
    # no loss in accuracy regardless of inner precision
    assert norm(bs - schur.apply(res.x)) / norm(bs) < 1e-10
    benchmark.extra_info["inner_iterations"] = res.iterations
    benchmark.extra_info["outer_cycles"] = res.telemetry.attrs["outer"]
    record_row(
        "ablation_precision",
        benchmark=f"mixed_precision.{precision.name.lower()}",
        inner_iterations=res.iterations,
        outer_cycles=res.telemetry.attrs["outer"],
    )


def test_half_needs_more_outer_cycles(benchmark, system):
    schur, bs = system

    def sweep():
        out = {}
        for prec in (Precision.DOUBLE, Precision.HALF):
            out[prec] = mixed_precision_solve(
                schur, bs, bicgstab, tol=1e-10,
                inner_precision=prec, inner_kwargs={"maxiter": 500},
            )
        return out

    res = benchmark.pedantic(sweep, rounds=1, iterations=1)
    assert res[Precision.HALF].telemetry.attrs["outer"] >= res[Precision.DOUBLE].telemetry.attrs["outer"]
