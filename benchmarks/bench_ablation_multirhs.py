"""Ablation: multiple right-hand sides (paper Section 9).

Batched solving reads each stencil matrix once for K systems: on the
real NumPy kernels this shows up directly as throughput per system; on
the GPU model it raises the arithmetic intensity of the coarse kernel
above the memory roofline.
"""

import numpy as np
import pytest

from repro.coarse import coarsen_operator
from repro.lattice import Blocking, Lattice
from repro.solvers import batched_gcr, gcr
from repro.transfer import Transfer

from tests.conftest import random_spinor

from _shared import record_row


@pytest.fixture(scope="module")
def coarse_op():
    lat = Lattice((4, 4, 4, 8))
    from repro.dirac import WilsonCloverOperator
    from repro.gauge import disordered_field

    u = disordered_field(lat, np.random.default_rng(5), 0.5, smear_steps=1)
    op = WilsonCloverOperator(u, mass=-1.0, c_sw=1.0)
    t = Transfer(
        Blocking(lat, (2, 2, 2, 4)),
        [random_spinor(lat, seed=900 + k) for k in range(6)],
    )
    return coarsen_operator(op, t)


@pytest.fixture(scope="module")
def rhs12(coarse_op):
    rng = np.random.default_rng(6)
    shape = (12, coarse_op.lattice.volume, 2, 6)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("k", [1, 4, 12])
def test_bench_apply_multi(benchmark, coarse_op, rhs12, k):
    """Batched stencil throughput: matrices amortized over K systems."""
    vs = rhs12[:k]
    benchmark(coarse_op.apply_multi, vs)
    per_sys = benchmark.stats["mean"] / k
    benchmark.extra_info["us_per_system"] = round(per_sys * 1e6, 1)
    record_row(
        "ablation_multirhs",
        benchmark=f"apply_multi.k{k}",
        seconds=per_sys,
        us_per_system=round(per_sys * 1e6, 1),
    )


def test_batched_amortization(benchmark, coarse_op, rhs12, capsys):
    """Per-system time falls as K grows (the locality win)."""

    def sweep():
        import time

        out = {}
        for k in (1, 4, 12):
            t0 = time.perf_counter()
            for _ in range(10):
                coarse_op.apply_multi(rhs12[:k])
            out[k] = (time.perf_counter() - t0) / 10 / k
        return out

    per_sys = benchmark.pedantic(sweep, rounds=1, iterations=1)
    with capsys.disabled():
        print("\nAblation: batched coarse apply, time per system:")
        for k, t in per_sys.items():
            print(f"  K={k:2d}: {1e6 * t:8.1f} us/system")
    assert per_sys[12] < per_sys[1]


def test_bench_batched_mg_solve(benchmark, capsys):
    """The full Section-9 reformulation: one stack of 6 RHS against the
    same 6 solved one stack of one after another."""
    import time

    from repro.dirac import WilsonCloverOperator
    from repro.gauge import disordered_field
    from repro.lattice import Lattice
    from repro.mg import LevelParams, MGParams, MultigridSolver

    lat = Lattice((4, 4, 4, 8))
    u = disordered_field(lat, np.random.default_rng(11), 0.55, smear_steps=1)
    op = WilsonCloverOperator(u, mass=-1.406 + 0.03, c_sw=1.0)
    solver = MultigridSolver(
        op,
        MGParams(levels=[LevelParams(block=(2, 2, 2, 4), n_null=8, null_iters=50)]),
        np.random.default_rng(5),
    )
    bs = np.stack([random_spinor(lat, seed=950 + k) for k in range(6)])

    def run():
        t0 = time.perf_counter()
        batched = solver.solve_multi(bs, tol=1e-8)
        t_b = time.perf_counter() - t0
        t0 = time.perf_counter()
        for b in bs:
            solver.solve(b, tol=1e-8)
        t_s = time.perf_counter() - t0
        return batched, t_b, t_s

    batched, t_b, t_s = benchmark.pedantic(run, rounds=1, iterations=1)
    assert all(r.converged for r in batched)
    with capsys.disabled():
        print(f"\n6-RHS fine-grid MG: one stack {t_b:.2f}s vs six stacks of one {t_s:.2f}s")
    benchmark.extra_info["batched_s"] = round(t_b, 2)
    benchmark.extra_info["sequential_s"] = round(t_s, 2)


def test_bench_batched_vs_sequential_solve(benchmark, coarse_op, rhs12, capsys):
    def run():
        import time

        t0 = time.perf_counter()
        batched = batched_gcr(coarse_op, rhs12[:6], tol=1e-6, maxiter=600)
        t_b = time.perf_counter() - t0
        t0 = time.perf_counter()
        seq = [gcr(coarse_op, b, tol=1e-6, maxiter=600) for b in rhs12[:6]]
        t_s = time.perf_counter() - t0
        return batched, seq, t_b, t_s

    batched, seq, t_b, t_s = benchmark.pedantic(run, rounds=1, iterations=1)
    assert all(r.converged for r in batched)
    with capsys.disabled():
        print(
            f"\n6-RHS coarse solve: batched {t_b:.2f}s vs sequential {t_s:.2f}s "
            f"({t_s / t_b:.2f}x)"
        )
    benchmark.extra_info["speedup_vs_sequential"] = round(t_s / t_b, 2)
