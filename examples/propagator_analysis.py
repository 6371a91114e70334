"""The paper's throughput workload: the 12 solves of one propagator.

The analysis phase of LQCD (Section 3) computes quark propagators —
one Dirac solve per spin-color component of a point source.  This
example runs the 12 solves on the scaled Aniso40 stand-in dataset with
the multigrid solver and with red-black BiCGStab, and compares their
iterations and times per solve.

Run:  python examples/propagator_analysis.py
"""

import time

import numpy as np

from repro.dirac import SchurOperator, WilsonCloverOperator
from repro.fields import SpinorField
from repro.mg import MultigridSolver
from repro.solvers import bicgstab
from repro.workloads import ANISO40_SCALED, mg_params_for


def main() -> None:
    ds = ANISO40_SCALED
    lattice = ds.lattice()
    op = WilsonCloverOperator(ds.gauge(), **ds.operator_kwargs())
    print(f"dataset {ds.label}: {lattice}, mass {ds.mass:.4f} "
          f"(m_crit {ds.m_crit:.4f})")

    print("\n[setup] building multigrid hierarchy (amortized over solves)...")
    t0 = time.perf_counter()
    mg = MultigridSolver(
        op, mg_params_for(ds, "24/24"), np.random.default_rng(1), verbose=True
    )
    print(f"[setup] {time.perf_counter() - t0:.1f}s")

    schur = SchurOperator(op, parity=0)

    mg_iters, bi_iters, mg_times, bi_times = [], [], [], []
    for spin in range(4):
        for color in range(3):
            b = SpinorField.point_source(lattice, 0, spin, color)
            t0 = time.perf_counter()
            res = mg.solve(b.data, tol=ds.target_residuum)
            mg_times.append(time.perf_counter() - t0)
            mg_iters.append(res.iterations)

            t0 = time.perf_counter()
            res_bi = bicgstab(
                schur, schur.prepare_source(b.data),
                tol=ds.target_residuum, maxiter=100000,
            )
            bi_times.append(time.perf_counter() - t0)
            bi_iters.append(res_bi.iterations)

    # paper methodology: drop the first solve (autotuning there, cache
    # warmup here) and average the rest
    print(f"\nMG      : {np.mean(mg_iters[1:]):6.1f} iters/solve "
          f"(sigma {np.std(mg_iters[1:]):.1f}), {np.mean(mg_times[1:]):.2f}s/solve")
    print(f"BiCGStab: {np.mean(bi_iters[1:]):6.1f} iters/solve "
          f"(sigma {np.std(bi_iters[1:]):.1f}), {np.mean(bi_times[1:]):.2f}s/solve")
    print(f"iteration reduction: {np.mean(bi_iters) / np.mean(mg_iters):.1f}x")


if __name__ == "__main__":
    main()
