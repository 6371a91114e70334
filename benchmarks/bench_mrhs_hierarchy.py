"""K-scaling of the full-hierarchy multi-RHS solve (Section 9).

The Richtmann–Meyer–Wettig MRHS argument (arXiv:2211.13719): batching
only the fine grid leaves the coarse levels running one right-hand
side at a time, and Amdahl eats the win.  The solve computes on a
stack on every level
(:meth:`repro.mg.solver.MultigridSolver.solve_multi`): every level's
matrices are read once per cycle for all K systems, so the wall-clock
per right-hand side must *fall* as K grows — throughput superlinear in
the number of solves dispatched.

Dual-mode module: runs under ``pytest benchmarks/`` with the shared
``repro.bench/v1`` envelope plumbing, and as a standalone script
(``python benchmarks/bench_mrhs_hierarchy.py [--quick]``) for the CI
perf-smoke step, which needs no pytest install.
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from repro.dirac import WilsonCloverOperator
from repro.mg import MultigridSolver
from repro.workloads import ANISO40_SCALED, mg_params_for

try:
    import pytest
except ImportError:  # the CI smoke step installs numpy only
    pytest = None

K_VALUES = (1, 2, 4, 8)


def run_mrhs_bench(
    ks: tuple[int, ...] = K_VALUES,
    null_iters: int = 40,
    tol: float = 5e-6,
    repeats: int = 2,
) -> dict:
    """Solve a stack of K systems for each K in ``ks``.

    Returns ``{"rows": [...], ...}`` with per-K wall/per-RHS/throughput
    numbers; the setup (null vectors, Galerkin, gathered link stacks) is
    built once and shared, matching how the serve tier amortizes it.
    """
    ds = ANISO40_SCALED
    op = WilsonCloverOperator(ds.gauge(), **ds.operator_kwargs())
    solver = MultigridSolver(
        op, mg_params_for(ds, "24/24", null_iters=null_iters),
        np.random.default_rng(1),
    )
    rng = np.random.default_rng(7)
    kmax = max(ks)
    shape = (kmax, ds.lattice().volume, 4, 3)
    bs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    # warm-up: builds the gathered link stacks outside the timing
    solver.solve_multi(bs[:1], tol=tol)

    rows: list[dict] = []
    for k in ks:
        best = float("inf")
        results = None
        for _ in range(max(repeats, 1)):
            t0 = time.perf_counter()
            results = solver.solve_multi(bs[:k], tol=tol)
            best = min(best, time.perf_counter() - t0)
        assert results is not None
        rows.append(
            {
                "k": k,
                "wall_s": best,
                "per_rhs_s": best / k,
                "rhs_per_s": k / best,
                "iterations": max(r.iterations for r in results),
                "all_converged": all(r.converged for r in results),
            }
        )
    base = next((r["per_rhs_s"] for r in rows if r["k"] == 1), None)
    for row in rows:
        row["speedup_per_rhs"] = (
            round(base / row["per_rhs_s"], 3) if base else None
        )
    return {"dataset": ds.label, "tol": tol, "null_iters": null_iters,
            "rows": rows}


def render_table(doc: dict) -> str:
    lines = [
        f"mrhs hierarchy K-scaling — {doc['dataset']}, tol {doc['tol']:.0e}",
        f"{'K':>4} {'wall_s':>9} {'per_rhs_s':>10} {'rhs/s':>8} "
        f"{'speedup':>8} {'iters':>6} {'conv':>5}",
    ]
    for r in doc["rows"]:
        lines.append(
            f"{r['k']:>4} {r['wall_s']:>9.3f} {r['per_rhs_s']:>10.3f} "
            f"{r['rhs_per_s']:>8.2f} {r['speedup_per_rhs'] or '-':>8} "
            f"{r['iterations']:>6} {str(r['all_converged']):>5}"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# pytest entry points
# ----------------------------------------------------------------------
if pytest is not None:

    pytestmark = pytest.mark.mrhs

    @pytest.fixture(scope="module")
    def mrhs_doc():
        return run_mrhs_bench()

    def test_bench_mrhs_hierarchy(mrhs_doc, capsys):
        """Record the K-scaling sweep into the bench envelope."""
        from _shared import record_row

        for row in mrhs_doc["rows"]:
            record_row(
                "mrhs_hierarchy",
                benchmark=f"batched_solve.k{row['k']}",
                seconds=row["per_rhs_s"],
                wall_s=row["wall_s"],
                rhs_per_s=round(row["rhs_per_s"], 3),
                speedup_per_rhs=row["speedup_per_rhs"],
                iterations=row["iterations"],
            )
        with capsys.disabled():
            print()
            print(render_table(mrhs_doc))
        assert all(r["all_converged"] for r in mrhs_doc["rows"])

    def test_k8_per_rhs_strictly_below_k1(mrhs_doc):
        """The acceptance bar: batching the full hierarchy must pay."""
        per = {r["k"]: r["per_rhs_s"] for r in mrhs_doc["rows"]}
        assert per[8] < per[1], (
            f"per-RHS time at K=8 ({per[8]:.3f}s) not below K=1 "
            f"({per[1]:.3f}s)"
        )

    def test_throughput_superlinear_past_k1(mrhs_doc):
        """rhs/s at K=8 beats K * the K=1 rate's linear extrapolation."""
        rate = {r["k"]: r["rhs_per_s"] for r in mrhs_doc["rows"]}
        assert rate[8] > rate[1], "batched throughput did not scale"


# ----------------------------------------------------------------------
# standalone script (CI perf-smoke)
# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="K-scaling benchmark for the batched multi-RHS hierarchy"
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="smaller sweep (K in {1,4,8}, cheaper setup) for CI smoke",
    )
    parser.add_argument(
        "--repeats", type=int, default=None,
        help="timing repeats per K (best-of; default 2, quick 1)",
    )
    args = parser.parse_args(argv)
    if args.quick:
        doc = run_mrhs_bench(
            ks=(1, 4, 8), null_iters=25, repeats=args.repeats or 1
        )
    else:
        doc = run_mrhs_bench(repeats=args.repeats or 2)
    print(render_table(doc))

    from _shared import write_bench_document

    rows = [
        {
            "benchmark": f"batched_solve.k{r['k']}",
            "seconds": r["per_rhs_s"],
            "wall_s": r["wall_s"],
            "rhs_per_s": round(r["rhs_per_s"], 3),
            "speedup_per_rhs": r["speedup_per_rhs"],
            "iterations": r["iterations"],
        }
        for r in doc["rows"]
    ]
    written = write_bench_document(
        "mrhs_hierarchy", rows,
        meta={"dataset": doc["dataset"], "tol": doc["tol"],
              "null_iters": doc["null_iters"], "quick": bool(args.quick)},
    )
    per = {r["k"]: r["per_rhs_s"] for r in doc["rows"]}
    if per.get(8, 0.0) >= per.get(1, float("inf")):
        print("WARNING: per-RHS time at K=8 not below K=1")
        return 1
    print(f"\nok: per-RHS at K=8 is {per[1] / per[8]:.2f}x faster than K=1")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
