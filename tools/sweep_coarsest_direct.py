"""Sweep the direct coarsest-grid solve against the GCR it replaces.

``repro.dirac.mrhs.DIRECT_MAX_UNKNOWNS`` is a constant and the stored
form of the factor (LU, solved by BLAS ``trsv`` / ``trsm``) is not an
option; this script is how both were chosen and how to re-check them on
another host.  On the coarsest lattices of the two benchmark
configurations (2^4, the 24/24 workloads; 2^3x4, ``coarse_heavy``) and
N = 12..256 degrees of freedom per site it times, in the cycle's
complex64:

* first use: assembling the red-black Schur matrix from the blocks,
  ``lu_factor``, and the explicit inverse (``scipy.linalg.inv``);
* one coarsest solve of a K=1 and a K=8 stack, four ways: the red-black
  GCR of the cycle (``tol=0.25, maxiter=16, nkrylov=10``), LAPACK's
  ``getrs`` (``scipy.linalg.lu_solve``), the production
  ``BatchedCoarseSchur.solve_multi`` (the same factors through ``trsv``
  at K=1 and ``trsm`` above) and one GEMM against the explicit inverse;

and prints the break-even, in coarsest solves, of the LU and the inverse
form against GCR (a solve of the outer system runs one per level-1
iteration, ~5 on the 24/24 benchmark configuration, a 12-column
propagator ~65) and of the inverse's extra first-use cost
against the production solve.  The candidates of one size are
interleaved so that host speed steps hit all of them alike.  The operator is synthetic — random dense blocks with a
dominant site term, scaled so that the GCR needs the 4-7 iterations the
Galerkin operators of the benchmark need (printed) — because timings
depend on sizes, not values.  DESIGN.md section 20 records one run.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tools/sweep_coarsest_direct.py [--smoke]
"""

from __future__ import annotations

import sys
import time

import numpy as np
import scipy.linalg

from repro.coarse import CoarseOperator
from repro.dirac.mrhs import DIRECT_MAX_UNKNOWNS, BatchedCoarseSchur
from repro.lattice import NDIM, Lattice
from repro.perf.ledger import time_repeats
from repro.solvers.gcr import lockstep_gcr

LATTICES = ((2, 2, 2, 2), (2, 2, 2, 4))
DOFS = (12, 24, 48, 64, 96, 128, 256)
BATCHES = (1, 8)
ROUNDS = 9
DTYPE = np.dtype(np.complex64)
#: off-diagonal weight of the synthetic blocks: the GCR of the cycle then
#: takes the benchmark operators' iteration counts
HOP_WEIGHT = 0.22


def synthetic_operator(lattice: Lattice, n: int, rng) -> CoarseOperator:
    def blocks(*shape):
        return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(n)

    x = np.eye(n) + HOP_WEIGHT * blocks(lattice.volume, n, n)
    hop = HOP_WEIGHT * blocks(NDIM, 2, lattice.volume, n, n)
    return CoarseOperator(lattice, x, hop, ns=2, nc=n // 2)


def _solves(cost_s: float, saving_s: float) -> str:
    """Solves after which a one-off ``cost_s`` is repaid by ``saving_s`` each."""
    return f"{cost_s / saving_s:6.1f}" if saving_s > 0 else " never"


def _median_time(fn, rounds: int) -> float:
    return float(np.median(time_repeats(fn, rounds, warmup=0)))


def sweep(dims, n: int, rng, rounds: int = ROUNDS) -> None:
    lattice = Lattice(dims)
    schur = BatchedCoarseSchur(synthetic_operator(lattice, n, rng))
    size = schur.unknowns
    schur._at(DTYPE)  # noqa: SLF001 — the GCR path needs the tables too
    schur._factor(DTYPE)  # noqa: SLF001 — production solves are timed warm
    first_rounds = 3 if size > 2048 else 5
    assemble_s = _median_time(lambda: schur.to_dense(DTYPE), first_rounds)
    dense = schur.to_dense(DTYPE)
    lu_s = _median_time(lambda: scipy.linalg.lu_factor(dense, check_finite=False), first_rounds)
    inv_s = _median_time(lambda: scipy.linalg.inv(dense, check_finite=False), first_rounds)
    factors = scipy.linalg.lu_factor(dense, check_finite=False)
    inverse = scipy.linalg.inv(dense, check_finite=False)
    print(
        f"{lattice!r} N={n:3d} n={size:5d}  first use: assemble {assemble_s * 1e3:8.2f}"
        f"  lu_factor {lu_s * 1e3:8.2f}  inverse {inv_s * 1e3:8.2f} ms"
        f"  ({size * size * DTYPE.itemsize / 2**20:.1f} MB)"
    )
    for k in BATCHES:
        shape = (k, lattice.half_volume, 2, n // 2)
        rhs = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).astype(DTYPE)
        flat = rhs.reshape(k, -1)
        iterations = []

        def gcr():
            results = lockstep_gcr(schur, rhs, tol=0.25, maxiter=16, nkrylov=10)
            iterations.append(np.mean([res.iterations for res in results]))
            return np.stack([res.x for res in results])

        candidates = {
            "gcr": gcr,
            "getrs": lambda: scipy.linalg.lu_solve(factors, flat.T, check_finite=False).T,
            "solve_multi": lambda: schur.solve_multi(rhs).reshape(k, -1),
            "gemm": lambda: np.matmul(flat, inverse.T),
        }
        want = np.linalg.solve(dense.astype(np.complex128), flat.T).T
        for name in ("getrs", "solve_multi", "gemm"):
            err = np.linalg.norm(candidates[name]() - want) / np.linalg.norm(want)
            assert err < 1e-3, (name, err)
        samples = {name: [] for name in candidates}
        repeats = max(1, 2048 // size)
        for _ in range(rounds):
            for name, fn in candidates.items():
                begin = time.perf_counter()
                for _ in range(repeats):
                    fn()
                samples[name].append((time.perf_counter() - begin) / repeats)
        med = {name: float(np.median(values)) for name, values in samples.items()}
        even_lu = _solves(assemble_s + lu_s, med["gcr"] - med["solve_multi"])
        even_inv = _solves(assemble_s + inv_s, med["gcr"] - med["gemm"])
        inv_vs_lu = _solves(inv_s - lu_s, med["solve_multi"] - med["gemm"])
        print(
            f"    K={k}  gcr {med['gcr'] * 1e3:7.3f} ({np.mean(iterations):.1f} it)"
            f"  getrs {med['getrs'] * 1e3:7.3f}  solve_multi {med['solve_multi'] * 1e3:7.3f}"
            f"  gemm {med['gemm'] * 1e3:7.3f} ms"
            f"  | break-even vs gcr: lu {even_lu}  inverse {even_inv} solves"
            f"  | inverse over lu: {inv_vs_lu} solves"
        )


def main(argv: list[str]) -> None:
    smoke = argv == ["--smoke"]  # one lattice, two sizes, two rounds
    if argv and not smoke:
        raise SystemExit(f"usage: {sys.argv[0]} [--smoke]")
    print(f"DIRECT_MAX_UNKNOWNS = {DIRECT_MAX_UNKNOWNS}; {DTYPE.name}")
    rng = np.random.default_rng(0)
    for dims in LATTICES[:1] if smoke else LATTICES:
        for n in DOFS[:2] if smoke else DOFS:
            sweep(dims, n, rng, rounds=2 if smoke else ROUNDS)


if __name__ == "__main__":
    main(sys.argv[1:])
