"""Sweep the per-system reductions and updates of the lockstep loops.

The lockstep Krylov loops (the MR smoother, ``lockstep_gcr``,
``lockstep_bicgstab``) advance K independent systems together; each
iteration needs K inner products and K vector updates.  The production
reduction, ``repro.solvers.base.batch_dot``, is one ``np.vecdot`` over
the stack: a BLAS ``?dotc`` per block of at most ``DOT_BLOCK`` elements
of each system's row, the same for a system at every K.  The
production update is the
elementwise broadcast ``y += alpha[:, None, ...] * x``, already the
same per system at every K.  This script is how both were chosen and
how to re-check them on another host.  It times:

* reductions: the one-pass ``einsum("ki,ki->k", conj(a), b)`` all three
  loops used before (BiCGStab's ``fused_dot`` was the last; the form
  lives on only here), one ``np.vdot`` per system in a
  Python loop, and ``batch_dot`` (bitwise the ``np.vdot`` of a row of
  up to ``DOT_BLOCK`` elements);
* updates: the broadcast against one in-place ``scipy.linalg.blas``
  ``?axpy`` per system.  ``?axpy`` is faster with BLAS pinned to one
  thread but runs in SciPy's own OpenBLAS, whose thread pool contends
  with NumPy's when threads are not pinned (DESIGN.md section 28), so
  the loops do not use it.

Shapes are the benchmark's per-system vectors: the fine half lattice
(V/2 = 512) and the fine full lattice (V = 1024) of the 24/24
workloads, and ``coarse_heavy``'s level-1 half lattice (32 sites,
N = 48); each at K = 1, 8 and 24 in complex64 and complex128,
interleaved so that host speed steps hit all forms alike.  The median
per call is printed.  DESIGN.md section 28 records one run.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tools/sweep_lockstep_blas1.py [--smoke]
"""

from __future__ import annotations

import sys
import time

import numpy as np
import scipy.linalg.blas

from repro.solvers.base import batch_dot, per_system

#: (label, per-system shape)
SHAPES = (
    ("fine half", (512, 4, 3)),
    ("fine full", (1024, 4, 3)),
    ("coarse", (32, 2, 24)),
)
DTYPES = (np.dtype(np.complex64), np.dtype(np.complex128))
BATCHES = (1, 8, 24)
ROUNDS = 25


def einsum_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The stack-fused form the three loops replaced: one pass over a
    conjugated copy, rounded differently at every K."""
    k = a.shape[0]
    return np.einsum("ki,ki->k", np.conj(a.reshape(k, -1)), b.reshape(k, -1))


def vdot_loop(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """One ``np.vdot`` per system, called from Python."""
    k = a.shape[0]
    rows_a, rows_b = a.reshape(k, -1), b.reshape(k, -1)
    return np.array([np.vdot(rows_a[i], rows_b[i]) for i in range(k)])


def broadcast_update(alpha: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The loops' update: elementwise over the stack."""
    y += per_system(alpha, y) * x
    return y


def blas_axpy(alpha: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """One in-place SciPy ``?axpy`` per system."""
    k = y.shape[0]
    axpy = scipy.linalg.blas.get_blas_funcs("axpy", dtype=y.dtype)
    for a, row_x, row_y in zip(alpha.tolist(), x.reshape(k, -1), y.reshape(k, -1)):
        axpy(row_x, row_y, a=a)
    return y


def _per_call(fn, repeats: int) -> float:
    begin = time.perf_counter()
    for _ in range(repeats):
        fn()
    return (time.perf_counter() - begin) / repeats


def sweep(label, shape, dtype, batches, rounds, rng) -> None:
    eps = np.finfo(dtype).eps
    for k in batches:
        full = (k,) + shape

        def field():
            return (rng.standard_normal(full) + 1j * rng.standard_normal(full)).astype(dtype)

        a, b = field(), field()
        alpha = (rng.standard_normal(k) + 1j * rng.standard_normal(k)).astype(dtype)
        n = a[0].size
        # batch_dot is each system's own, within the dot-product error
        # bound of the einsum reference
        alone = np.array([batch_dot(a[i : i + 1].copy(), b[i : i + 1].copy())[0] for i in range(k)])
        assert np.array_equal(batch_dot(a, b), alone), (label, k, dtype)
        scale = einsum_dot(np.abs(a), np.abs(b)).real
        err = np.abs(batch_dot(a, b) - einsum_dot(a, b))
        assert np.all(err <= 2 * n * eps * scale), (label, k, dtype)
        y1, y2 = b.copy(), b.copy()
        err = np.abs(blas_axpy(alpha, a, y1) - broadcast_update(alpha, a, y2)).max()
        assert err <= 8 * eps * (np.abs(b).max() + np.abs(alpha).max() * np.abs(a).max())
        y1, y2 = b.copy(), b.copy()
        candidates = {
            "einsum": lambda: einsum_dot(a, b),
            "vdot": lambda: vdot_loop(a, b),
            "vecdot": lambda: batch_dot(a, b),
            "broadcast": lambda: broadcast_update(alpha, a, y1),
            "axpy": lambda: blas_axpy(alpha, a, y2),
        }
        repeats = max(1, 2_000_000 // (k * n))
        samples = {name: [] for name in candidates}
        for _ in range(rounds):
            for name, fn in candidates.items():
                samples[name].append(_per_call(fn, repeats))
        med = {name: float(np.median(v)) * 1e6 for name, v in samples.items()}
        print(
            f"{label:10s} {str(full):18s} {dtype.name:10s}"
            f"  einsum {med['einsum']:7.1f}  vdot {med['vdot']:7.1f}"
            f"  vecdot {med['vecdot']:7.1f} ({med['einsum'] / med['vecdot']:.2f}x)"
            f"  broadcast {med['broadcast']:7.1f}  axpy {med['axpy']:7.1f} us"
        )


def main(argv: list[str]) -> None:
    smoke = argv == ["--smoke"]  # one shape, one dtype, two rounds
    if argv and not smoke:
        raise SystemExit(f"usage: {sys.argv[0]} [--smoke]")
    rng = np.random.default_rng(0)
    for label, shape in SHAPES[:1] if smoke else SHAPES:
        for dtype in DTYPES[:1] if smoke else DTYPES:
            sweep(label, shape, dtype, BATCHES[:2] if smoke else BATCHES,
                  2 if smoke else ROUNDS, rng)


if __name__ == "__main__":
    main(sys.argv[1:])
