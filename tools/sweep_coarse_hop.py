"""Sweep the formulations of the dense-block (coarse) hop.

The production kernel, ``repro.dirac.mrhs._DenseBlockHop``, is one
formulation, not an option; this script is how it was chosen and how to
re-check it on another host.  On the level-1 and level-2 shapes of the
two benchmark configurations (``coarse_heavy``: 2^3x8 with N=48 and
2^3x4 with N=64; the 24/24 workloads: 2^3x4 and 2^4 with N=12) it times
the red-black hop from the even to the odd sites — the call every coarse
smoother step, Schur apply, prepare and reconstruct makes — three ways:

* ``per-direction``: one ``(Vo, N, N) @ (Vo, N, K)`` stacked GEMM per
  direction and orientation, eight in all, then the sum — the
  formulation the production kernel replaced, which lives on only here
  (:func:`stacked_hop` over :data:`PER_DIRECTION`, :func:`apply_stacked`);
* ``summed``: the same stacked GEMMs over the *distinct* neighbours
  only, the ``+mu`` and ``-mu`` links of every extent-2 direction summed
  into one block when the table is built;
* ``fused``: summed, with the directions fused into one contraction —
  one gather to ``(Vo, D N, K)`` and one ``(Vo, N, D N)`` GEMM, the
  production kernel.

Each at K = 1, 8 and 2N, in complex64 and complex128, interleaved so
that host speed steps hit all of them alike, and the median per call is
printed.  The operator is synthetic (random blocks): timings depend on
sizes, not values.  DESIGN.md section 26 records one run.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tools/sweep_coarse_hop.py [--smoke]
"""

from __future__ import annotations

import sys
import time

import numpy as np

from repro.coarse import CoarseOperator
from repro.dirac.mrhs import _DenseBlockHop, neighbour_slots
from repro.lattice import NDIM, Lattice

#: (label, coarse lattice, N = 2 x null vectors)
SHAPES = (
    ("coarse_heavy L1", (2, 2, 2, 8), 48),
    ("coarse_heavy L2", (2, 2, 2, 4), 64),
    ("24/24 L1", (2, 2, 2, 4), 12),
    ("24/24 L2", (2, 2, 2, 2), 12),
)
DTYPES = (np.dtype(np.complex64), np.dtype(np.complex128))
ROUNDS = 25


def synthetic_operator(lattice: Lattice, n: int, rng) -> CoarseOperator:
    def blocks(*shape):
        return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(n)

    x = np.eye(n) + blocks(lattice.volume, n, n)
    return CoarseOperator(lattice, x, blocks(NDIM, 2, lattice.volume, n, n), 2, n // 2)


#: every direction and orientation, none summed: the parent formulation
PER_DIRECTION = [(mu, d) for mu in range(NDIM) for d in (0, 1)]


def stacked_hop(op, slots, out_sites, src_sites, dtype):
    """The ``(D, Vo, N, N)`` link stack over ``slots`` (``(mu, None)``
    sums both links of ``mu``) and the ``(D, Vo)`` source positions."""
    lat = op.lattice
    posmap = np.empty(lat.volume, dtype=np.int64)
    posmap[src_sites] = np.arange(len(src_sites))
    blocks, sites = [], []
    for mu, d in slots:
        fwd, bwd = op.hop_blocks[mu]
        blocks.append(fwd[out_sites] + bwd[out_sites] if d is None else (fwd, bwd)[d][out_sites])
        sites.append((lat.bwd[mu] if d == 1 else lat.fwd[mu])[out_sites])
    return np.stack(blocks, dtype=dtype, casting="same_kind"), posmap[np.stack(sites)]


def apply_stacked(links, idx, src):
    """``sum_j Y_j src(nbr_j)`` over a ``(D, Vo, N, N)`` stack."""
    k, vs, ns, nc = src.shape
    flat = src.reshape(k, vs, ns * nc).transpose(1, 2, 0)  # (Vs, N, K)
    out = np.matmul(links, flat[idx]).sum(axis=0)          # (Vo, N, K)
    return np.ascontiguousarray(out.transpose(2, 0, 1)).reshape(k, idx.shape[1], ns, nc)


def sweep(label, dims, n, dtype, batches, rounds, rng) -> None:
    lattice = Lattice(dims)
    op = synthetic_operator(lattice, n, rng)
    out_sites, src_sites = lattice.sites_of_parity(1), lattice.sites_of_parity(0)
    per_dir = stacked_hop(op, PER_DIRECTION, out_sites, src_sites, dtype)
    summed = stacked_hop(op, neighbour_slots(lattice), out_sites, src_sites, dtype)
    fused = _DenseBlockHop(op, out_sites, src_sites, dtype=dtype)
    candidates = {
        "per-direction": lambda src: apply_stacked(*per_dir, src),
        "summed": lambda src: apply_stacked(*summed, src),
        "fused": fused.apply,
    }
    tol = 1e-4 if dtype == np.complex64 else 1e-12
    for k in batches:
        shape = (k, len(src_sites), 2, n // 2)
        src = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).astype(dtype)
        want = candidates["per-direction"](src)
        for name, fn in candidates.items():
            err = np.linalg.norm(fn(src) - want) / np.linalg.norm(want)
            assert err < tol, (name, err)
        repeats = max(1, 4096 // (k * n))
        samples = {name: [] for name in candidates}
        for _ in range(rounds):
            for name, fn in candidates.items():
                begin = time.perf_counter()
                for _ in range(repeats):
                    fn(src)
                samples[name].append((time.perf_counter() - begin) / repeats)
        med = {name: float(np.median(values)) * 1e6 for name, values in samples.items()}
        print(
            f"{label:16s} {lattice!r:24s} N={n:2d} D={len(fused.slots)} {dtype.name:10s}"
            f" K={k:3d}  per-direction {med['per-direction']:9.1f}"
            f"  summed {med['summed']:9.1f}  fused {med['fused']:9.1f} us"
            f"  ({med['per-direction'] / med['fused']:.2f}x)"
        )


def main(argv: list[str]) -> None:
    smoke = argv == ["--smoke"]  # one shape, one dtype, two rounds
    if argv and not smoke:
        raise SystemExit(f"usage: {sys.argv[0]} [--smoke]")
    rng = np.random.default_rng(0)
    for label, dims, n in SHAPES[:1] if smoke else SHAPES:
        for dtype in DTYPES[:1] if smoke else DTYPES:
            batches = (1, 8) if smoke else (1, 8, 2 * n)
            sweep(label, dims, n, dtype, batches, 2 if smoke else ROUNDS, rng)


if __name__ == "__main__":
    main(sys.argv[1:])
