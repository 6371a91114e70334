"""Sweep the cache-block length of the production Wilson-Clover kernel,
and the one alternative formulation of its link multiply.

``repro.dirac.wilson_kernel.BLOCK`` is a constant, not an option; this
script is how its value was chosen and how to re-check it on another
host.  It times one parity-to-parity hop sum (the kernel's hot loop) at
K=1 and K=8 on V=1024 (4^3x16, the quick-bench lattice) and V=8192
(8^3x16) for a range of block lengths, interleaving the candidates so
host speed steps hit all of them alike, and prints the minimum and
median per right-hand side.  The kernel exists per dtype and the
temporaries of a complex64 block are half as large, so the sweep takes
the dtype (default: both); one constant has to serve both.

For K > 1 it also times :func:`hop_k_folded`, the formulation ROADMAP
item 3 asked about: instead of looping the right-hand sides inside each
block (every link slab re-read from L2 K times), the batch sits next to
the direction and site axes, ``(3, 2, K, 8, block')``, and one broadcast
multiply-add per source colour serves all K systems.  It lives here and
not in ``src/``: at its best ``block'`` it measured 1.1-1.5x *slower*
than the loop at the production block (the pass waits on NumPy's complex
multiply, not on the link), so there is one formulation.  DESIGN.md
section 17 records one run of each.

    PYTHONPATH=src python tools/sweep_wilson_block.py [--smoke] [complex128|complex64 ...]
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from repro.dirac import WilsonCloverOperator, wilson_kernel
from repro.gauge import disordered_field
from repro.lattice import NDIM, Lattice

LATTICES = ((4, 4, 4, 16), (8, 8, 8, 16))
BLOCKS = (64, 128, 256, 512, 1024, 2048, 4096)
BATCHES = (1, 8)
ROUNDS = 15


def hop_k_folded(kernel, parity: int, src: np.ndarray) -> np.ndarray:
    """``kernel.hop(parity, src)`` with the batch folded into the link
    multiply: the compressed source is held ``(3, 2, K, 8 V/2)`` —
    colour, half-spin, right-hand side, direction x site — so one gather
    and three multiply-adds over ``(3, 2, K, 8, block')`` replace the K
    passes of the production loop; the link slab broadcasts along K."""
    k, vh = src.shape[0], kernel.half_volume
    compressed = np.ascontiguousarray(
        np.matmul(kernel._compress, src.reshape(k * 3, 4, vh))
        .reshape(k, 3, 2, 2 * NDIM * vh)
        .transpose(1, 2, 0, 3)
    )
    out = np.empty((k, 3, 4, vh), dtype=kernel.dtype)
    for (lo, hi), links, gather in zip(
        kernel._bounds, kernel._links[parity], kernel._gather[parity]
    ):
        n = hi - lo
        # the production loop's temporaries, K times as large
        nbr = np.empty((3, 2, k, 2 * NDIM * n), dtype=kernel.dtype)
        by_colour = nbr.reshape(3, 1, 2, k, 2 * NDIM, n)
        acc = np.empty((3, 2, k, 2 * NDIM, n), dtype=kernel.dtype)
        tmp = np.empty_like(acc)
        # (row, half-spin, 1, direction, site): the slab broadcasts along K
        u0, u1, u2 = (links[b][:, :, None] for b in range(3))
        np.take(compressed, gather, axis=3, out=nbr, mode="clip")
        np.multiply(u0, by_colour[0], out=acc)
        np.multiply(u1, by_colour[1], out=tmp)
        np.add(acc, tmp, out=acc)
        np.multiply(u2, by_colour[2], out=tmp)
        np.add(acc, tmp, out=acc)
        out[..., lo:hi] = np.matmul(
            kernel._reconstruct, acc.transpose(2, 0, 1, 3, 4).reshape(k, 3, 4 * NDIM, n)
        )
    return out


def sweep(dtype: np.dtype, smoke: bool) -> None:
    lattices, blocks, rounds = LATTICES, BLOCKS, ROUNDS
    if smoke:
        lattices, blocks, rounds = LATTICES[:1], (128, 512), 2
    for dims in lattices:
        lat = Lattice(dims)
        gauge = disordered_field(lat, np.random.default_rng(0), 0.5)
        op = WilsonCloverOperator(gauge, mass=-0.2, c_sw=1.0, anisotropy=3.5)
        kernels = {}
        production = wilson_kernel.BLOCK
        try:
            for block in blocks:
                if block > lat.half_volume:
                    continue  # same as one block of the whole half volume
                wilson_kernel.BLOCK = block
                kernels[block] = wilson_kernel.WilsonKernel(op, dtype)
        finally:
            wilson_kernel.BLOCK = production
        rng = np.random.default_rng(1)
        print(f"{dtype.name} {lat!r}: half volume {lat.half_volume}")
        for k in BATCHES:
            shape = (k, 3, 4, lat.half_volume)
            src = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).astype(dtype)
            forms = {"loop": lambda kernel: kernel.hop(0, src)}
            if k > 1:
                forms["K-folded"] = lambda kernel: hop_k_folded(kernel, 0, src)
                for kernel in kernels.values():
                    want = kernel.hop(0, src)
                    err = np.abs(hop_k_folded(kernel, 0, src) - want).max()
                    if err > 50 * np.finfo(dtype).eps * np.abs(want).max():
                        raise SystemExit(f"K-folded hop differs from the kernel's: {err:.2e}")
            repeats = max(1, 10240 // (k * lat.half_volume))
            samples = {(form, block): [] for form in forms for block in kernels}
            for _ in range(rounds):
                for (form, block), values in samples.items():
                    begin = time.perf_counter()
                    for _ in range(repeats):
                        forms[form](kernels[block])
                    values.append((time.perf_counter() - begin) / (repeats * k))
            for (form, block), values in samples.items():
                print(
                    f"  K={k} {form:>8} block={block:5d}  min {min(values) * 1e3:7.3f}"
                    f"  median {np.median(values) * 1e3:7.3f}  ms per RHS"
                )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="one lattice, two blocks, two rounds")
    parser.add_argument("dtypes", nargs="*", default=["complex128", "complex64"])
    args = parser.parse_args(argv)
    for name in args.dtypes:
        dtype = np.dtype(name)
        if dtype.kind != "c":
            raise SystemExit(f"not a complex dtype: {dtype.name}")
        sweep(dtype, args.smoke)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
