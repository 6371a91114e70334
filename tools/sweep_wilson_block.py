"""Sweep the cache-block length of the production Wilson-Clover kernel.

``repro.dirac.wilson_kernel.BLOCK`` is a constant, not an option; this
script is how its value was chosen and how to re-check it on another
host.  It times one parity-to-parity hop sum (the kernel's hot loop) at
K=1 and K=8 on V=1024 (4^3x16, the quick-bench lattice) and V=8192
(8^3x16) for a range of block lengths, interleaving the candidates so
host speed steps hit all of them alike, and prints the minimum and
median per right-hand side.  The kernel exists per dtype and the
temporaries of a complex64 block are half as large, so the sweep takes
the dtype (default: both); one constant has to serve both.  DESIGN.md
section 17 records one run of each.

    PYTHONPATH=src python tools/sweep_wilson_block.py [complex128|complex64 ...]
"""

from __future__ import annotations

import sys
import time

import numpy as np

from repro.dirac import WilsonCloverOperator, wilson_kernel
from repro.gauge import disordered_field
from repro.lattice import Lattice

LATTICES = ((4, 4, 4, 16), (8, 8, 8, 16))
BLOCKS = (64, 128, 256, 512, 1024, 2048, 4096)
BATCHES = (1, 8)
ROUNDS = 15


def sweep(dtype: np.dtype) -> None:
    for dims in LATTICES:
        lat = Lattice(dims)
        gauge = disordered_field(lat, np.random.default_rng(0), 0.5)
        op = WilsonCloverOperator(gauge, mass=-0.2, c_sw=1.0, anisotropy=3.5)
        kernels = {}
        for block in BLOCKS:
            if block > lat.half_volume:
                continue  # same as one block of the whole half volume
            wilson_kernel.BLOCK = block
            kernels[block] = wilson_kernel.WilsonKernel(op, dtype)
        rng = np.random.default_rng(1)
        print(f"{dtype.name} {lat!r}: half volume {lat.half_volume}")
        for k in BATCHES:
            shape = (k, 3, 4, lat.half_volume)
            src = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).astype(dtype)
            repeats = max(1, 10240 // (k * lat.half_volume))
            samples = {block: [] for block in kernels}
            for _ in range(ROUNDS):
                for block, kernel in kernels.items():
                    begin = time.perf_counter()
                    for _ in range(repeats):
                        kernel.hop(0, src)
                    samples[block].append(
                        (time.perf_counter() - begin) / (repeats * k)
                    )
            for block, values in samples.items():
                print(
                    f"  K={k} block={block:5d}  min {min(values) * 1e3:7.3f}"
                    f"  median {np.median(values) * 1e3:7.3f}  ms per RHS"
                )


def main(argv: list[str]) -> None:
    dtypes = [np.dtype(name) for name in argv] or [
        np.dtype(np.complex128), np.dtype(np.complex64)
    ]
    for dtype in dtypes:
        if dtype.kind != "c":
            raise SystemExit(f"not a complex dtype: {dtype.name}")
        sweep(dtype)


if __name__ == "__main__":
    main(sys.argv[1:])
