"""Domain decomposition and halo exchange (paper Sections 4 and 6.5).

Splits a lattice over a simulated process grid, applies the
Wilson-Clover and a Galerkin coarse operator through the halo-exchange
code path, verifies that it agrees with the single-domain operator to
round-off (the single-domain fine apply runs the fused kernel, the
decomposed one composes the site-local term and the gathered hops, so
the two sum in different orders), and prints the communication ledger
— messages, bytes, and the surface-to-volume ratios that govern strong
scaling.

Run:  python examples/domain_decomposition.py
"""

import numpy as np

from repro.coarse import coarsen_operator
from repro.comm import PartitionedOperator
from repro.dirac import WilsonCloverOperator
from repro.gauge import disordered_field
from repro.lattice import Blocking, Lattice, Partition
from repro.transfer import Transfer


#: largest relative difference allowed between the decomposed and the
#: single-domain application: round-off, not a different operator
RTOL = 1e-14


def report(op, lattice, proc_grid, label):
    part = Partition(lattice, proc_grid)
    pop = PartitionedOperator(op, part)
    rng = np.random.default_rng(0)
    shape = (lattice.volume, op.ns, op.nc)
    v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    want = op.apply(v)
    rel = np.linalg.norm(pop.apply(v) - want) / np.linalg.norm(want)
    t = pop.comm.traffic
    local_bytes = lattice.volume // part.num_ranks * op.ns * op.nc * 16
    print(
        f"{label:<10} grid {'x'.join(map(str, proc_grid))}: "
        f"rel. diff={rel:.1e}  msgs={t.messages:4d}  "
        f"sent={t.bytes_sent / 1024:8.1f} KiB  "
        f"surface/volume={t.bytes_sent / max(part.num_ranks * local_bytes, 1):.3f}"
    )
    assert rel <= RTOL, f"{label} {proc_grid}: {rel:.2e} > {RTOL:.0e}"


def main() -> None:
    lattice = Lattice((8, 8, 8, 16))
    gauge = disordered_field(lattice, np.random.default_rng(3), 0.45, smear_steps=1)
    fine = WilsonCloverOperator(gauge, mass=-1.0, c_sw=1.0)

    print("fine-grid Wilson-Clover operator, one application:")
    for grid in [(1, 1, 1, 2), (1, 1, 2, 2), (2, 2, 2, 2), (2, 2, 2, 4)]:
        report(fine, lattice, grid, "fine")

    # build a coarse operator and decompose it too: the surface-to-volume
    # ratio is far worse (the strong-scaling pain of Section 7)
    rng = np.random.default_rng(4)
    shape = (lattice.volume, 4, 3)
    nulls = [
        rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        for _ in range(6)
    ]
    transfer = Transfer(Blocking(lattice, (2, 2, 2, 4)), nulls)
    coarse = coarsen_operator(fine, transfer)
    print(f"\ncoarse operator on {coarse.lattice} (Nc_hat=6), one application:")
    for grid in [(1, 1, 1, 2), (2, 2, 1, 1), (2, 2, 2, 2)]:
        report(coarse, coarse.lattice, grid, "coarse")

    print(
        "\nNote how the coarse level's surface-to-volume ratio approaches 1:"
        "\nat scale, every coarse site is on a boundary — the regime where"
        "\nthe paper's fine-grained parallelization and latency-optimized"
        "\nhalo exchange are essential."
    )


if __name__ == "__main__":
    main()
