"""The paper's Section 9 future-work agenda, exercised end to end.

Four items, each implemented in this library:

1. **Multiple right-hand sides** — batched solves share stencil loads.
2. **CA-GMRES coarse solver** — s-step Krylov trades matvecs for
   synchronizations, attacking the Figure-4 coarsest-level wall.
3. **Schwarz smoothing** — domain-cut relaxation with zero halo traffic.
4. **Heterogeneous placement** — CPU vs GPU per level, autotuned.

Run:  python examples/future_work.py
"""

import time

import numpy as np

from repro.coarse import coarsen_operator
from repro.dirac import WilsonCloverOperator
from repro.gauge import disordered_field
from repro.lattice import Blocking, Lattice, Partition
from repro.machine import (
    MODERN_CPU,
    MachineModel,
    choose_placement,
    mg_level_specs,
)
from repro.mg import SchwarzMRSmoother
from repro.solvers import MRSmoother, batched_gcr, ca_gmres, gcr, gmres
from repro.transfer import Transfer
from repro.workloads import ISO64


def main() -> None:
    rng = np.random.default_rng(9)
    lat = Lattice((4, 4, 4, 8))
    gauge = disordered_field(lat, np.random.default_rng(11), 0.55, smear_steps=1)
    op = WilsonCloverOperator(gauge, mass=-1.406 + 0.03, c_sw=1.0)

    # a coarse operator to play with
    shape = (lat.volume, 4, 3)
    nulls = [rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for _ in range(6)]
    coarse = coarsen_operator(op, Transfer(Blocking(lat, (2, 2, 2, 4)), nulls))
    cshape = (coarse.lattice.volume, 2, 6)

    # -- 1. multiple right-hand sides -------------------------------------
    print("=== multi-RHS: batched vs sequential GCR on the coarse grid ===")
    bs = rng.standard_normal((8,) + cshape) + 1j * rng.standard_normal((8,) + cshape)
    t0 = time.perf_counter()
    batched = batched_gcr(coarse, bs, tol=1e-8, maxiter=800)
    t_b = time.perf_counter() - t0
    t0 = time.perf_counter()
    [gcr(coarse, b, tol=1e-8, maxiter=800) for b in bs]
    t_s = time.perf_counter() - t0
    print(f"8 systems: batched {t_b:.2f}s, sequential {t_s:.2f}s "
          f"({t_s / t_b:.2f}x from operator reuse); all converged: "
          f"{all(r.converged for r in batched)}")

    # -- 2. CA-GMRES -------------------------------------------------------
    print("\n=== CA-GMRES(s): synchronizations on the coarsest grid ===")
    b = rng.standard_normal(cshape) + 1j * rng.standard_normal(cshape)
    res_g = gmres(coarse, b, tol=1e-8, maxiter=600)
    print(f"GMRES      : {res_g.matvecs:4d} matvecs, "
          f"{res_g.telemetry.attrs['reductions']:5d} global reductions")
    for s in (2, 4, 8):
        res = ca_gmres(coarse, b, tol=1e-8, maxiter=600, s=s)
        print(f"CA-GMRES({s}): {res.matvecs:4d} matvecs, "
              f"{res.telemetry.attrs['reductions']:5d} global reductions "
              f"(converged={res.converged})")

    # -- 3. Schwarz smoothing ----------------------------------------------
    print("\n=== Schwarz (halo-free) smoothing vs global MR ===")
    bfine = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    for name, smoother in [
        ("global MR", MRSmoother(op, steps=4)),
        ("Schwarz MR", SchwarzMRSmoother(op, Partition(lat, (1, 1, 2, 2)), steps=4)),
    ]:
        res = gcr(op, bfine, tol=1e-8, maxiter=3000, preconditioner=smoother)
        print(f"{name:>10}: {res.iterations:4d} preconditioned GCR iterations")
    print("(the Schwarz variant pays iterations but sends zero halo bytes"
          "\n while smoothing — the strong-scaling trade of Section 9)")

    # -- 4. heterogeneous placement ----------------------------------------
    print("\n=== per-level CPU/GPU placement (Iso64 at 512 nodes) ===")
    model = MachineModel()
    levels = mg_level_specs(ISO64.dims, ISO64.blockings[64], [24, 32])
    for label, cpu in [("Opteron 6274 (Titan)", None), ("modern 64-core host", MODERN_CPU)]:
        kwargs = {} if cpu is None else {"cpu": cpu}
        placement = choose_placement(model, levels, 512, **kwargs)
        devices = ", ".join(f"L{p.level}={p.device}" for p in placement)
        print(f"{label:>22}: {devices}")
    print("(with the fine-grained GPU mapping, Titan keeps every level on"
          "\n the GPU — the paper's conclusion; a modern cache-rich host"
          "\n reclaims the 2^4 grid, the Section 9 prediction)")


if __name__ == "__main__":
    main()
