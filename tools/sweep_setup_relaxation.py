"""Sweep the setup's relaxation: red-black (production) against full-system.

``repro.mg.setup.generate_null_vectors`` relaxes the red-black (Schur)
system of every level; there is no option for anything else.  This
script is where that choice was measured and how to re-check it: over
dataset x strategy x ``null_iters`` x setup seed it builds the hierarchy
twice — with the relaxation in ``src/`` and with the full-system
relaxation ``M y = M x0`` the setup ran until PR 17, which lives *here*
(:func:`full_system_null_vectors`, swapped in for the duration of a
build by :func:`full_system_relaxation`) — from the same generator state,
and prints per build: the iterations each level's relaxation ran, the
setup seconds, and the outer iterations of two right-hand sides (every
solution's residual is recomputed and checked against 1.5 x tol).
DESIGN.md section 21 records one run.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tools/sweep_setup_relaxation.py [--smoke]

``tests/test_redblack_setup.py`` builds "the parent's null space" with
the same two functions.
"""

from __future__ import annotations

import argparse
import contextlib
import time

import numpy as np

from repro.coarse import CoarseOperator
from repro.dirac import WilsonCloverOperator
from repro.fields import SpinorField
from repro.mg import MultigridSolver, hierarchy, setup
from repro.precision import COMPLEX128
from repro.dirac.stencil import apply_stack
from repro.solvers.bicgstab import lockstep_bicgstab
from repro.workloads import SCALED_FOR_PAPER, mg_params_for

DATASETS = ("Aniso40", "Iso48", "Iso64")
STRATEGIES = ("24/24", "24/32", "32/32")
CAPS = (60, 20)
SEEDS = (1, 2, 3)
N_RHS = 2


def full_system_null_vectors(
    op, n_vectors, rng, null_iters=100, ns=None, nc=None, dtype=COMPLEX128, schur=None
):
    """The relaxation of PRs 16-17, signature of
    :func:`repro.mg.setup.generate_null_vectors`: the same ``2 n``
    draws, ``M y = M x0`` on the full lattice to the same floor and cap,
    ``x0 - y`` normalised."""
    ns = ns if ns is not None else op.ns
    nc = nc if nc is not None else op.nc
    shape = (op.lattice.volume, ns, nc)
    x0 = np.empty((n_vectors,) + shape, dtype=np.complex128)
    for field in x0:
        field.real = rng.standard_normal(shape)
        field.imag = rng.standard_normal(shape)
    floor = setup.relaxation_floor(dtype)
    x0 = x0.astype(COMPLEX128 if isinstance(op, CoarseOperator) else dtype, copy=False)
    results = setup.lockstep_bicgstab(op, apply_stack(op, x0), tol=floor, maxiter=null_iters)
    vecs = (x0 - np.stack([res.x for res in results])).astype(np.complex128, copy=False)
    return [vec / np.linalg.norm(vec.ravel()) for vec in vecs]


@contextlib.contextmanager
def full_system_relaxation():
    """Builds inside the block relax the full system."""
    production = hierarchy.generate_null_vectors
    hierarchy.generate_null_vectors = full_system_null_vectors
    try:
        yield
    finally:
        hierarchy.generate_null_vectors = production


@contextlib.contextmanager
def recorded_relaxations():
    """The solver results of every relaxation run inside the block,
    one list (a ``SolveResult`` per system) per level relaxed."""
    runs: list[list] = []

    def recording(*args, **kwargs):
        runs.append(lockstep_bicgstab(*args, **kwargs))
        return runs[-1]

    setup.lockstep_bicgstab = recording
    try:
        yield runs
    finally:
        setup.lockstep_bicgstab = lockstep_bicgstab


def measure(op, ds, params, seed: int, relaxation) -> dict:
    with relaxation(), recorded_relaxations() as runs:
        begin = time.perf_counter()
        solver = MultigridSolver(op, params, np.random.default_rng(seed))
        setup_s = time.perf_counter() - begin
    outer = []
    for rhs in range(N_RHS):
        b = SpinorField.random(ds.lattice(), rng=np.random.default_rng(100 + rhs)).data
        result = solver.solve(b)
        residual = np.linalg.norm(b - op.apply(result.x)) / np.linalg.norm(b)
        if residual > 1.5 * params.outer_tol:
            raise SystemExit(f"{ds.label} seed {seed}: residual {residual:.2e}")
        outer.append(result.iterations)
    spans = [[res.iterations for res in results] for results in runs]
    return {
        "relax": [f"{min(its)}-{max(its)}" for its in spans],
        "setup_s": setup_s,
        "outer": outer,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="one small configuration")
    args = parser.parse_args(argv)
    datasets, strategies, caps, seeds = DATASETS, STRATEGIES, CAPS, SEEDS
    if args.smoke:
        datasets, strategies, caps, seeds = datasets[:1], strategies[:1], (8,), seeds[:1]
    sides = {"full": full_system_relaxation, "red-black": contextlib.nullcontext}
    print(
        f"{'dataset':>8} {'strat':>5} {'cap':>3} {'seed':>4}  "
        + "  ".join(f"{side + ': relax its / setup s / outer':>42}" for side in sides)
    )
    tally = {"fewer": 0, "same": 0, "more": 0}
    for label in datasets:
        ds = SCALED_FOR_PAPER[label]
        op = WilsonCloverOperator(ds.gauge(), **ds.operator_kwargs())
        for strategy in strategies:
            for cap in caps:
                params = mg_params_for(ds, strategy, null_iters=cap)
                for seed in seeds:
                    rows = {
                        side: measure(op, ds, params, seed, relaxation)
                        for side, relaxation in sides.items()
                    }
                    for full, red_black in zip(rows["full"]["outer"], rows["red-black"]["outer"]):
                        verdict = "fewer" if red_black < full else "same" if red_black == full else "more"
                        tally[verdict] += 1
                    cells = "  ".join(
                        f"{'/'.join(row['relax']):>18} {row['setup_s']:>8.3f} {str(row['outer']):>14}"
                        for row in rows.values()
                    )
                    print(f"{ds.label[:8]:>8} {strategy:>5} {cap:>3} {seed:>4}  {cells}")
    print(
        "outer iterations, red-black against full-system relaxation, per solve: "
        + ", ".join(f"{verdict} on {count}" for verdict, count in tally.items())
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
