"""Time a restore of a persisted setup, and the first solve after one
against the first solve after a cold build.

``repro.serve.cache`` persists a built hierarchy as one setup file: a
checksummed prelude and JSON header, then the arrays of
``MultigridHierarchy.arrays()`` *and* of ``streamed_arrays()`` — what
the cycle streams at the configured precisions — which a restore maps
read-only, and holds instead of building on first use.  On the two
benchmark configurations (the Aniso40-scaled 24/24 setup of the first
three workloads and the paper-size ``coarse_heavy`` one) this script
persists one built hierarchy and, round by round, times:

* a restore: hash the live operator's fingerprints, map and checksum
  the file, check them and assemble the hierarchy with ``from_arrays``
  (a fresh cache's disk hit);
* the checksum alone — one ``uint64`` word sum over the mapped file —
  and its share of a restore;
* the first solve after the restore and the first solve after a cold
  build (a memory-only ``MultigridHierarchy.build``, untimed), each
  over the median warm solve of the same hierarchy: the cold build's
  first solve gathers the coarse tables, casts the reduced copies and
  factors the coarsest system; the restore's builds none of them.

The fine operator is the one the hierarchy was built on, as in the
service and the repo benchmark, so its kernel tables exist before any
restore.  The median of each is printed.  DESIGN.md section 29 records
one run.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tools/sweep_restore.py [--smoke]
"""

from __future__ import annotations

import dataclasses
import mmap
import os
import sys
import tempfile
import time

import numpy as np

from repro.dirac.wilson import WilsonCloverOperator
from repro.mg import MultigridHierarchy, MultigridSolver
from repro.serve.cache import SetupCache, _word_sum, setup_cache_key
from repro.workloads.datasets import ANISO40_SCALED
from repro.workloads.presets import mg_params_for

ROUNDS = 9
WARM_SOLVES = 5


def configurations(smoke: bool):
    """``(label, dataset, params)`` of the two benchmark configurations;
    smoke relaxes twice and halves the paper-size subspace."""
    paper = dataclasses.replace(
        ANISO40_SCALED, null_scale=2 if smoke else 1,
        blockings=[(2, 2, 2, 2), (1, 1, 1, 2)],
    )
    for label, ds, strategy, null_iters in (
        ("24/24", ANISO40_SCALED, "24/24", 60),
        ("coarse_heavy", paper, "24/32", 6),
    ):
        params = mg_params_for(ds, strategy, null_iters=2 if smoke else null_iters)
        params.outer_tol = 1e-1 if smoke else ds.target_residuum
        yield label, ds, params


def mapped_restore(disk_dir: str, op, params) -> MultigridHierarchy:
    """The production restore: a fresh cache's disk hit."""
    cache = SetupCache(disk_dir=disk_dir)
    hierarchy = cache.get_or_build(op, params)
    assert cache.stats["disk_hits"] == 1
    return hierarchy


def checksum(path: str) -> int:
    """Map the setup file and sum its words, as a restore does first."""
    with open(path, "rb") as fh:
        view = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    return _word_sum(np.frombuffer(view, np.uint8, offset=16))


def timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - t0, out


def first_over_warm(hierarchy, params, b) -> float:
    """The first solve on ``hierarchy`` over the median warm one."""
    solver = MultigridSolver.from_hierarchy(hierarchy, params)
    first, _ = timed(solver.solve, b, params.outer_tol)
    warm = [timed(solver.solve, b, params.outer_tol)[0] for _ in range(WARM_SOLVES)]
    return first / float(np.median(warm))


def sweep(label, ds, params, rounds: int, workdir: str) -> None:
    op = WilsonCloverOperator(ds.gauge(), **ds.operator_kwargs())
    built = MultigridHierarchy.build(op, params, np.random.default_rng(1))
    disk_dir = os.path.join(workdir, label.replace("/", "-"))
    SetupCache(disk_dir=disk_dir).seed(op, params, built)
    path = os.path.join(disk_dir, f"mgsetup-{setup_cache_key(op, params)}.npz")
    rng = np.random.default_rng(2)
    shape = (op.lattice.volume, op.ns, op.nc)
    b = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    MultigridSolver.from_hierarchy(built, params).solve(b, tol=params.outer_tol)
    samples = {key: [] for key in ("restore", "checksum")}
    ratios = {"cold": [], "restored": []}
    for _ in range(rounds):
        cold = MultigridHierarchy.build(op, params, np.random.default_rng(1))
        ratios["cold"].append(first_over_warm(cold, params, b))
        seconds, restored = timed(mapped_restore, disk_dir, op, params)
        samples["restore"].append(seconds)
        ratios["restored"].append(first_over_warm(restored, params, b))
        samples["checksum"].append(timed(checksum, path)[0])
    med = {key: float(np.median(values)) for key, values in samples.items()}
    print(
        f"{label:>12}  {os.path.getsize(path) / 1e6:7.1f}  {med['restore']:9.4f}  "
        f"{med['checksum']:9.4f} {med['checksum'] / med['restore']:6.0%}  "
        f"{np.median(ratios['cold']):9.2f}x {np.median(ratios['restored']):9.2f}x"
    )


def main(argv: list[str]) -> None:
    smoke = argv == ["--smoke"]  # cheap setups, two rounds
    if argv and not smoke:
        raise SystemExit(f"usage: {sys.argv[0]} [--smoke]")
    print(
        f"{'config':>12}  {'MB':>7}  {'restore s':>9}  {'checksum':>9} {'share':>6}  "
        f"{'1st/warm':>10} {'1st/warm':>10}"
    )
    print(f"{'':>12}  {'':>7}  {'':>9}  {'s':>9} {'':>6}  {'(cold)':>10} {'(restored)':>10}")
    with tempfile.TemporaryDirectory(prefix="sweep-restore-") as workdir:
        for label, ds, params in configurations(smoke):
            sweep(label, ds, params, 2 if smoke else ROUNDS, workdir)


if __name__ == "__main__":
    main(sys.argv[1:])
