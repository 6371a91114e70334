"""Time a restore of a persisted setup, and the first solve after one.

``repro.serve.cache`` persists a built hierarchy as one setup file
(format version 3): a checksummed prelude and JSON header, then the
arrays of ``MultigridHierarchy.arrays()`` *and* of ``streamed_arrays()``
— what the cycle streams at the configured precisions — which a restore
maps read-only instead of reading, and holds instead of building on
first use.  Files of format 2 were ``np.savez`` archives of
``arrays()`` alone.  On the two benchmark configurations (the
Aniso40-scaled 24/24 setup of the first three workloads and the
paper-size ``coarse_heavy`` one) this script builds one hierarchy,
writes it both ways and, interleaving the two so that host speed steps
hit both alike, times:

* a restore through each reader: hash the live operator's fingerprints,
  read (archive) or map and checksum (setup file), check them against
  the file and assemble the hierarchy with ``from_arrays``; the archive
  side is the format-2 reader of the cache, without the rewrite a real
  cache does once;
* the checksum alone — one ``uint64`` word sum over the mapped file —
  and its share of a setup-file restore;
* the first solve after each restore, against the median warm solve of
  the same hierarchy: the archive's first solve gathers the coarse
  tables, inverts the site blocks, casts the reduced copies and
  factors the coarsest system; the setup file's builds none of them.

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
from repro.serve.cache import (
    SetupCache,
    _Fingerprints,
    _read_archive,
    _word_sum,
    setup_cache_key,
)
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


def archive_restore(path: str, op, params) -> MultigridHierarchy:
    """The format-2 restore: read the archive, check it, assemble."""
    fps = _Fingerprints.of(op, params)
    header, arrays = _read_archive(path)
    assert all(header[name] == fp for name, fp in fps._asdict().items())
    return MultigridHierarchy.from_arrays(op, params, arrays)


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


def sweep(label, ds, params, rounds: int, workdir: str) -> None:
    op = WilsonCloverOperator(ds.gauge(), **ds.operator_kwargs())
    built = MultigridHierarchy.build(op, params, np.random.default_rng(1))
    disk_dir = os.path.join(workdir, label.replace("/", "-"))
    SetupCache(disk_dir=disk_dir).seed(op, params, built)
    mapped_path = os.path.join(disk_dir, f"mgsetup-{setup_cache_key(op, params)}.npz")
    archive_path = os.path.join(workdir, f"{label.replace('/', '-')}-v2.npz")
    fps = _Fingerprints.of(op, params)
    with open(archive_path, "wb") as fh:
        np.savez(fh, version=2, n_levels=len(params.levels), **fps._asdict(), **built.arrays())
    rng = np.random.default_rng(2)
    shape = (op.lattice.volume, op.ns, op.nc)
    b = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    MultigridSolver.from_hierarchy(built, params).solve(b, tol=params.outer_tol)
    samples = {key: [] for key in ("archive", "mapped", "checksum")}
    ratios = {"archive": [], "mapped": []}
    for _ in range(rounds):
        for side, restore, where in (
            ("archive", archive_restore, archive_path),
            ("mapped", mapped_restore, disk_dir),
        ):
            seconds, hierarchy = timed(restore, where, op, params)
            samples[side].append(seconds)
            solver = MultigridSolver.from_hierarchy(hierarchy, params)
            first, _ = timed(solver.solve, b, params.outer_tol)
            warm = [timed(solver.solve, b, params.outer_tol)[0] for _ in range(WARM_SOLVES)]
            ratios[side].append(first / float(np.median(warm)))
        samples["checksum"].append(timed(checksum, mapped_path)[0])
    med = {key: float(np.median(values)) for key, values in samples.items()}
    print(
        f"{label:>12}  {os.path.getsize(archive_path) / 1e6:7.1f} "
        f"{os.path.getsize(mapped_path) / 1e6:7.1f}  {med['archive']:9.4f} "
        f"{med['mapped']:9.4f} {med['archive'] / med['mapped']:6.1f}x  "
        f"{med['checksum']:9.4f} {med['checksum'] / med['mapped']:6.0%}  "
        f"{np.median(ratios['archive']):8.2f}x {np.median(ratios['mapped']):8.2f}x"
    )


def main(argv: list[str]) -> None:
    smoke = argv == ["--smoke"]  # cheap setups, two rounds
    if argv and not smoke:
        raise SystemExit(f"usage: {sys.argv[0]} [--smoke]")
    print(
        f"{'config':>12}  {'v2 MB':>7} {'v3 MB':>7}  {'v2 read s':>9} "
        f"{'v3 map s':>9} {'gain':>7}  {'checksum':>9} {'share':>6}  "
        f"{'1st/warm':>9} {'1st/warm':>9}"
    )
    print(f"{'':>12}  {'':>7} {'':>7}  {'':>9} {'':>9} {'':>7}  {'s':>9} {'':>6}  "
          f"{'(v2)':>9} {'(v3)':>9}")
    with tempfile.TemporaryDirectory(prefix="sweep-restore-") as workdir:
        for label, ds, params in configurations(smoke):
            sweep(label, ds, params, 2 if smoke else ROUNDS, workdir)


if __name__ == "__main__":
    main(sys.argv[1:])
