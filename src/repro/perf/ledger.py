"""The benchmark ledger: durable, comparable performance measurements.

``repro bench run --suite quick|full`` executes a curated set of
benchmarks (real measured kernels and solves, no models), wraps the
rows in the shared ``repro.bench/v1`` envelope stamped with host + git
metadata, and persists the entry twice:

* **content-addressed ledger** — ``<ledger-dir>/<sha256[:12]>.json``,
  an append-only archive keyed by the entry's own bytes, so re-running
  an identical measurement never clobbers history;
* **committed baseline** — ``BENCH_<suite>.json`` at the repo root, the
  latest entry in-tree, which is what CI diffs a fresh entry against
  with ``repro perf diff`` (:mod:`repro.perf.diff`).

Every benchmark runs ``repeats`` times and records the full sample
list plus median and MAD (median absolute deviation), the robust
statistics the diff gate needs to separate regressions from noise.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import platform
import subprocess
import tempfile
import time
from typing import Callable

import numpy as np

from ..telemetry.export import write_document

BENCH_SCHEMA = "repro.bench/v1"


# ----------------------------------------------------------------------
# the shared envelope (benchmarks/_shared.py re-exports these)
# ----------------------------------------------------------------------
def host_metadata() -> dict:
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def git_metadata(cwd: str | pathlib.Path | None = None) -> dict:
    """Best-effort git revision stamp (empty outside a checkout)."""
    out: dict[str, str] = {}
    for key, args in (
        ("rev", ["git", "rev-parse", "HEAD"]),
        ("branch", ["git", "rev-parse", "--abbrev-ref", "HEAD"]),
    ):
        try:
            res = subprocess.run(
                args,
                cwd=cwd,
                capture_output=True,
                text=True,
                timeout=10,
                check=True,
            )
            out[key] = res.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return out


def bench_document(name: str, rows: list[dict], meta: dict | None = None) -> dict:
    """Wrap benchmark rows in the shared ``repro.bench/v1`` envelope.

    ``rows`` is a list of flat JSON-safe dicts (one measurement each);
    ``meta`` carries free-form context (dataset, parameters).  The
    envelope adds the schema tag and the host it was measured on so
    collected documents are self-describing.
    """
    return {
        "schema": BENCH_SCHEMA,
        "name": name,
        "host": host_metadata(),
        "meta": meta or {},
        "rows": rows,
    }


# ----------------------------------------------------------------------
# measurement helpers
# ----------------------------------------------------------------------
def median_mad(samples: list[float]) -> tuple[float, float]:
    arr = np.asarray(samples, dtype=float)
    med = float(np.median(arr))
    return med, float(np.median(np.abs(arr - med)))


def time_repeats(
    fn: Callable[[], object], repeats: int, warmup: int = 1
) -> list[float]:
    """Wall-time ``fn`` ``repeats`` times after ``warmup`` discards."""
    for _ in range(warmup):
        fn()
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return samples


def timing_row(benchmark: str, samples: list[float], **extra) -> dict:
    """One ledger row: a named timing with robust statistics attached."""
    med, mad = median_mad(samples)
    row = {
        "benchmark": benchmark,
        "metric": "seconds",
        "samples": [float(s) for s in samples],
        "median": med,
        "mad": mad,
    }
    row.update(extra)
    return row


# ----------------------------------------------------------------------
# curated suites
# ----------------------------------------------------------------------
def _bench_wilson_apply(repeats: int) -> list[dict]:
    from ..dirac import WilsonCloverOperator
    from ..gauge import disordered_field
    from ..lattice import Lattice

    lat = Lattice((6, 6, 6, 8))
    gauge = disordered_field(lat, np.random.default_rng(0), 0.45)
    op = WilsonCloverOperator(gauge, mass=-1.0, c_sw=1.0)
    rng = np.random.default_rng(1)
    v = rng.standard_normal((lat.volume, 4, 3)) + 1j * rng.standard_normal(
        (lat.volume, 4, 3)
    )
    rows = []
    # the complex128 row is the outer solver's operator; ".single" is
    # the same kernel on a complex64 field, what the K-cycle streams
    for name, field in (
        ("kernel.wilson_clover_apply", v),
        ("kernel.wilson_clover_apply.single", v.astype(np.complex64)),
    ):
        samples = time_repeats(lambda: op.apply(field), repeats)
        med, _ = median_mad(samples)
        rows.append(
            timing_row(
                name, samples, volume=lat.volume, msites_per_s=lat.volume / med / 1e6
            )
        )
    return rows


def _coarse_setup():
    from ..coarse import coarsen_operator
    from ..dirac import WilsonCloverOperator
    from ..gauge import disordered_field
    from ..lattice import Blocking, Lattice
    from ..transfer import Transfer

    lat = Lattice((6, 6, 6, 8))
    gauge = disordered_field(lat, np.random.default_rng(0), 0.45)
    op = WilsonCloverOperator(gauge, mass=-1.0, c_sw=1.0)
    rng = np.random.default_rng(3)
    nulls = [
        rng.standard_normal((lat.volume, 4, 3))
        + 1j * rng.standard_normal((lat.volume, 4, 3))
        for _ in range(6)
    ]
    transfer = Transfer(Blocking(lat, (3, 3, 3, 4)), nulls)
    coarse = coarsen_operator(op, transfer)
    return transfer, coarse


def _bench_coarse_apply(repeats: int) -> list[dict]:
    transfer, coarse = _coarse_setup()
    rng = np.random.default_rng(4)
    shape = (coarse.lattice.volume, coarse.ns, coarse.nc)
    vc = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    rows = []
    for name, field in (
        ("kernel.coarse_apply", vc),
        ("kernel.coarse_apply.single", vc.astype(np.complex64)),
    ):
        samples = time_repeats(lambda: coarse.apply(field), repeats)
        med, _ = median_mad(samples)
        flops, nbytes = coarse.application_cost(field.dtype)
        rows.append(
            timing_row(
                name,
                samples,
                volume=coarse.lattice.volume,
                dof=coarse.ns * coarse.nc,
                gflops=flops / med / 1e9,
                gbs=nbytes / med / 1e9,
            )
        )
    return rows


def _bench_transfer(repeats: int) -> list[dict]:
    transfer, coarse = _coarse_setup()
    rng = np.random.default_rng(5)
    vol = transfer.fine_lattice.volume
    fine = rng.standard_normal((vol, 4, 3)) + 1j * rng.standard_normal((vol, 4, 3))
    coarse_v = transfer.restrict(fine)
    restrict_samples = time_repeats(lambda: transfer.restrict(fine), repeats)
    prolong_samples = time_repeats(lambda: transfer.prolong(coarse_v), repeats)
    return [
        timing_row("kernel.restrict", restrict_samples, volume=vol),
        timing_row("kernel.prolong", prolong_samples, volume=vol),
    ]


def _bench_blas_streams(repeats: int) -> list[dict]:
    rng = np.random.default_rng(6)
    n = 1 << 20
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    axpy_samples = time_repeats(lambda: y + 0.37 * x, repeats)
    dot_samples = time_repeats(lambda: np.vdot(x, y), repeats)
    med, _ = median_mad(axpy_samples)
    return [
        timing_row(
            "blas.axpy", axpy_samples, n_complex=n, gbs=(3 * 16 * n) / med / 1e9
        ),
        timing_row("blas.dot", dot_samples, n_complex=n),
    ]


def _aniso40_problem():
    """Aniso40-scaled: dataset, operator, 24/24 parameters, one
    right-hand side — what ``mg.solve`` and the serve row both solve."""
    from ..dirac import WilsonCloverOperator
    from ..workloads import ANISO40_SCALED as ds
    from ..workloads import mg_params_for

    op = WilsonCloverOperator(ds.gauge(), **ds.operator_kwargs())
    rng = np.random.default_rng(2)
    vol = ds.lattice().volume
    b = rng.standard_normal((vol, 4, 3)) + 1j * rng.standard_normal((vol, 4, 3))
    return ds, op, mg_params_for(ds, "24/24"), b


def _bench_mg_solve(repeats: int) -> list[dict]:
    from ..mg import MultigridSolver

    ds, op, params, b = _aniso40_problem()
    mg = MultigridSolver(op, params, np.random.default_rng(1))
    iterations = []

    def solve():
        res = mg.solve(b, tol=ds.target_residuum)
        iterations.append(res.iterations)

    samples = time_repeats(solve, repeats)
    return [
        timing_row(
            "mg.solve",
            samples,
            dataset=ds.label,
            iterations=int(iterations[-1]),
            tol=ds.target_residuum,
        )
    ]


def _bench_serve_overhead(repeats: int) -> list[dict]:
    """What the serve layer adds to a lone warm request: the wall of
    ``svc.solve`` minus the seconds ``solve_s_total`` advanced, over ten
    requests on an idle service (queue, worker wake-up, bookkeeping)."""
    from ..serve import SolveService

    ds, op, params, b = _aniso40_problem()
    samples = []
    with SolveService() as svc:
        svc.register(ds.label, op, params, np.random.default_rng(1))
        for _ in range(11):
            busy, t0 = svc.stats["solve_s_total"], time.perf_counter()
            svc.solve(ds.label, b, tol=ds.target_residuum)
            wall = time.perf_counter() - t0
            samples.append(wall - (svc.stats["solve_s_total"] - busy))
    # the first request pays first-use construction inside the worker
    return [timing_row("serve.warm_overhead", samples[1:], dataset=ds.label)]


def _bench_serve_restore(repeats: int) -> list[dict]:
    """A warm restart: a fresh ``SetupCache`` over a persisted 24/24
    setup loads the hierarchy (``get_or_build``, a disk hit)."""
    from ..mg import MultigridHierarchy
    from ..serve import SetupCache

    ds, op, params, _ = _aniso40_problem()
    hierarchy = MultigridHierarchy.build(op, params, np.random.default_rng(1))
    with tempfile.TemporaryDirectory() as disk_dir:
        SetupCache(disk_dir=disk_dir).seed(op, params, hierarchy)
        samples = time_repeats(
            lambda: SetupCache(disk_dir=disk_dir).get_or_build(op, params), 3 * repeats
        )
    return [timing_row("serve.restore", samples, dataset=ds.label)]


def _bench_mg_setup(repeats: int) -> list[dict]:
    """A cold build, and its two bulk phases re-run level by level on
    the built hierarchy: the stacked relaxations (``mg.setup.relax``)
    and the stacked Galerkin products (``mg.setup.galerkin``)."""
    from ..coarse import coarsen_operator
    from ..dirac import WilsonCloverOperator
    from ..mg import MultigridHierarchy, generate_null_vectors
    from ..precision import dtype_of
    from ..workloads import ANISO40_SCALED, mg_params_for

    ds = ANISO40_SCALED
    op = WilsonCloverOperator(ds.gauge(), **ds.operator_kwargs())
    params = mg_params_for(ds, "24/24")
    dtype = dtype_of(params.coarse_precision)
    built = []

    def setup():
        built.append(MultigridHierarchy.build(op, params, np.random.default_rng(1)))

    samples = time_repeats(setup, repeats, warmup=0)
    coarsenings = [lev for lev in built[-1].levels if not lev.is_coarsest]

    def relax():
        rng = np.random.default_rng(1)
        for lev in coarsenings:
            generate_null_vectors(
                lev.op, lev.params.n_null, rng, lev.params.null_iters, dtype=dtype
            )

    def galerkin():
        for lev in coarsenings:
            coarsen_operator(lev.op, lev.transfer)

    return [
        timing_row("mg.setup", samples, dataset=ds.label),
        timing_row(
            "mg.setup.relax", time_repeats(relax, repeats), dataset=ds.label, dtype=dtype.name
        ),
        timing_row("mg.setup.galerkin", time_repeats(galerkin, repeats), dataset=ds.label),
    ]


def _bench_mg_coarsest(repeats: int) -> list[dict]:
    """The direct coarsest-grid solve at the paper-size subspace (N=64 on
    a 2^3x4 coarsest lattice: 1024 red-black unknowns, the repo
    benchmark's ``coarse_heavy`` configuration): the first use of a
    fresh red-black system (gather the parity tables, assemble, factor,
    solve once) and one coarsest solve of the cycle — source
    preparation, triangular solves, reconstruction — for a K=1 and a
    K=8 stack, in the cycle's dtype."""
    import dataclasses

    from ..dirac import WilsonCloverOperator
    from ..dirac.mrhs import BatchedCoarseSchur
    from ..mg import MultigridHierarchy
    from ..precision import dtype_of
    from ..workloads import ANISO40_SCALED, mg_params_for

    ds = dataclasses.replace(
        ANISO40_SCALED, null_scale=1, blockings=[(2, 2, 2, 2), (1, 1, 1, 2)]
    )
    op = WilsonCloverOperator(ds.gauge(), **ds.operator_kwargs())
    params = mg_params_for(ds, "24/32", null_iters=6)
    hierarchy = MultigridHierarchy.build(op, params, np.random.default_rng(1))
    coarsest = hierarchy.levels[-1]
    schur, dtype = coarsest.schur, dtype_of(params.coarse_precision)
    rng = np.random.default_rng(2)
    shape = (8, coarsest.op.lattice.volume, coarsest.op.ns, coarsest.op.nc)
    rcs = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).astype(dtype)
    extra = dict(n=schur.unknowns, dtype=dtype.name)

    def first_use():
        fresh = BatchedCoarseSchur(coarsest.op)
        fresh.solve_multi(fresh.prepare_multi(rcs[:1]))

    def solve(rc):
        return schur.reconstruct_multi(schur.solve_multi(schur.prepare_multi(rc)), rc)

    return [
        timing_row("mg.coarsest_factor", time_repeats(first_use, repeats), **extra),
        timing_row(
            "mg.coarsest_solve", time_repeats(lambda: solve(rcs[:1]), 10 * repeats), **extra
        ),
        timing_row(
            "mg.coarsest_solve.k8", time_repeats(lambda: solve(rcs), 10 * repeats), **extra
        ),
    ]


def _bench_serve_throughput(repeats: int) -> list[dict]:
    from ..serve import run_serve_bench
    from ..workloads import ANISO40_SCALED

    rows = []
    for _ in range(max(1, repeats // 2)):
        doc = run_serve_bench(
            dataset=ANISO40_SCALED,
            batch_sizes=(1, 4),
            n_requests=6,
            verbose=False,
        )
        rows.append(doc)
    # invert: requests/s is better-is-higher, the ledger compares seconds
    out = []
    for batch in ("1", "4"):
        samples = [
             doc["n_requests"] / r["throughput_rps"]
            for doc in rows
            for r in doc["rows"]
            if str(r["max_batch"]) == batch
        ]
        out.append(
            timing_row(
                f"serve.burst_wall.batch{batch}",
                samples,
                n_requests=rows[0]["n_requests"],
            )
        )
    return out


SUITES: dict[str, dict[str, Callable[[int], list[dict]]]] = {
    "quick": {
        "kernel.wilson_clover_apply": _bench_wilson_apply,
        "kernel.coarse_apply": _bench_coarse_apply,
        "kernel.transfer": _bench_transfer,
        "blas.streams": _bench_blas_streams,
        "mg.solve": _bench_mg_solve,
        "serve.warm_overhead": _bench_serve_overhead,
        "serve.restore": _bench_serve_restore,
        "mg.setup": _bench_mg_setup,
        "mg.coarsest": _bench_mg_coarsest,
    },
    "full": {
        "kernel.wilson_clover_apply": _bench_wilson_apply,
        "kernel.coarse_apply": _bench_coarse_apply,
        "kernel.transfer": _bench_transfer,
        "blas.streams": _bench_blas_streams,
        "mg.solve": _bench_mg_solve,
        "serve.warm_overhead": _bench_serve_overhead,
        "serve.restore": _bench_serve_restore,
        "mg.setup": _bench_mg_setup,
        "mg.coarsest": _bench_mg_coarsest,
        "serve.throughput": _bench_serve_throughput,
    },
}

DEFAULT_REPEATS = {"quick": 3, "full": 5}


def run_suite(
    suite: str = "quick",
    repeats: int | None = None,
    verbose: bool = False,
) -> dict:
    """Execute one curated suite; returns the ledger entry document."""
    if suite not in SUITES:
        raise KeyError(f"unknown suite {suite!r}; choose from {sorted(SUITES)}")
    repeats = repeats if repeats is not None else DEFAULT_REPEATS[suite]
    rows: list[dict] = []
    t0 = time.perf_counter()
    for name, fn in SUITES[suite].items():
        if verbose:
            print(f"[bench] {name} ...", flush=True)
        start = time.perf_counter()
        new_rows = fn(repeats)
        rows.extend(new_rows)
        if verbose:
            for row in new_rows:
                print(
                    f"[bench]   {row['benchmark']}: median "
                    f"{row['median'] * 1e3:.2f} ms  (mad {row['mad'] * 1e3:.3f} ms, "
                    f"{time.perf_counter() - start:.1f}s total)"
                )
    meta = {
        "suite": suite,
        "repeats": repeats,
        "wall_s": time.perf_counter() - t0,
        "timestamp": time.time(),
        "git": git_metadata(),
        "env": {
            key: os.environ[key]
            for key in ("REPRO_BENCH_RHS",)
            if key in os.environ
        },
    }
    return bench_document(f"ledger-{suite}", rows, meta)


# ----------------------------------------------------------------------
# persistence
# ----------------------------------------------------------------------
def entry_digest(doc: dict) -> str:
    """Content address: sha256 of the canonical JSON encoding."""
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def append_entry(
    doc: dict,
    ledger_dir: str | pathlib.Path = ".perf-ledger",
    trajectory_root: str | pathlib.Path | None = ".",
) -> tuple[pathlib.Path, pathlib.Path | None]:
    """Persist one ledger entry.

    Writes the content-addressed archive file and, unless
    ``trajectory_root`` is ``None``, the committed baseline
    ``BENCH_<suite>.json`` in that directory (what ``repro perf diff``
    compares a new entry against).  Returns ``(archive_path,
    baseline_path)``.
    """
    digest = entry_digest(doc)
    archive = write_document(pathlib.Path(ledger_dir) / f"{digest[:12]}.json", doc)
    baseline = None
    if trajectory_root is not None:
        suite = doc.get("meta", {}).get("suite", "quick")
        baseline = write_document(
            pathlib.Path(trajectory_root) / f"BENCH_{suite}.json", doc
        )
    return archive, baseline
