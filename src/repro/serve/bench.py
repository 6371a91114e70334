"""Throughput benchmark for the solve service.

Drives a burst of single-RHS requests through :class:`SolveService` at
several ``max_batch`` settings and reports requests/s and p50/p95
latency per setting, plus a batched-vs-sequential solution equivalence
check.  This is the measurement behind the Section 9 claim that the
multi-RHS reformulation raises throughput: batch size 1 is the
classical one-solve-at-a-time service, larger batches amortize every
stencil read over the coalesced systems.
"""

from __future__ import annotations

import time

import numpy as np

from ..dirac import WilsonCloverOperator
from ..obs.slo import DEFAULT_SLOS, render_slo_table
from .. import telemetry
from ..workloads.datasets import ANISO40_SCALED, ScaledDataset
from ..workloads.presets import two_level_params
from .cache import SetupCache
from .service import ServeConfig, SolveService

BENCH_SCHEMA = "repro.serve-bench/v1"


def _percentile(samples: list[float], p: float) -> float:
    return float(np.percentile(np.asarray(samples), p))


def run_serve_bench(
    dataset: ScaledDataset = ANISO40_SCALED,
    batch_sizes: tuple[int, ...] = (1, 4, 8, 16),
    n_requests: int = 16,
    strategy: str = "24/24",
    null_iters: int = 50,
    tol: float | None = None,
    rhs_seed: int = 2016,
    setup_seed: int = 7,
    verbose: bool = False,
    slo_specs: tuple = DEFAULT_SLOS,
    metrics_out: str | None = None,
    blackbox_dir: str | None = None,
) -> dict:
    """Measure service throughput versus ``max_batch`` on one dataset.

    The same request burst (identical right-hand sides, submitted
    back-to-back) runs once per batch size against one shared setup
    cache, so only the first configuration pays the adaptive setup and
    the comparison isolates the batching effect.  The requests are
    submitted one by one, as an open loop of independent clients would:
    the worker starts on what is pending when it wakes (the first
    request, and whatever else the loop enqueued by then) and batches
    then form behind it — at most ``1 + ceil((n - 1) / max_batch)`` for
    the burst; a row's ``batches`` also counts the warm-up solve.
    Returns a JSON-safe document (schema ``repro.serve-bench/v1``).

    Each run is measured against ``slo_specs`` (the defaults unless
    overridden; pass an empty tuple to disable) and the final document
    carries per-batch-size SLO verdicts.  ``metrics_out`` writes the
    registry's final Prometheus exposition snapshot — enabling
    telemetry for the duration if needed; ``blackbox_dir`` persists any
    postmortem dumps the runs produce.
    """
    lattice = dataset.lattice()
    op = WilsonCloverOperator(dataset.gauge(), **dataset.operator_kwargs())
    params = two_level_params(dataset, strategy, null_iters=null_iters)
    if tol is not None:
        params.outer_tol = tol
    rng = np.random.default_rng(rhs_seed)
    shape = (n_requests, lattice.volume, 4, 3)
    sources = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    force_metrics = metrics_out is not None and not telemetry.enabled()
    if force_metrics:
        telemetry.enable()
    cache = SetupCache()
    rows: list[dict] = []
    reference: np.ndarray | None = None
    for max_batch in batch_sizes:
        config = ServeConfig(
            max_batch=max_batch,
            queue_capacity=max(2 * n_requests, 8),
            n_workers=1,
            slo_specs=tuple(slo_specs),
            blackbox_dir=blackbox_dir,
        )
        with SolveService(config, cache=cache) as svc:
            svc.register(
                dataset.label, op, params, rng=np.random.default_rng(setup_seed)
            )
            # warm-up solve: pays one-time lazy kernel construction
            svc.solve(dataset.label, sources[0])

            latencies: list[float] = []
            t0 = time.perf_counter()
            futures = []
            for b in sources:
                start = time.perf_counter()
                fut = svc.submit(dataset.label, b)
                fut.add_done_callback(
                    lambda _f, s=start: latencies.append(time.perf_counter() - s)
                )
                futures.append(fut)
            results = [f.result() for f in futures]
            wall = time.perf_counter() - t0

        solutions = np.stack([r.x for r in results])
        if reference is None:
            reference = solutions
            max_dev = 0.0
        else:
            scale = np.abs(reference).max()
            max_dev = float(np.abs(solutions - reference).max() / scale)
        row = {
            "max_batch": int(max_batch),
            "wall_s": wall,
            "throughput_rps": n_requests / wall,
            "p50_s": _percentile(latencies, 50),
            "p95_s": _percentile(latencies, 95),
            "p99_s": _percentile(latencies, 99),
            "mean_iterations": float(np.mean([r.iterations for r in results])),
            "all_converged": bool(all(r.converged for r in results)),
            "batches": svc.stats["batches"],
            "max_dev_vs_batch1": max_dev,
        }
        if svc.slo_monitor is not None:
            statuses = svc.slo_monitor.evaluate()
            row["slo"] = [s.to_dict() for s in statuses]
            row["slo_compliant"] = all(s.compliant for s in statuses)
        if svc.stats["blackbox_dumps"]:
            row["blackbox_dumps"] = svc.stats["blackbox_dumps"]
        rows.append(row)
        if verbose:
            print(
                f"[serve-bench] max_batch={max_batch:3d}  "
                f"{row['throughput_rps']:7.2f} req/s  "
                f"p50 {row['p50_s'] * 1e3:8.1f} ms  "
                f"p95 {row['p95_s'] * 1e3:8.1f} ms  "
                f"p99 {row['p99_s'] * 1e3:8.1f} ms  "
                f"batches {row['batches']}"
            )

    base = rows[0]["throughput_rps"]
    doc = {
        "schema": BENCH_SCHEMA,
        "dataset": dataset.label,
        "dims": list(dataset.dims),
        "n_requests": int(n_requests),
        "tol": params.outer_tol,
        "rows": rows,
        "speedups_vs_batch1": {
            str(r["max_batch"]): r["throughput_rps"] / base for r in rows
        },
        "setup_cache": dict(cache.stats),
    }
    if slo_specs:
        doc["slo_specs"] = [s.to_dict() for s in slo_specs]
        doc["slo_compliant"] = all(
            r.get("slo_compliant", True) for r in rows
        )
    if metrics_out is not None:
        import pathlib

        out = pathlib.Path(metrics_out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(telemetry.get_registry().expose_text(exemplars=True))
        doc["metrics_out"] = str(out)
        if force_metrics:
            telemetry.disable()
    return doc


def render_table(doc: dict) -> str:
    """Plain-text table for one :func:`run_serve_bench` document."""
    lines = [
        f"serve-bench {doc['dataset']} — {doc['n_requests']} requests, "
        f"tol {doc['tol']:g}",
        f"{'batch':>6} {'req/s':>8} {'p50 ms':>9} {'p95 ms':>9} "
        f"{'p99 ms':>9} {'speedup':>8} {'max dev':>9}",
    ]
    for row in doc["rows"]:
        speedup = doc["speedups_vs_batch1"][str(row["max_batch"])]
        # pre-p99 documents render with a blank column
        p99 = f"{row['p99_s'] * 1e3:>9.1f}" if "p99_s" in row else f"{'—':>9}"
        lines.append(
            f"{row['max_batch']:>6} {row['throughput_rps']:>8.2f} "
            f"{row['p50_s'] * 1e3:>9.1f} {row['p95_s'] * 1e3:>9.1f} "
            f"{p99} {speedup:>7.2f}x {row['max_dev_vs_batch1']:>9.1e}"
        )
    cache = doc["setup_cache"]
    lines.append(
        f"setup cache: {cache['hits']} hits, {cache['misses']} misses, "
        f"{cache['evictions']} evictions"
    )
    if "slo_compliant" in doc:
        from ..obs.slo import SLOSpec, SLOStatus

        # the worst row per spec (highest burn) summarizes the sweep
        worst: dict[str, dict] = {}
        for row in doc["rows"]:
            for status in row.get("slo", []):
                name = status["spec"]["name"]
                if (
                    name not in worst
                    or status["burn_rate"] > worst[name]["burn_rate"]
                ):
                    worst[name] = status
        statuses = [
            SLOStatus(
                SLOSpec(**s["spec"]), s["n"], s["bad"], s["measured"],
                s["compliant"], s["burn_rate"],
            )
            for s in worst.values()
        ]
        lines.append("")
        lines.append(
            render_slo_table(
                statuses,
                title="SLO compliance (worst across batch sizes): "
                + ("PASS" if doc["slo_compliant"] else "BREACH"),
            )
        )
    return "\n".join(lines)
