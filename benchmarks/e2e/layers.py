"""The traced pass: per-layer metrics of one workload.

Layers are this repository's modules (``gauge``, ``dirac``, ``coarse``,
``transfer``, ``mg``, ``solvers``, ``serve``, ``fleet``, ``telemetry``);
``L0/L1/L2`` is the hierarchy level.  Four kinds of number come out:

* unit timings: microseconds per call of each public kernel, on the
  workload's own hierarchy;
* exact counts from ``result.telemetry.level_stats`` and the service's
  own ``stats`` (they repeat exactly for a fixed seed);
* span self-times per right-hand side from benchmark-owned spans
  (:mod:`spans`) around the same public calls;
* setup phases, memory and host calibration.

End-to-end metrics never come from here: spans cost time (reported as
``trace.overhead_frac``), so the timed run is a separate, untraced one.
"""

from __future__ import annotations

import os
import resource
import statistics
import time

import numpy as np

import hostnoise
import spans as sp
import workloads as wl

#: solves whose telemetry counts are averaged; fixed, so the counts of a
#: seed repeat exactly however long the pass runs
N_COUNTED = 2
MB = float(2**20)


def _vector(rng, op, k: int | None = None) -> np.ndarray:
    shape = (op.lattice.volume, op.ns, op.nc)
    if k is not None:
        shape = (k, *shape)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def time_call(samples: hostnoise.Samples, name: str, fn, budget_s: float) -> None:
    """``budget_s`` of repetitions (>= 3) of ``fn`` as one sample of ``name``."""
    fn()  # first call may build the callee's caches
    calls = 0
    begin = time.perf_counter()
    while calls < 3 or time.perf_counter() - begin < budget_s:
        fn()
        calls += 1
    samples.add(name, begin, time.perf_counter(), divisor=calls)


def unit_targets(hierarchy, solver, rng) -> dict[str, object]:
    """name -> zero-argument callable, resolved by public attribute name.

    A name whose target does not resolve is left out; the caller lists
    it under ``untraced``.
    """
    from repro import mg

    levels = hierarchy.levels
    vec = [_vector(rng, lev.op) for lev in levels]
    vec8 = [_vector(rng, lev.op, wl.K_BATCH) for lev in levels]
    table: dict[str, object] = {}
    batched = getattr(mg, "BatchedSmoother", None)
    pre = getattr(solver, "preconditioner", None)

    def add(name, owner, attr, *args):
        fn = getattr(owner, attr, None)
        if fn is not None:
            table[name] = lambda: fn(*args)

    for i, lev in enumerate(levels):
        layer = sp.op_layer(i)
        add(f"{layer}.L{i}.apply_us", lev.op, "apply", vec[i])
        add(f"{layer}.L{i}.apply_multi_k8_us", lev.op, "apply_multi", vec8[i])
        add(f"{layer}.L{i}.hop_us", lev.op, "apply_hopping", vec[i])
        add(f"{layer}.L{i}.diag_us", lev.op, "apply_diag", vec[i])
        add(f"{layer}.L{i}.diag_inv_us", lev.op, "apply_diag_inv", vec[i])
        if lev.transfer is None:
            continue
        add(f"transfer.L{i}.restrict_us", lev.transfer, "restrict", vec[i])
        add(f"transfer.L{i}.prolong_us", lev.transfer, "prolong", vec[i + 1])
        add(f"transfer.L{i}.restrict_multi_k8_us", lev.transfer, "restrict_multi", vec8[i])
        add(f"transfer.L{i}.prolong_multi_k8_us", lev.transfer, "prolong_multi", vec8[i + 1])
        add(f"mg.smoother.L{i}.apply_us", lev.smoother, "apply", vec[i])
        if batched is not None:
            smoother = batched(
                lev.op, steps=lev.params.smoother_steps,
                omega=lev.params.smoother_omega,
                precision=hierarchy.params.smoother_precision,
            )
            add(f"mg.smoother.L{i}.apply_multi_k8_us", smoother, "apply_multi", vec8[i])
        if pre is not None:
            add(f"mg.kcycle.L{i}.apply_us", type(pre)(hierarchy, i), "apply", vec[i])
    return table


#: span name suffix -> unit-timing suffix, for the coverage sum
_LEAF_UNITS = {
    "apply": "apply_us", "hop": "hop_us", "diag": "diag_us",
    "diag_inv": "diag_inv_us", "restrict": "restrict_us", "prolong": "prolong_us",
}


def coverage(totals: dict[str, sp.SpanTotals], units: dict[str, float]) -> float:
    """Seconds explained by (leaf call count) x (unit timing)."""
    explained = 0.0
    for name, tot in totals.items():
        head, _, suffix = name.rpartition(".")
        unit = units.get(f"{head}.{_LEAF_UNITS.get(suffix)}")
        if unit is not None:
            explained += tot.leaf_calls * unit * 1e-6
    return explained


def coarse_window(spans: list[sp.Span]) -> float:
    """Seconds spent below level 0: in each level-0 cycle, from the end
    of its restriction to the start of its prolongation."""
    edges: dict[int, list[float]] = {}
    for span in spans:
        if span.parent is None or spans[span.parent].name != "mg.kcycle.L0":
            continue
        if span.name == "transfer.L0.restrict":
            edges.setdefault(span.parent, [0.0, 0.0])[0] = span.end
        elif span.name == "transfer.L0.prolong":
            edges.setdefault(span.parent, [0.0, 0.0])[1] = span.start
    return sum(max(hi - lo, 0.0) for lo, hi in edges.values() if lo and hi)


def _prefix_self(totals, prefix: str) -> float:
    return sum(t.self_s for name, t in totals.items() if name.startswith(prefix))


def traced_run(workload, seed: int, seconds: float, smoke: bool) -> dict:
    from repro import telemetry
    from repro.coarse import coarsen_operator
    from repro.lattice import Blocking
    from repro.mg import MultigridHierarchy
    from repro.serve import SetupCache
    from repro.transfer import Transfer

    m: dict[str, float] = {}
    untraced: list[str] = []
    calib = hostnoise.Calibration()
    begin = time.perf_counter()
    problem = wl.make_problem(workload, seed, smoke)
    m["gauge.generate_s"] = problem.gauge_s
    m["dirac.operator_build_s"] = problem.operator_s
    outcome = wl.Outcome()
    scratch = wl.scratch_dir()
    workdir = scratch.name
    recorder = sp.SpanRecorder()
    timed = hostnoise.Samples()  # every timed interval of the pass
    monitor = hostnoise.SpeedMonitor(hostnoise.pin_to_current_cpu())
    serving = wl.Serving(problem)
    rng = np.random.default_rng([seed, 2])
    unit_budget = 0.01 if smoke else 0.15
    solved: list[tuple] = []  # (b, result) of the untraced solves
    traced_ids: list[int] = []  # request ids of the span-traced solves

    def solve_as(name: str, solve) -> tuple:
        """One checked single-RHS solve through ``solve(b, tol=...)``."""
        recorder.request_id += 1
        b = problem.rhs()
        result = timed.time(name, solve, b, tol=problem.tol)
        outcome.check(problem.op, b, result, problem.tol)
        return b, result

    try:
        wl.warm_up(problem, workdir)
        monitor.start()
        # -- setup phases --------------------------------------------------
        timed.time("mg.setup.build_once_s", serving.register)  # empty cache: full setup
        serving.attach()
        hierarchy, solver = serving.hierarchy, serving.solver
        timed.time(
            "mg.setup.reuse_build_s", MultigridHierarchy.build,
            problem.op, problem.params, problem.setup_rng(),
            null_vectors=hierarchy.export_null_vectors(),
        )
        for lev in hierarchy.levels[:-1]:
            transfer = timed.time(
                f"transfer.L{lev.index}.build_s", Transfer,
                Blocking(lev.op.lattice, lev.params.block), lev.null_vectors,
            )
            timed.time(f"coarse.L{lev.index}.galerkin_s", coarsen_operator, lev.op, transfer)
        m["mg.setup.mem_mb"] = hierarchy.setup_memory_bytes() / MB
        disk_dir = os.path.join(workdir, "setup")
        disk = SetupCache(disk_dir=disk_dir)
        timed.time("serve.cache.persist_s", disk.seed, problem.op, problem.params, hierarchy)
        m["serve.cache.disk_mb"] = sum(
            os.path.getsize(os.path.join(disk_dir, f)) for f in os.listdir(disk_dir)
        ) / MB
        restored = SetupCache(disk_dir=disk_dir)
        restored.get_or_build(problem.op, problem.params)

        # -- unit timings ----------------------------------------------------
        unit_names = []
        for name, fn in unit_targets(hierarchy, solver, rng).items():
            time_call(timed, name, fn, unit_budget)
            unit_names.append(name)
        calib.take()

        # -- solves: untraced, benchmark spans, program tracer ----------------
        cycles_until = begin + 0.5 * seconds
        while len(solved) < (1 if smoke else N_COUNTED) or time.perf_counter() < cycles_until:
            solved.append(solve_as("solve.plain", solver.solve))
            installed = sp.install(recorder, hierarchy=hierarchy, solver=solver)
            try:
                solve_as("solve.traced", solver.solve)
                traced_ids.append(recorder.request_id)
            finally:
                installed.uninstall()
            untraced = installed.untraced
            telemetry.enable()
            try:
                solve_as("solve.program_tracer", solver.solve)
            finally:
                telemetry.disable()
                telemetry.reset()
        n_solve_spans = len(recorder.spans)

        # -- serve and fleet ---------------------------------------------------
        service, router, cache = serving.service, serving.router, serving.cache
        installed = sp.install(recorder, service=service, cache=cache, router=router)
        n_requests = 1 if smoke else 2  # fixed, so the service's counts repeat
        try:
            busy0 = service.stats["solve_s_total"]
            for _ in range(n_requests):
                solve_as("serve.warm", lambda b, tol: service.solve(wl.OP_NAME, b, tol=tol))
            warm_busy = service.stats["solve_s_total"] - busy0
            for _ in range(n_requests):
                solve_as("fleet.router_request_s",
                         lambda b, tol: router.solve(wl.OP_NAME, b, tol=tol))
            before = dict(service.stats)
            bs = [problem.rhs() for _ in range(wl.K_BATCH)]
            recorder.request_id += 1
            burst = timed.time("serve.burst", service.solve_many, wl.OP_NAME, bs, tol=problem.tol)
            for b, result in zip(bs, burst):
                outcome.check(problem.op, b, result, problem.tol)
            after = dict(service.stats)
        finally:
            installed.uninstall()
        untraced = untraced + installed.untraced
    finally:
        serving.close()
        monitor.stop()
        scratch.cleanup()
    calib.take()

    def quiet(name: str) -> float:
        """Median of the samples of ``name`` at quiet-host speed."""
        return statistics.median(timed.quiet(name, monitor))

    for name in timed.by_name:
        if name.endswith("_s"):
            m[name] = quiet(name)
    m["mg.setup.null_vectors_s"] = m["mg.setup.build_once_s"] - m["mg.setup.reuse_build_s"]
    units = {name: quiet(name) * 1e6 for name in unit_names}
    m.update(units)
    for i, lev in enumerate(hierarchy.levels):
        cost = getattr(lev.op, "application_cost", None)
        name = f"{sp.op_layer(i)}.L{i}"
        if cost is None or f"{name}.apply_us" not in units:
            continue
        flops, nbytes = cost()  # computed from array sizes, not measured
        m[f"{name}.apply_gflops"] = flops / units[f"{name}.apply_us"] / 1e3
        m[f"{name}.ai_computed"] = flops / nbytes

    # exact counts of the first N_COUNTED untraced solves
    counted = [result for _, result in solved[:N_COUNTED]]
    m["solvers.true_residual_over_tol_max"] = max(
        float(np.linalg.norm(b - problem.op.apply(r.x)) / np.linalg.norm(b)) / problem.tol
        for b, r in solved[:N_COUNTED]
    )
    m["solvers.outer_iterations"] = statistics.fmean(r.iterations for r in counted)
    for level, fields in (
        (0, ("op_applies", "smoother_applies", "restricts", "reductions")),
        (1, ("op_applies", "smoother_applies", "gcr_iters", "restricts", "reductions")),
        (2, ("op_applies", "gcr_iters", "reductions")),
    ):
        for fld in fields:
            m[f"mg.L{level}.{fld}"] = statistics.fmean(
                r.telemetry.level_stats[level][fld] for r in counted
            )

    # span times per right-hand side, each traced solve at quiet-host speed
    traced_iv = timed.by_name["solve.traced"]
    slow = {
        rid: monitor.slowdown(start, end)
        for rid, (start, end, _) in zip(traced_ids, traced_iv)
    }
    solve_spans = [
        sp.Span(s.name, s.start / slow[s.request_id], s.end / slow[s.request_id],
                s.parent, s.request_id)
        for s in recorder.spans[:n_solve_spans]
    ]
    totals = sp.span_totals(solve_spans)
    total = lambda name: totals.get(name, sp.SpanTotals())  # noqa: E731
    per_rhs = 1.0 / len(traced_iv)
    solve_s, traced_s = quiet("solve.plain"), quiet("solve.traced")
    m["solvers.outer_gcr.self_s"] = total("solvers.outer_gcr").self_s * per_rhs
    for i in (0, 1):
        m[f"mg.kcycle.L{i}.self_s"] = total(f"mg.kcycle.L{i}").self_s * per_rhs
        m[f"mg.smoother.L{i}.s"] = total(f"mg.smoother.L{i}").total_s * per_rhs
        m[f"transfer.L{i}.s"] = _prefix_self(totals, f"transfer.L{i}.") * per_rhs
    for i in (0, 1, 2):
        name = f"{sp.op_layer(i)}.L{i}"
        m[f"{name}.apply_s"] = _prefix_self(totals, f"{name}.") * per_rhs
    m["trace.coverage_frac"] = coverage(totals, units) * per_rhs / solve_s
    m["trace.coarse_window_frac"] = coarse_window(solve_spans) * per_rhs / traced_s
    m["trace.overhead_frac"] = traced_s / solve_s - 1.0
    m["telemetry.tracer_overhead_frac"] = quiet("solve.program_tracer") / solve_s - 1.0

    # serve and fleet
    m["serve.warm.overhead_s"] = (sum(timed.wall("serve.warm")) - warm_busy) / n_requests
    m["serve.burst.overhead_s"] = (
        timed.wall("serve.burst")[0] - (after["solve_s_total"] - before["solve_s_total"])
    ) / wl.K_BATCH
    m["serve.mean_batch_size"] = (
        after["batched_systems"] - before["batched_systems"]
    ) / max(after["batches"] - before["batches"], 1)
    submit = sp.span_totals(recorder.spans[n_solve_spans:]).get("serve.submit")
    m["serve.submit_us"] = submit.total_s / submit.calls * 1e6 if submit else 0.0
    for key in ("submitted", "completed", "failed", "timeouts", "rejected", "batches"):
        m[f"serve.{key}"] = float(after[key])
    for key in ("hits", "misses", "disk_hits"):
        m[f"serve.cache.{key}"] = float(
            cache.stats[key] + disk.stats[key] + restored.stats[key]
        )
    m["fleet.router_hop_s"] = m["fleet.router_request_s"] - quiet("serve.warm")
    m["fleet.routed_home_share"] = router.stats["routed_home"] / max(router.stats["routed"], 1)

    m["host.calib_gemm_s"] = statistics.median(calib.gemm_s)
    m["host.calib_stream_s"] = statistics.median(calib.stream_s)
    m["host.calib_drift"] = calib.drift
    m["proc.peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "per_layer": m,
        "untraced": untraced,
        "spans": recorder.to_rows(),
        "wall": {name: timed.wall(name) for name in timed.by_name},
        "elapsed_s": time.perf_counter() - begin,
        "outcome": outcome,
        "host": {
            **calib.as_dict(),
            "speed_monitor": monitor.active,
            "slowdown": monitor.overall(),
        },
    }
