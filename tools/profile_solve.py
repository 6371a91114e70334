"""Profile a representative multigrid solve (optimization workflow).

Per the profiling-first discipline: before touching any kernel, measure
where the time goes.  The default mode runs cProfile over one MG
setup + solve on a scaled dataset and prints the hottest functions plus
the per-level work profile; ``--json`` instead runs the solve under the
telemetry tracer and emits the same ``repro.telemetry/v1`` trace
document the benchmarks and the ``repro trace`` CLI produce, so every
profiling artifact shares one schema.

``--phase setup`` profiles the adaptive setup instead: one traced
``MultigridHierarchy.build`` and, per level, what its relaxation
(``null-vectors``), orthonormalisation (``transfer-build``) and Galerkin
product (``coarsen``, split into its operator hops and its restricts)
spans took and did — for the relaxation, the applications its running
systems needed against those a lockstep stack would have run.

``--phase breakdown`` prices a warm solve kernel by kernel, with the
tracer off: it times the kernel entry points (fine hop, clover blocks,
coarse dense-block applications, coarsest triangular solves,
transfers) and the lockstep bookkeeping around them (per-system
reductions, layout conversions, precision entry and exit) with
``perf_counter`` over ten warm solves, and prints each one's share of
the solve; what no entry point covers is the loops' elementwise vector
updates and the Python between the calls.

Usage:  python tools/profile_solve.py [dataset-label] [--json [FILE]]
        python tools/profile_solve.py [dataset-label] --phase setup
        python tools/profile_solve.py [dataset-label] --phase breakdown
"""

from __future__ import annotations

import argparse
import cProfile
import json
import pstats
import sys

import numpy as np


def _run_solve(label: str):
    from repro.dirac import WilsonCloverOperator
    from repro.fields import SpinorField
    from repro.mg import MultigridSolver
    from repro.workloads import SCALED_FOR_PAPER, mg_params_for

    ds = SCALED_FOR_PAPER[label]
    op = WilsonCloverOperator(ds.gauge(), **ds.operator_kwargs())
    b = SpinorField.random(ds.lattice(), rng=np.random.default_rng(0))
    mg = MultigridSolver(op, mg_params_for(ds, "24/24"), np.random.default_rng(1))
    res = mg.solve(b.data)
    return ds, res


#: span name -> column of the setup split
_SETUP_PHASES = {
    "null-vectors": "relax",
    "transfer-build": "orthonormalise",
    "coarsen": "galerkin",
}


#: child span of ``coarsen`` -> column of the Galerkin split
_GALERKIN_SPLIT = {"coarsen.hop": "hop_s", "coarsen.restrict": "restrict_s"}


def _relaxation_note(span) -> str:
    """What one ``null-vectors`` span's stacked relaxation ran: its
    systems, their iteration range and the applications they needed
    (live) out of those a stack without masking would have run."""
    a = span.attrs
    solve = next(c for c in span.children if c.name == "solve.bicgstab")
    # a stack of one has no per-system children
    iterations = [
        c.attrs["iterations"] for c in solve.children if c.name.endswith(".rhs")
    ] or [a["iterations"]]
    # the longest-running system received every stacked apply
    stacked = a["n_rhs"] * solve.attrs["matvecs"]
    low, high = min(iterations), max(iterations)
    spread = f"{low}" if low == high else f"{low}–{high}"
    return (
        f"{a['n_rhs']} x {a['dtype']}, {spread} iterations, "
        f"{a['applies']} of {stacked} applies, residual <= {a['residual_max']:.1e}"
    )


def _profile_setup(label: str) -> int:
    """Print the per-level relax / orthonormalise / Galerkin split of one
    traced build."""
    from repro import telemetry
    from repro.dirac import WilsonCloverOperator
    from repro.mg import MultigridHierarchy
    from repro.telemetry.tracer import get_tracer
    from repro.workloads import SCALED_FOR_PAPER, mg_params_for

    ds = SCALED_FOR_PAPER[label]
    op = WilsonCloverOperator(ds.gauge(), **ds.operator_kwargs())
    params = mg_params_for(ds, "24/24")
    MultigridHierarchy.build(op, params, np.random.default_rng(1))  # tables, caches
    telemetry.enable()
    telemetry.reset()
    try:
        MultigridHierarchy.build(op, params, np.random.default_rng(1))
        (root,) = get_tracer().find("mg.setup")
    finally:
        telemetry.disable()
    print(f"setup {ds.label}: {root.duration_s:.3f} s, {len(root.children)} coarsenings")
    print(
        f"{'level':>5} {'relax':>8} {'orthonormalise':>15} {'galerkin':>9} "
        f"{'hops':>8} {'restricts':>9}  relaxation"
    )
    for level in root.children:
        seconds = dict.fromkeys(_SETUP_PHASES.values(), 0.0)
        split = {"hop_s": 0.0, "restrict_s": 0.0}
        note = ""
        for span in level.children:
            phase = _SETUP_PHASES.get(span.name)
            if phase is None:
                continue
            seconds[phase] += span.duration_s
            if phase == "relax":
                note = _relaxation_note(span)
            elif phase == "galerkin":
                for child in span.children:
                    key = _GALERKIN_SPLIT.get(child.name)
                    if key is not None:
                        split[key] += child.duration_s
        print(
            f"{level.attrs['level']:>5} {seconds['relax']:>8.4f} "
            f"{seconds['orthonormalise']:>15.4f} {seconds['galerkin']:>9.4f} "
            f"{split['hop_s']:>8.4f} {split['restrict_s']:>9.4f}  {note}"
        )
    return 0


#: (row, module, owner, attribute): the entry points a warm solve spends
#: its time in.  None of them calls another, so their times add up.  A
#: function imported by name is timed in every module that calls it.
_BREAKDOWN = (
    ("fine hop", "repro.dirac.wilson_kernel", "WilsonKernel", "hop"),
    ("clover blocks", "repro.dirac.wilson_kernel", "WilsonKernel", "_chiral_apply"),
    ("coarse dense blocks", "repro.dirac.mrhs", "_DenseBlockHop", "apply"),
    ("coarse dense blocks", "repro.dirac.mrhs", None, "_dense_blocks_apply_multi"),
    ("coarsest solves", "repro.dirac.mrhs", "BatchedCoarseSchur", "solve_multi"),
    ("transfers", "repro.transfer.transfer", "Transfer", "restrict_multi"),
    ("transfers", "repro.transfer.transfer", "Transfer", "prolong_multi"),
    ("reductions", "repro.solvers.gcr", None, "batch_dot"),
    ("reductions", "repro.mg.smoother", None, "batch_dot"),
    ("layout conversions", "repro.dirac.wilson_kernel", None, "to_site_fastest"),
    ("layout conversions", "repro.dirac.wilson_kernel", None, "to_site_major"),
    ("layout conversions", "repro.dirac.even_odd", None, "to_site_fastest"),
    ("precision entry/exit", "repro.mg.smoother", None, "enter_precision"),
    ("precision entry/exit", "repro.mg.smoother", None, "leave_precision"),
    ("precision entry/exit", "repro.mg.kcycle", None, "enter_precision"),
    ("precision entry/exit", "repro.mg.kcycle", None, "leave_precision"),
)
_KERNELS = ("fine hop", "clover blocks", "coarse dense blocks", "coarsest solves", "transfers")
_BREAKDOWN_SOLVES = 10


def _profile_breakdown(label: str) -> int:
    """Print where ten warm solves spend their time, entry point by
    entry point, with the tracer off."""
    import importlib
    import time

    from repro.dirac import WilsonCloverOperator
    from repro.fields import SpinorField
    from repro.mg import MultigridSolver
    from repro.workloads import SCALED_FOR_PAPER, mg_params_for

    ds = SCALED_FOR_PAPER[label]
    op = WilsonCloverOperator(ds.gauge(), **ds.operator_kwargs())
    b = SpinorField.random(ds.lattice(), rng=np.random.default_rng(0)).data
    solver = MultigridSolver(op, mg_params_for(ds, "24/24"), np.random.default_rng(1))
    solver.solve(b)  # tables, factors

    seconds = {row: 0.0 for row, *_ in _BREAKDOWN}
    calls = dict.fromkeys(seconds, 0)

    def timed(fn, row):
        def wrapper(*args, **kwargs):
            begin = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[row] += time.perf_counter() - begin
                calls[row] += 1

        return wrapper

    patched = []
    for row, module, owner, attr in _BREAKDOWN:
        target = importlib.import_module(module)
        if owner is not None:
            target = getattr(target, owner)
        patched.append((target, attr, getattr(target, attr)))
        setattr(target, attr, timed(getattr(target, attr), row))
    try:
        begin = time.perf_counter()
        for _ in range(_BREAKDOWN_SOLVES):
            res = solver.solve(b)
        total = time.perf_counter() - begin
    finally:
        for target, attr, fn in reversed(patched):
            setattr(target, attr, fn)

    print(
        f"breakdown {ds.label}: {_BREAKDOWN_SOLVES} warm solves, "
        f"{1e3 * total / _BREAKDOWN_SOLVES:.1f} ms each, {res.iterations} outer iterations"
    )
    print(f"{'':22s} {'ms/solve':>9} {'share':>7} {'calls/solve':>12}")

    def line(row, s, n=None):
        per = "" if n is None else f"{n / _BREAKDOWN_SOLVES:12.0f}"
        print(f"{row:22s} {1e3 * s / _BREAKDOWN_SOLVES:9.2f} {100 * s / total:6.1f}% {per}")

    for row in _KERNELS:
        line(row, seconds[row], calls[row])
    rest = total - sum(seconds[row] for row in _KERNELS)
    line("everything else", rest)
    for row in seconds:
        if row not in _KERNELS:
            line(f"  {row}", seconds[row], calls[row])
    line("  updates and Python", rest - sum(s for r, s in seconds.items() if r not in _KERNELS))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dataset", nargs="?", default="Aniso40")
    parser.add_argument(
        "--json",
        nargs="?",
        const="-",
        default=None,
        metavar="FILE",
        help="emit a repro.telemetry/v1 trace document instead of cProfile "
        "output (to FILE, or stdout when no FILE is given)",
    )
    parser.add_argument(
        "--phase",
        choices=("solve", "setup", "breakdown"),
        default="solve",
        help="'setup' prints the per-level relax / orthonormalise / Galerkin "
        "split of one traced build instead of profiling a solve; 'breakdown' "
        "prints a warm solve's time per kernel entry point, tracer off",
    )
    args = parser.parse_args(argv)
    if args.phase == "setup":
        return _profile_setup(args.dataset)
    if args.phase == "breakdown":
        return _profile_breakdown(args.dataset)

    if args.json is not None:
        from repro import telemetry

        telemetry.enable()
        telemetry.reset()
        try:
            ds, res = _run_solve(args.dataset)
            doc = telemetry.trace_document(
                meta={
                    "kind": "profile",
                    "dataset": ds.label,
                    "converged": bool(res.converged),
                    "iterations": int(res.iterations),
                }
            )
        finally:
            telemetry.disable()
        text = json.dumps(doc, indent=1, sort_keys=True)
        if args.json == "-":
            print(text)
        else:
            with open(args.json, "w") as fh:
                fh.write(text + "\n")
            print(
                telemetry.level_breakdown_table(
                    telemetry.span_table(doc["spans"]),
                    title=f"profile {ds.label}: exclusive seconds per level",
                )
            )
            print(f"trace written to {args.json}")
        return 0

    profiler = cProfile.Profile()
    profiler.enable()
    ds, res = _run_solve(args.dataset)
    profiler.disable()

    print(f"dataset {ds.label}: converged={res.converged} in {res.iterations} iters\n")
    stats = pstats.Stats(profiler)
    stats.sort_stats("cumulative")
    print("=== top functions by cumulative time ===")
    stats.print_stats(18)
    print("=== per-level work profile ===")
    for lvl, st in res.telemetry.level_stats.items():
        print(f"  level {lvl}: {st}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
