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

Usage:  python tools/profile_solve.py [dataset-label] [--json [FILE]]
        python tools/profile_solve.py [dataset-label] --phase setup
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
                for key in split:
                    split[key] += span.attrs.get(key, 0.0)
        print(
            f"{level.attrs['level']:>5} {seconds['relax']:>8.4f} "
            f"{seconds['orthonormalise']:>15.4f} {seconds['galerkin']:>9.4f} "
            f"{split['hop_s']:>8.4f} {split['restrict_s']:>9.4f}  {note}"
        )
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
        choices=("solve", "setup"),
        default="solve",
        help="'setup' prints the per-level relax / orthonormalise / Galerkin "
        "split of one traced build instead of profiling a solve",
    )
    args = parser.parse_args(argv)
    if args.phase == "setup":
        return _profile_setup(args.dataset)

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
