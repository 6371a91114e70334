"""Command-line entry point: regenerate any paper artifact.

Usage::

    python -m repro.cli table1
    python -m repro.cli table2
    python -m repro.cli fig2
    python -m repro.cli table3 [--mode replay|measured] [--rhs N]
    python -m repro.cli fig3   [--mode replay|measured]
    python -m repro.cli fig4   [--mode replay|measured]
    python -m repro.cli all    [--mode replay]
    python -m repro.cli trace  [dataset] [--telemetry out.json] [--otlp out.otlp.json]
                               [--perfetto out.perfetto.json] [--convergence]
                               [--critical-path] [--partition 1x1x2x2]
    python -m repro.cli serve-bench [dataset] [--batch-sizes 1,4,8,16] [--requests N]
                               [--metrics-out FILE] [--blackbox-out DIR]
    python -m repro.cli fleet-bench [dataset] [--shards 1,2,4,8] [--skew both]
                               [--ops N] [--requests N] [--null-iters N]
                               [--metrics-out FILE] [--out DIR]
    python -m repro.cli blackbox [path] [--events N]
    python -m repro.cli check  [dataset] [--json out.json] [--strategy 24/24]
                               [--invariants a,b,...] [--max-needs TIER]
    python -m repro.cli bench  run [--suite quick|full] | list
    python -m repro.cli perf   diff A B [--tolerance T] [--warn-only]

``bench``/``perf`` route to the performance-observability layer
(:mod:`repro.perf.cli`): ``bench run`` executes a curated measurement
suite into the content-addressed ledger (+ the committed baseline
``BENCH_<suite>.json``), ``perf diff`` compares two ledger entries (per
benchmark, with a median/MAD noise model) or two trace documents (per
level and span name: self-time, span count, flops/bytes) and exits
nonzero on regression.  Dataset arguments are case-insensitive and
accept both paper labels (``Aniso40``) and scaled labels
(``aniso40-scaled``); unknown names print the valid list and exit 2.

``check`` runs the numerical-invariant registry (:mod:`repro.verify`)
against a scaled dataset: gauge-field sanity, gamma5-hermiticity,
prolongator orthonormality, Galerkin consistency, Schur equivalence,
halo-exchange agreement, precision bounds and solve truthfulness.  It
prints the verdict table, writes a JSON report, and exits nonzero iff
any *critical* invariant fails.  ``--invariants`` selects a subset by
name; ``--max-needs gauge|operator|hierarchy|solve`` caps the expense
tier (e.g. ``operator`` skips hierarchy builds and solves).

``serve-bench`` runs the solve-service throughput benchmark: a burst of
single-RHS requests is pushed through the dynamic batcher at several
``max_batch`` settings and the requests/s and p50/p95 latencies are
reported (Section 9 multi-RHS batching, measured end to end through the
service).

``fleet-bench`` runs the sharded fleet-serving benchmark
(:mod:`repro.fleet`): one request burst is routed across 1..N shards
of a simulated heterogeneous fleet (A100/L4/T4 node classes behind the
cache-affinity router) under uniform and hot-key workloads, and the
aggregate simulated requests/s, replication counts and hot-key
survival ratio are reported as a ``repro.fleet/v1`` document.

``trace`` runs one measured multigrid solve on a scaled dataset with
full telemetry enabled and exports the JSON trace document (nested
spans for setup/smoother/restrict/prolong/coarse-solve plus per-level
metrics).  ``--otlp FILE`` additionally exports the same span tree in
OTLP-JSON shape for standard tracing backends; ``--perfetto FILE``
exports a Chrome/Perfetto trace-event timeline (track per shard,
thread per level, convergence events as instants); ``--convergence``
renders the per-level convergence-history tables extracted from the
iteration event streams; ``--critical-path`` prints the longest
self-time-weighted span chain and the halo overlap-headroom report;
``--partition AxBxCxD`` runs the outer solve through the simulated
halo exchange so those reports have comm spans to classify; ``perf
diff A B`` compares two such trace documents node by node.
Measured-mode artifacts accept
``--telemetry FILE`` to export the trace of their solves; with
``--out DIR`` the trace is persisted to ``DIR/trace.json``
automatically instead of being discarded after rendering.

``blackbox`` inspects flight-recorder postmortem dumps
(``repro.blackbox/v1``): pointed at a directory it lists the dumps,
pointed at a file it renders the incident timeline (``--events N``
controls how much of the tail is shown).
"""

from __future__ import annotations

import argparse
import pathlib

from . import telemetry

ARTIFACTS = [
    "table1", "table2", "table3", "fig2", "fig3", "fig4", "all", "trace",
    "serve-bench", "fleet-bench", "check", "blackbox",
]

# command groups routed to the perf CLI (repro.perf.cli)
PERF_GROUPS = ("bench", "perf")


def resolve_dataset(name: str):
    """Resolve a dataset label or exit 2 with the valid list (no traceback)."""
    import sys

    from .workloads import dataset_labels, resolve_scaled_dataset

    try:
        return resolve_scaled_dataset(name)
    except KeyError:
        print(
            f"error: unknown dataset {name!r}\n"
            f"valid datasets: {', '.join(dataset_labels())}",
            file=sys.stderr,
        )
        raise SystemExit(2)


def run_trace(
    dataset: str,
    verbose: bool = True,
    mrhs: int = 1,
    partition: str | None = None,
) -> dict:
    """Run one measured MG solve on ``dataset`` with telemetry enabled.

    With ``mrhs > 1`` the solve is one
    :meth:`~repro.mg.solver.MultigridSolver.solve_multi` over a stack of
    that many right-hand sides, so the roofline table shows each
    level's arithmetic intensity with the operator matrices amortized
    over the batch — the coarse levels move toward (and up) the
    bandwidth ceiling relative to the single-RHS trace.

    With ``partition`` (a process grid like ``"1x1x2x2"``) the fine
    operator of the outer GCR is wrapped in a
    :class:`~repro.comm.PartitionedOperator`, so every fine matvec runs
    through the simulated halo exchange and the trace carries
    ``comm.partitioned_apply`` / ``halo.exchange`` spans — the input the
    overlap-headroom report (:mod:`repro.obs.forensics.overlap`) is
    computed from.

    Returns the trace document (schema ``repro.telemetry/v1``), already
    performance-attributed: every cost-carrying span has ``gflops``,
    ``gbs``, ``arithmetic_intensity`` and ``roofline_fraction`` fields
    (:func:`repro.perf.attribute_trace`).
    """
    import numpy as np

    from .dirac import WilsonCloverOperator
    from .fields import SpinorField
    from .mg import KCyclePreconditioner, MultigridSolver
    from .perf import attribute_trace
    from .workloads import mg_params_for

    ds = resolve_dataset(dataset)
    telemetry.enable()
    telemetry.reset()
    try:
        op = WilsonCloverOperator(ds.gauge(), **ds.operator_kwargs())
        mg = MultigridSolver(op, mg_params_for(ds, "24/24"), np.random.default_rng(1))
        if partition is not None:
            from .comm import PartitionedOperator
            from .lattice import Partition
            from .solvers.gcr import gcr

            grid = tuple(int(x) for x in partition.lower().split("x"))
            pop = PartitionedOperator(op, Partition(ds.lattice(), grid))
            b = SpinorField.random(ds.lattice(), rng=np.random.default_rng(0))
            # mirror MultigridSolver.solve with the halo-exchanged fine
            # operator driving the outer GCR (the K-cycle still runs on
            # the single-domain hierarchy: the decomposition is a pure
            # data-movement rewrite, so iterations are unchanged)
            with telemetry.span(
                "mg.solve",
                subspace=mg.params.subspace_label(),
                level=0,
                partition=partition,
            ):
                res = gcr(
                    pop,
                    b.data,
                    tol=ds.target_residuum,
                    maxiter=mg.params.outer_maxiter,
                    nkrylov=mg.params.outer_nkrylov,
                    preconditioner=KCyclePreconditioner(mg.hierarchy),
                )
            meta = {
                "kind": "trace-partitioned",
                "dataset": ds.label,
                "paper_dataset": ds.paper_label,
                "partition": partition,
                "converged": bool(res.converged),
                "iterations": int(res.iterations),
            }
        elif mrhs > 1:
            rng = np.random.default_rng(0)
            bs = np.stack(
                [
                    SpinorField.random(ds.lattice(), rng=rng).data
                    for _ in range(mrhs)
                ]
            )
            results = mg.solve_multi(bs, tol=ds.target_residuum)
            meta = {
                "kind": "trace-mrhs",
                "dataset": ds.label,
                "paper_dataset": ds.paper_label,
                "n_rhs": mrhs,
                "converged": bool(all(r.converged for r in results)),
                "iterations": int(max(r.iterations for r in results)),
            }
        else:
            b = SpinorField.random(ds.lattice(), rng=np.random.default_rng(0))
            res = mg.solve(b.data, tol=ds.target_residuum)
            meta = {
                "kind": "trace",
                "dataset": ds.label,
                "paper_dataset": ds.paper_label,
                "converged": bool(res.converged),
                "iterations": int(res.iterations),
                "solve": res.to_dict(),
            }
        doc = telemetry.trace_document(meta=meta)
    finally:
        telemetry.disable()
    attribute_trace(doc)
    if verbose:
        from .perf import aggregate_level_costs, roofline_table

        label = ds.label if mrhs <= 1 else f"{ds.label} (K={mrhs} batched)"
        print(
            telemetry.level_breakdown_table(
                telemetry.span_table(doc["spans"]),
                title=f"trace {label}: exclusive seconds per level",
            )
        )
        print()
        print(roofline_table(aggregate_level_costs(doc["spans"])))
    return doc


def main_blackbox(args) -> int:
    """List or render repro.blackbox/v1 postmortem dumps.

    The (reused) dataset positional is a path here: a directory lists
    its dumps newest-first, a file renders the full incident view.
    With no path given, the current directory is listed.
    """
    import sys

    from .obs.blackbox import load_blackbox, render_blackbox

    # the positional defaults to a dataset label; for blackbox it is a
    # filesystem path, so the untouched default means "look here"
    raw = args.dataset if args.dataset != "Aniso40" else "."
    path = pathlib.Path(raw)
    if path.is_dir():
        dumps = sorted(path.glob("blackbox-*.json"), reverse=True)
        if not dumps:
            print(f"no blackbox dumps under {path}/")
            return 0
        print(f"{len(dumps)} blackbox dump(s) under {path}/ (newest first):")
        for p in dumps:
            try:
                doc = load_blackbox(p)
            except (OSError, ValueError) as exc:
                print(f"  {p.name}  [unreadable: {exc}]")
                continue
            print(
                f"  {p.name}  reason={doc['reason']}  "
                f"trace={doc.get('trace_id') or '-'}  {doc['ts_iso']}"
            )
        return 0
    if not path.is_file():
        print(f"error: no such file or directory: {path}", file=sys.stderr)
        return 2
    try:
        doc = load_blackbox(path)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(render_blackbox(doc, last_events=args.events))
    return 0


def main(argv: list[str] | None = None) -> int:
    import sys

    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] in PERF_GROUPS:
        from .perf.cli import perf_main

        return perf_main(argv)

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the tables and figures of Clark et al. (SC 2016)",
    )
    parser.add_argument("artifact", choices=ARTIFACTS)
    parser.add_argument(
        "dataset",
        nargs="?",
        default="Aniso40",
        help="dataset label for the 'trace' artifact (default Aniso40)",
    )
    parser.add_argument(
        "--mode",
        choices=["replay", "measured"],
        default="replay",
        help="replay: paper iteration counts through the machine model (fast); "
        "measured: run real solves on the scaled datasets first (minutes)",
    )
    parser.add_argument(
        "--rhs", type=int, default=2, help="right-hand sides per measured solver"
    )
    parser.add_argument(
        "--mrhs",
        type=int,
        default=1,
        metavar="K",
        help="for 'trace': solve a stack of K right-hand sides in one "
        "multi-RHS solve instead of a single one",
    )
    parser.add_argument(
        "--out",
        default=None,
        metavar="DIR",
        help="also write each artifact to DIR/<artifact>.txt (measured-mode "
        "runs additionally persist their telemetry to DIR/trace.json)",
    )
    parser.add_argument(
        "--telemetry",
        default=None,
        metavar="FILE",
        help="export the telemetry trace of this run as a JSON document",
    )
    parser.add_argument(
        "--batch-sizes",
        default="1,4,8,16",
        help="comma-separated max_batch settings for serve-bench",
    )
    parser.add_argument(
        "--requests",
        type=int,
        default=16,
        help="requests per serve-bench configuration",
    )
    parser.add_argument(
        "--shards",
        default="1,2,4,8",
        help="comma-separated shard counts for fleet-bench",
    )
    parser.add_argument(
        "--skew",
        choices=["uniform", "hot", "both"],
        default="both",
        help="fleet-bench workload skew ('hot' also runs its uniform "
        "baseline for the survival ratio)",
    )
    parser.add_argument(
        "--ops",
        type=int,
        default=None,
        help="fleet-bench: distinct ensembles registered on the router "
        "(default 2x the largest shard count)",
    )
    parser.add_argument(
        "--null-iters",
        type=int,
        default=40,
        help="fleet-bench: null-vector setup iterations per hierarchy "
        "(default 40; lower for smoke runs)",
    )
    parser.add_argument(
        "--json",
        default=None,
        metavar="FILE",
        help="where 'check' writes its JSON report "
        "(default verify-<dataset>.json)",
    )
    parser.add_argument(
        "--strategy",
        default="24/24",
        help="null-space strategy label for 'check' (default 24/24)",
    )
    parser.add_argument(
        "--invariants",
        default=None,
        metavar="NAMES",
        help="comma-separated subset of invariants for 'check' (default: all)",
    )
    parser.add_argument(
        "--max-needs",
        choices=["gauge", "operator", "hierarchy", "solve"],
        default="solve",
        help="most expensive context tier 'check' may use (default solve)",
    )
    parser.add_argument(
        "--otlp",
        default=None,
        metavar="FILE",
        help="also export the 'trace' span tree as OTLP JSON to FILE",
    )
    parser.add_argument(
        "--perfetto",
        default=None,
        metavar="FILE",
        help="also export the 'trace' span tree as a Chrome/Perfetto "
        "trace-event file (opens in ui.perfetto.dev)",
    )
    parser.add_argument(
        "--critical-path",
        action="store_true",
        help="print the critical-path and overlap-headroom reports for "
        "the 'trace' span tree",
    )
    parser.add_argument(
        "--partition",
        default=None,
        metavar="GRID",
        help="trace: run the outer solve through a PartitionedOperator "
        "over this process grid (e.g. 1x1x2x2), producing halo-exchange "
        "spans for the overlap report",
    )
    parser.add_argument(
        "--convergence",
        action="store_true",
        help="render per-level convergence-history tables from the "
        "'trace' iteration event streams",
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="FILE",
        help="serve-bench/fleet-bench: write the final Prometheus metrics "
        "snapshot (text exposition, with exemplars) to FILE",
    )
    parser.add_argument(
        "--blackbox-out",
        default=None,
        metavar="DIR",
        help="serve-bench: persist any postmortem blackbox dumps to DIR",
    )
    parser.add_argument(
        "--events",
        type=int,
        default=20,
        help="blackbox: flight-recorder events to show from the tail "
        "(default 20)",
    )
    args = parser.parse_args(argv)

    if args.artifact == "blackbox":
        return main_blackbox(args)

    if args.artifact == "check":
        from .verify.runner import main_check

        args.dataset = resolve_dataset(args.dataset).label
        return main_check(args)

    if args.artifact == "serve-bench":
        import json

        from .serve import render_table, run_serve_bench

        dataset = resolve_dataset(args.dataset)
        batch_sizes = tuple(int(s) for s in args.batch_sizes.split(","))
        doc = run_serve_bench(
            dataset=dataset,
            batch_sizes=batch_sizes,
            n_requests=args.requests,
            verbose=True,
            metrics_out=args.metrics_out,
            blackbox_dir=args.blackbox_out,
        )
        print()
        print(render_table(doc))
        if args.metrics_out is not None:
            print(f"\nmetrics snapshot written to {args.metrics_out}")
        if args.out is not None:
            out_dir = pathlib.Path(args.out)
            out_dir.mkdir(parents=True, exist_ok=True)
            path = out_dir / "serve-bench.json"
            path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
            print(f"\nserve-bench document written to {path}")
        return 0

    if args.artifact == "fleet-bench":
        import json

        from .fleet import render_fleet_table, run_fleet_bench

        dataset = resolve_dataset(args.dataset)
        shard_counts = tuple(int(s) for s in args.shards.split(","))
        doc = run_fleet_bench(
            dataset=dataset,
            shard_counts=shard_counts,
            skew=args.skew,
            n_requests=args.requests,
            n_ops=args.ops,
            null_iters=args.null_iters,
            metrics_out=args.metrics_out,
            verbose=True,
        )
        print()
        print(render_fleet_table(doc))
        if args.metrics_out is not None:
            print(f"\nmetrics snapshot written to {args.metrics_out}")
        if args.out is not None:
            out_dir = pathlib.Path(args.out)
            out_dir.mkdir(parents=True, exist_ok=True)
            path = out_dir / "fleet-bench.json"
            path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
            print(f"\nfleet-bench document written to {path}")
        return 0

    if args.artifact == "trace":
        doc = run_trace(args.dataset, mrhs=args.mrhs, partition=args.partition)
        if args.convergence:
            from .obs.convergence import convergence_report

            print()
            print(convergence_report(doc["spans"]))
        if args.critical_path or args.partition is not None:
            from .obs.forensics import (
                critical_path,
                overlap_report,
                render_critical_path,
                render_overlap,
            )

            print()
            print(render_critical_path(critical_path(doc["spans"])))
            print()
            print(render_overlap(overlap_report(doc["spans"])))
        path = args.telemetry
        if path is None:
            out_dir = pathlib.Path(args.out) if args.out else pathlib.Path(".")
            path = out_dir / f"trace-{args.dataset}.json"
        out = pathlib.Path(path)
        out.parent.mkdir(parents=True, exist_ok=True)
        import json

        out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        print(f"\ntrace written to {out}")
        if args.otlp is not None:
            from .telemetry import write_otlp

            write_otlp(args.otlp, doc)
            print(f"OTLP trace written to {args.otlp}")
        if args.perfetto is not None:
            from .obs.forensics import write_perfetto

            write_perfetto(args.perfetto, doc)
            print(f"Perfetto trace written to {args.perfetto}")
        return 0

    # Measured-mode solve traces used to be discarded after rendering;
    # record them whenever there is somewhere to persist them to.
    capture = args.mode == "measured" and (
        args.telemetry is not None or args.out is not None
    )
    if capture:
        telemetry.enable()
        telemetry.reset()

    from .reporting import fig2, fig3, fig4, table1, table2, table3

    try:
        outputs: list[tuple[str, str]] = []
        if args.artifact in ("table1", "all"):
            outputs.append(("table1", table1.render()))
        if args.artifact in ("table2", "all"):
            outputs.append(("table2", table2.render()))
        if args.artifact in ("fig2", "all"):
            outputs.append(("fig2", fig2.render()))
        if args.artifact in ("table3", "all"):
            outputs.append(
                ("table3", table3.main(mode=args.mode, n_rhs=args.rhs, verbose=False))
            )
        if args.artifact in ("fig3", "all"):
            outputs.append(("fig3", fig3.main(mode=args.mode, n_rhs=args.rhs)))
        if args.artifact in ("fig4", "all"):
            outputs.append(("fig4", fig4.render(mode=args.mode, n_rhs=args.rhs)))
    finally:
        if capture:
            telemetry.disable()

    print("\n\n".join(text for _, text in outputs))
    if args.out is not None:
        out_dir = pathlib.Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, text in outputs:
            (out_dir / f"{name}.txt").write_text(text + "\n")
    if capture:
        meta = {"kind": "artifact", "artifact": args.artifact, "mode": args.mode}
        if args.telemetry is not None:
            telemetry.write_trace(args.telemetry, meta=meta)
        if args.out is not None:
            telemetry.write_trace(pathlib.Path(args.out) / "trace.json", meta=meta)
        telemetry.reset()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
