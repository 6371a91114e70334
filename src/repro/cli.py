"""Command-line entry point: one ``repro`` command tree.

Usage::

    python -m repro.cli table1 | table2 | fig2 [--out DIR]
    python -m repro.cli table3 | fig3 | fig4 | all
                               [--mode replay|measured] [--rhs N]
                               [--out DIR] [--telemetry FILE]
    python -m repro.cli trace  [dataset] [--mrhs K] [--partition 1x1x2x2]
                               [--convergence] [--critical-path]
                               [--telemetry out.json] [--out DIR]
                               [--otlp out.otlp.json] [--perfetto out.perfetto.json]
    python -m repro.cli serve-bench [dataset] [--batch-sizes 1,4,8,16] [--requests N]
                               [--metrics-out FILE] [--blackbox-out DIR] [--out DIR]
    python -m repro.cli fleet-bench [dataset] [--shards 1,2,4,8] [--skew both]
                               [--ops N] [--requests N] [--null-iters N]
                               [--metrics-out FILE] [--out DIR]
    python -m repro.cli check  [dataset] [--json out.json] [--strategy 24/24]
                               [--invariants a,b,...] [--max-needs TIER]
    python -m repro.cli blackbox [path] [--events N]
    python -m repro.cli bench  run [--suite quick|full] [--repeats K]
                               [--ledger-dir DIR] [--no-trajectory] [--out FILE]
    python -m repro.cli bench  list
    python -m repro.cli perf   diff A B [--tolerance T] [--z Z] [--warn-only]
                               [--json FILE]

Each command accepts only the options it reads (:data:`COMMANDS`);
anything else is argparse's usage error against that command's usage
line (``usage: repro table1 ...``), exit 2.  Dataset arguments are
case-insensitive and accept both paper labels (``Aniso40``) and scaled
labels (``aniso40-scaled``); unknown names print the valid list and
exit 2.

The paper artifacts render in replay mode (paper iteration counts
through the machine model, seconds); ``--mode measured`` runs real
solves on the scaled datasets first (minutes) and, with ``--telemetry
FILE`` or ``--out DIR``, persists the trace of those solves
(``DIR/trace.json``).  ``--out DIR`` also writes ``DIR/<artifact>.txt``.

``trace`` runs one measured multigrid solve on a scaled dataset with
full telemetry enabled and writes the ``repro.telemetry/v1`` trace
document (``--telemetry FILE``, else ``trace-<dataset>.json`` under
``--out`` or the current directory).  ``--otlp FILE`` also exports the
span tree in OTLP-JSON shape; ``--perfetto FILE`` exports a
Chrome/Perfetto trace-event timeline (track per shard, thread per
level, convergence events as instants); ``--convergence`` renders the
per-level convergence-history tables; ``--critical-path`` prints the
longest self-time-weighted span chain and the halo overlap-headroom
report; ``--partition AxBxCxD`` runs the outer solve through the
simulated halo exchange so those reports have comm spans to classify.

``serve-bench`` pushes a burst of single-RHS requests through the
solve service's batcher at several ``max_batch`` settings and reports
requests/s and p50/p95/p99 latencies (Section 9 multi-RHS batching,
measured end to end); ``fleet-bench`` routes one burst across 1..N
shards of a simulated heterogeneous fleet under uniform and hot-key
workloads (:mod:`repro.fleet`).  ``--metrics-out FILE`` writes the
final Prometheus exposition, ``--out DIR`` the JSON document
(``serve-bench.json`` / ``fleet-bench.json``).

``check`` runs the numerical-invariant registry (:mod:`repro.verify`)
against a scaled dataset, prints the verdict table, writes the JSON
report and exits nonzero iff any *critical* invariant fails;
``--invariants`` selects a subset by name, ``--max-needs
gauge|operator|hierarchy|solve`` caps the expense tier.

``blackbox`` inspects the serve tier's postmortem dumps — trace
documents whose ``events`` list is the flight-recorder ring: pointed
at a directory it lists the ``blackbox-*.json`` dumps there, pointed
at a file it renders the incident timeline (``--events N`` controls
how much of the tail is shown).

``bench run`` executes a curated measurement suite into the
content-addressed ledger and over the committed baseline
``BENCH_<suite>.json`` (``--no-trajectory`` leaves the baseline alone).
``perf diff A B`` compares two ledger entries (per benchmark, with a
median/MAD noise model) or two trace documents — dumps included — per
level and span name (self-time, span count, flops/bytes); it exits 1
on regression (0 with ``--warn-only``, which still prints the verdict)
and 2 on unreadable, unsupported or mismatched documents.
"""

from __future__ import annotations

import argparse
import pathlib
from typing import Callable

from . import telemetry
from .telemetry import read_document, write_document


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


def _artifacts(args) -> int:
    """Render paper tables and figures (``all`` renders every one)."""
    from .reporting import fig2, fig3, fig4, table1, table2, table3

    mode = getattr(args, "mode", "replay")
    n_rhs = getattr(args, "rhs", 2)
    trace_path = getattr(args, "telemetry", None)
    renders = {
        "table1": table1.render,
        "table2": table2.render,
        "fig2": fig2.render,
        "table3": lambda: table3.main(mode=mode, n_rhs=n_rhs, verbose=False),
        "fig3": lambda: fig3.main(mode=mode, n_rhs=n_rhs),
        "fig4": lambda: fig4.render(mode=mode, n_rhs=n_rhs),
    }
    names = list(renders) if args.command == "all" else [args.command]

    # measured-mode solves are traced whenever there is somewhere to
    # persist the trace
    capture = mode == "measured" and (trace_path is not None or args.out is not None)
    if capture:
        telemetry.enable()
        telemetry.reset()
    try:
        outputs = [(name, renders[name]()) for name in names]
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
        meta = {"kind": "artifact", "artifact": args.command, "mode": mode}
        if trace_path is not None:
            telemetry.write_trace(trace_path, meta=meta)
        if args.out is not None:
            telemetry.write_trace(pathlib.Path(args.out) / "trace.json", meta=meta)
        telemetry.reset()
    return 0


def _trace(args) -> int:
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
        path = pathlib.Path(args.out or ".") / f"trace-{args.dataset}.json"
    print(f"\ntrace written to {write_document(path, doc)}")
    if args.otlp is not None:
        from .telemetry import write_otlp

        write_otlp(args.otlp, doc)
        print(f"OTLP trace written to {args.otlp}")
    if args.perfetto is not None:
        from .obs.forensics import write_perfetto

        write_perfetto(args.perfetto, doc)
        print(f"Perfetto trace written to {args.perfetto}")
    return 0


def _write_bench(args, name: str, doc: dict) -> None:
    """The tail both service benchmarks share: say where the metrics
    went and persist the document under ``--out``."""
    if args.metrics_out is not None:
        print(f"\nmetrics snapshot written to {args.metrics_out}")
    if args.out is not None:
        path = write_document(pathlib.Path(args.out) / f"{name}.json", doc)
        print(f"\n{name} document written to {path}")


def _serve_bench(args) -> int:
    from .serve import render_table, run_serve_bench

    doc = run_serve_bench(
        dataset=resolve_dataset(args.dataset),
        batch_sizes=tuple(int(s) for s in args.batch_sizes.split(",")),
        n_requests=args.requests,
        verbose=True,
        metrics_out=args.metrics_out,
        blackbox_dir=args.blackbox_out,
    )
    print()
    print(render_table(doc))
    _write_bench(args, "serve-bench", doc)
    return 0


def _fleet_bench(args) -> int:
    from .fleet import render_fleet_table, run_fleet_bench

    doc = run_fleet_bench(
        dataset=resolve_dataset(args.dataset),
        shard_counts=tuple(int(s) for s in args.shards.split(",")),
        skew=args.skew,
        n_requests=args.requests,
        n_ops=args.ops,
        null_iters=args.null_iters,
        metrics_out=args.metrics_out,
        verbose=True,
    )
    print()
    print(render_fleet_table(doc))
    _write_bench(args, "fleet-bench", doc)
    return 0


def _check(args) -> int:
    from .verify.runner import main_check

    args.dataset = resolve_dataset(args.dataset).label
    return main_check(args)


def _blackbox(args) -> int:
    """List a directory's dumps newest-first, or render one dump file."""
    import sys

    from .obs.blackbox import is_blackbox, render_blackbox
    from .telemetry import load_trace

    def load_dump(p: pathlib.Path) -> dict:
        doc = load_trace(p)
        if not is_blackbox(doc):
            raise ValueError(f"{p}: a trace without flight-recorder events, not a dump")
        return doc

    path = pathlib.Path(args.path)
    if path.is_dir():
        dumps = sorted(path.glob("blackbox-*.json"), reverse=True)
        if not dumps:
            print(f"no blackbox dumps under {path}/")
            return 0
        print(f"{len(dumps)} blackbox dump(s) under {path}/ (newest first):")
        for p in dumps:
            try:
                meta = load_dump(p)["meta"]
            except (OSError, ValueError) as exc:
                print(f"  {p.name}  [unreadable: {exc}]")
                continue
            print(
                f"  {p.name}  reason={meta['reason']}  "
                f"trace={meta.get('trace_id') or '-'}  {meta['ts_iso']}"
            )
        return 0
    if not path.is_file():
        print(f"error: no such file or directory: {path}", file=sys.stderr)
        return 2
    try:
        doc = load_dump(path)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(render_blackbox(doc, last_events=args.events))
    return 0


def _bench_list(args) -> int:
    from .perf.ledger import SUITES

    for suite in sorted(SUITES):
        print(f"{suite}:")
        for name in SUITES[suite]:
            print(f"  {name}")
    return 0


def _bench_run(args) -> int:
    from .perf.ledger import append_entry, entry_digest, run_suite

    doc = run_suite(args.suite, repeats=args.repeats, verbose=True)
    archive, baseline = append_entry(
        doc,
        ledger_dir=args.ledger_dir,
        trajectory_root=None if args.no_trajectory else ".",
    )
    print(f"\nledger entry {entry_digest(doc)[:12]} written to {archive}")
    if baseline is not None:
        print(f"baseline updated: {baseline}")
    if args.out is not None:
        print(f"entry copied to {write_document(args.out, doc)}")
    return 0


def _perf_diff(args) -> int:
    from .perf.diff import compare_documents

    try:
        diff = compare_documents(
            read_document(args.baseline),
            read_document(args.candidate),
            tolerance=args.tolerance,
            z=args.z,
        )
    except (OSError, ValueError) as exc:
        print(f"error: {exc}")
        return 2
    print(diff.render())
    if args.json is not None:
        write_document(args.json, diff.to_dict())
    if args.warn_only:
        return 0
    return diff.exit_code


# ----------------------------------------------------------------------
# the command tree
# ----------------------------------------------------------------------
#: every option of the artifact and service commands, by flag
OPTIONS: dict[str, dict] = {
    "dataset": dict(
        nargs="?",
        default="Aniso40",
        help="dataset label, paper or scaled, case-insensitive (default Aniso40)",
    ),
    "path": dict(
        nargs="?",
        default=".",
        help="a directory to list dumps in, or one dump file to render "
        "(default: the current directory)",
    ),
    "--mode": dict(
        choices=["replay", "measured"],
        default="replay",
        help="replay: paper iteration counts through the machine model (fast); "
        "measured: run real solves on the scaled datasets first (minutes)",
    ),
    "--rhs": dict(type=int, default=2, help="right-hand sides per measured solver"),
    "--out": dict(
        default=None,
        metavar="DIR",
        help="also write this command's outputs into DIR",
    ),
    "--telemetry": dict(
        default=None,
        metavar="FILE",
        help="export the telemetry trace of this run as a JSON document",
    ),
    "--mrhs": dict(
        type=int,
        default=1,
        metavar="K",
        help="solve a stack of K right-hand sides in one multi-RHS solve "
        "instead of a single one",
    ),
    "--partition": dict(
        default=None,
        metavar="GRID",
        help="run the outer solve through a PartitionedOperator over this "
        "process grid (e.g. 1x1x2x2), producing halo-exchange spans for "
        "the overlap report",
    ),
    "--convergence": dict(
        action="store_true",
        help="render per-level convergence-history tables from the "
        "iteration event streams",
    ),
    "--critical-path": dict(
        action="store_true",
        help="print the critical-path and overlap-headroom reports",
    ),
    "--otlp": dict(
        default=None,
        metavar="FILE",
        help="also export the span tree as OTLP JSON to FILE",
    ),
    "--perfetto": dict(
        default=None,
        metavar="FILE",
        help="also export the span tree as a Chrome/Perfetto trace-event "
        "file (opens in ui.perfetto.dev)",
    ),
    "--batch-sizes": dict(
        default="1,4,8,16", help="comma-separated max_batch settings"
    ),
    "--requests": dict(type=int, default=16, help="requests per configuration"),
    "--metrics-out": dict(
        default=None,
        metavar="FILE",
        help="write the final Prometheus metrics snapshot (text exposition, "
        "with exemplars) to FILE",
    ),
    "--blackbox-out": dict(
        default=None,
        metavar="DIR",
        help="persist any postmortem blackbox dumps to DIR",
    ),
    "--shards": dict(default="1,2,4,8", help="comma-separated shard counts"),
    "--skew": dict(
        choices=["uniform", "hot", "both"],
        default="both",
        help="workload skew ('hot' also runs its uniform baseline for the "
        "survival ratio)",
    ),
    "--ops": dict(
        type=int,
        default=None,
        help="distinct ensembles registered on the router "
        "(default 2x the largest shard count)",
    ),
    "--null-iters": dict(
        type=int,
        default=40,
        help="null-vector setup iterations per hierarchy "
        "(default 40; lower for smoke runs)",
    ),
    "--json": dict(
        default=None,
        metavar="FILE",
        help="where to write the JSON report (default verify-<dataset>.json)",
    ),
    "--strategy": dict(
        default="24/24", help="null-space strategy label (default 24/24)"
    ),
    "--invariants": dict(
        default=None,
        metavar="NAMES",
        help="comma-separated subset of invariants (default: all)",
    ),
    "--max-needs": dict(
        choices=["gauge", "operator", "hierarchy", "solve"],
        default="solve",
        help="most expensive context tier to use (default solve)",
    ),
    "--events": dict(
        type=int,
        default=20,
        help="flight-recorder events to show from the tail (default 20)",
    ),
}

_ARTIFACT = ("--mode", "--rhs", "--out", "--telemetry")

Handler = Callable[[argparse.Namespace], int]

#: each command: its help line, handler and the arguments it reads —
#: the only ones it accepts
COMMANDS: dict[str, tuple[str, Handler, tuple[str, ...]]] = {
    "table1": ("ensembles (Table 1)", _artifacts, ("--out",)),
    "table2": ("MG parameters (Table 2)", _artifacts, ("--out",)),
    "fig2": ("fine-grained GFLOPS curves (Figure 2)", _artifacts, ("--out",)),
    "table3": ("solver comparison (Table 3)", _artifacts, _ARTIFACT),
    "fig3": ("wallclock versus node count (Figure 3)", _artifacts, _ARTIFACT),
    "fig4": ("time per level versus node count (Figure 4)", _artifacts, _ARTIFACT),
    "all": ("every table and figure above", _artifacts, _ARTIFACT),
    "trace": (
        "one traced MG solve -> repro.telemetry/v1 document",
        _trace,
        ("dataset", "--mrhs", "--partition", "--convergence", "--critical-path",
         "--telemetry", "--out", "--otlp", "--perfetto"),
    ),
    "serve-bench": (
        "solve-service throughput versus max_batch",
        _serve_bench,
        ("dataset", "--batch-sizes", "--requests", "--metrics-out",
         "--blackbox-out", "--out"),
    ),
    "fleet-bench": (
        "sharded fleet-router throughput versus shard count and skew",
        _fleet_bench,
        ("dataset", "--shards", "--skew", "--requests", "--ops", "--null-iters",
         "--metrics-out", "--out"),
    ),
    "check": (
        "numerical-invariant registry -> repro.verify/v1 report",
        _check,
        ("dataset", "--json", "--strategy", "--invariants", "--max-needs"),
    ),
    "blackbox": (
        "list or render postmortem dumps",
        _blackbox,
        ("path", "--events"),
    ),
}


class _Command(argparse.ArgumentParser):
    """A command's parser: an argument it does not read is its own usage
    error (``usage: repro table1 ...``), not the root parser's, which
    would otherwise collect it and print the top-level usage."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def build_parser() -> argparse.ArgumentParser:
    from .perf.ledger import SUITES

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the tables and figures of Clark et al. (SC 2016)",
    )
    sub = parser.add_subparsers(
        dest="command", required=True, metavar="command", parser_class=_Command
    )
    for name, (help_, handler, arguments) in COMMANDS.items():
        cmd = sub.add_parser(name, help=help_)
        for flag in arguments:
            cmd.add_argument(flag, **OPTIONS[flag])
        cmd.set_defaults(handler=handler)

    bench = sub.add_parser("bench", help="benchmark ledger")
    bench_sub = bench.add_subparsers(dest="action", required=True)
    run = bench_sub.add_parser("run", help="run a curated suite")
    run.add_argument("--suite", choices=sorted(SUITES), default="quick")
    run.add_argument(
        "--repeats", type=int, default=None,
        help="samples per benchmark (default: suite-specific)",
    )
    run.add_argument(
        "--ledger-dir", default=".perf-ledger",
        help="content-addressed archive directory (default .perf-ledger)",
    )
    run.add_argument(
        "--no-trajectory", action="store_true",
        help="skip updating BENCH_<suite>.json in the current directory",
    )
    run.add_argument(
        "--out", default=None, metavar="FILE",
        help="also write the entry to FILE (e.g. a CI artifact path)",
    )
    run.set_defaults(handler=_bench_run)
    bench_sub.add_parser(
        "list", help="list suites and their benchmarks"
    ).set_defaults(handler=_bench_list)

    perf = sub.add_parser("perf", help="performance comparisons")
    perf_sub = perf.add_subparsers(dest="action", required=True)
    diff = perf_sub.add_parser(
        "diff", help="compare two ledger entries or two trace documents"
    )
    diff.add_argument("baseline", help="baseline document (A)")
    diff.add_argument("candidate", help="candidate document (B)")
    diff.add_argument(
        "--tolerance", type=float, default=None,
        help="relative slowdown tolerated before gating "
        "(default 0.10 for ledger entries, 0.25 for traces)",
    )
    diff.add_argument(
        "--z", type=float, default=3.0,
        help="noise band width in robust standard deviations (default 3)",
    )
    diff.add_argument(
        "--warn-only", action="store_true",
        help="always exit 0; print the verdict only (CI smoke mode)",
    )
    diff.add_argument(
        "--json", default=None, metavar="FILE",
        help="write the machine-readable diff to FILE",
    )
    diff.set_defaults(handler=_perf_diff)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    raise SystemExit(main())
