"""CLI for the performance-observability layer.

Routed from :mod:`repro.cli` (``python -m repro.cli bench ...`` /
``... perf ...``)::

    repro bench run [--suite quick|full] [--repeats K]
                    [--ledger-dir DIR] [--no-trajectory] [--out FILE]
    repro bench list
    repro perf diff A B [--tolerance T] [--z Z] [--warn-only] [--json FILE]

``bench run`` executes a curated measurement suite and writes the
entry to the content-addressed ledger and over the committed baseline
``BENCH_<suite>.json`` (``--no-trajectory`` leaves the baseline alone).
``perf diff`` compares two ledger entries (per benchmark) or two trace
documents (per level and span name: self-time, span count,
flops/bytes) and exits 1 on regression (0 with ``--warn-only``, which
still prints the verdict — the CI perf-smoke mode) and 2 on
unreadable, unsupported or mismatched documents.
"""

from __future__ import annotations

import argparse
import json
import pathlib

from .diff import compare_documents
from .ledger import SUITES, append_entry, entry_digest, load_entry, run_suite


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="performance ledger and regression gate"
    )
    sub = parser.add_subparsers(dest="group", required=True)

    bench = sub.add_parser("bench", help="benchmark ledger")
    bench_sub = bench.add_subparsers(dest="command", required=True)
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
    bench_sub.add_parser("list", help="list suites and their benchmarks")

    perf = sub.add_parser("perf", help="performance comparisons")
    perf_sub = perf.add_subparsers(dest="command", required=True)
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

    return parser


def perf_main(argv: list[str]) -> int:
    args = _build_parser().parse_args(argv)

    if args.group == "bench" and args.command == "list":
        for suite in sorted(SUITES):
            print(f"{suite}:")
            for name in SUITES[suite]:
                print(f"  {name}")
        return 0

    if args.group == "bench" and args.command == "run":
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
            out = pathlib.Path(args.out)
            out.parent.mkdir(parents=True, exist_ok=True)
            out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
            print(f"entry copied to {out}")
        return 0

    # perf diff
    try:
        diff = compare_documents(
            load_entry(args.baseline),
            load_entry(args.candidate),
            tolerance=args.tolerance,
            z=args.z,
        )
    except (OSError, ValueError) as exc:
        print(f"error: {exc}")
        return 2
    print(diff.render())
    if args.json is not None:
        out = pathlib.Path(args.json)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(diff.to_dict(), indent=1, sort_keys=True) + "\n")
    if args.warn_only:
        return 0
    return diff.exit_code
