"""A/A check: run every workload twice on the same code and seed.

    python3 benchmarks/e2e/aa_check.py [--smoke] [--seed N] [--seconds S]
        [--workload NAME ...] [--no-trace] [--seeds N]

Fails (exit 1) if the two sides of any end-to-end metric differ by more
than the metric's bound in ``BENCHMARK.json``, or if an exact per-layer
metric (a count, or a number computed from sizes) is not identical.
Prints each side's median and quartiles.  This is the tool for showing
that a difference between two commits is larger than the difference
between two runs of one commit.

With ``--seeds N`` it instead runs N seeds per workload and prints each
end-to-end metric's quartile distance as a share of its median
(``statistics.quantiles(values, n=4)``), failing where that exceeds the
bound (``setup_s`` excepted): the driver's acceptance rule.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

import stats
from run import declared

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")

#: per-layer metrics that must repeat exactly besides those counted in
#: ``count`` units: computed from sizes, or deterministic arithmetic
EXACT_NAMES = {
    "mg.setup.mem_mb", "serve.cache.disk_mb", "solvers.true_residual_over_tol_max",
    "fleet.routed_home_share", "dirac.L0.ai_computed", "coarse.L1.ai_computed",
    "coarse.L2.ai_computed",
}


def run_once(workload: str, seed: int, seconds: float | None, trace: int,
             smoke: bool, workdir: str) -> dict:
    out = os.path.join(workdir, f"{workload}.{trace}.json")
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--trace", str(trace), "--out", out]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    with open(out) as fh:
        return json.load(fh)


def compare_end_to_end(workload: str, a: dict, b: dict, bounds: dict) -> list[str]:
    problems = []
    for name, bound in bounds.items():
        sa, sb = a["end_to_end"][name], b["end_to_end"][name]
        diff = abs(sa["median"] - sb["median"]) / min(sa["median"], sb["median"])
        verdict = "ok" if diff <= bound else "DIFFERS"
        print(
            f"{name}@{workload}: "
            f"A {sa['median']:.4g} [{sa['q1']:.4g}, {sa['q3']:.4g}] n={sa['n']}  "
            f"B {sb['median']:.4g} [{sb['q1']:.4g}, {sb['q3']:.4g}] n={sb['n']}  "
            f"diff {diff:.1%} (bound {bound:.0%}) {verdict}"
        )
        if diff > bound:
            problems.append(f"{name}@{workload}: {diff:.1%} > {bound:.0%}")
    return problems


def compare_exact(workload: str, a: dict, b: dict, exact: list[str]) -> list[str]:
    problems = []
    for name in exact:
        va, vb = a["per_layer"][name], b["per_layer"][name]
        if va != vb:
            problems.append(f"{name}@{workload}: {va!r} != {vb!r}")
    print(f"exact@{workload}: {len(exact) - len(problems)} of {len(exact)} identical")
    return problems


def seed_spread(workload: str, docs: list[dict], bounds: dict) -> list[str]:
    problems = []
    for name, bound in bounds.items():
        values = [doc["end_to_end"][name]["median"] for doc in docs]
        wall = [doc["end_to_end"][name]["wall"]["median"] for doc in docs]
        spread = stats.spread(values)
        bad = spread > bound and name != "setup_s"
        print(
            f"{name}@{workload}: median {statistics.median(values):.4g} spread {spread:.1%} "
            f"(bound {bound:.0%}; wall median {statistics.median(wall):.4g} "
            f"spread {stats.spread(wall):.1%}) {'EXCEEDS' if bad else 'ok'}"
        )
        if bad:
            problems.append(f"{name}@{workload}: spread {spread:.1%} > {bound:.0%}")
    return problems


def main(argv=None) -> int:
    contract = declared()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in contract["workloads"]])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--seeds", type=int, default=0,
                    help="run this many seeds per workload and report spreads")
    ap.add_argument("--no-trace", action="store_true",
                    help="skip the traced pair (exact-count comparison)")
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    exact = [
        m["name"] for m in contract["per_layer"]
        if m["unit"] == "count" or m["name"] in EXACT_NAMES
    ]
    problems: list[str] = []
    with tempfile.TemporaryDirectory(prefix=".e2e-aa-", dir=".") as workdir:
        for workload in args.workload or [w["name"] for w in contract["workloads"]]:
            if args.seeds:
                docs = [
                    run_once(workload, args.seed + i, args.seconds, 0, args.smoke, workdir)
                    for i in range(args.seeds)
                ]
                problems += seed_spread(workload, docs, bounds)
                continue
            sides = [
                run_once(workload, args.seed, args.seconds, 0, args.smoke, workdir)
                for _ in "AB"
            ]
            if sides[0]["host"]["unstable"] or sides[1]["host"]["unstable"]:
                print(f"note: host calibration drifted during {workload}")
            problems += compare_end_to_end(workload, *sides, bounds)
            if not args.no_trace:
                sides = [
                    run_once(workload, args.seed, args.seconds, 1, args.smoke, workdir)
                    for _ in "AB"
                ]
                problems += compare_exact(workload, *sides, exact)
    for problem in problems:
        print(f"FAIL {problem}")
    print("A/A check:", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
