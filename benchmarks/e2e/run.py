"""Run one workload of the end-to-end benchmark in one process.

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S
        [--trace [0|1]] [--smoke] [--out FILE]

Prints every metric by name with its unit, checks every solution, and
ends with one JSON line ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics of an untraced run, or the
per-layer metrics of a traced one (``--trace``).  Exits 1 if any
correctness check failed, 2 if the program cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
SCHEMA = "repro.e2e-bench/v1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def declared() -> dict:
    """The committed contract: workloads, metrics, units and bounds."""
    with open(os.path.join(REPO, "BENCHMARK.json")) as fh:
        return json.load(fh)


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="how long to measure (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                    help="1: the traced pass, which yields the per-layer metrics")
    ap.add_argument("--smoke", action="store_true",
                    help="same code paths, seconds of work (loose tolerance, short setup)")
    ap.add_argument("--out", default=None, help="write the full JSON document here")
    return ap.parse_args(argv)


def environment(seed: int) -> dict:
    import numpy as np

    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        rev = ""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "git_rev": rev or "unknown",
        "seed": seed,
    }


def untraced_run(workload, seed: int, seconds: float, smoke: bool) -> dict:
    """The timed run: end-to-end metrics, program tracer off, no spans."""
    import hostnoise
    import stats
    import workloads as wl

    calib = hostnoise.Calibration()
    t_begin = time.perf_counter()
    problem = wl.make_problem(workload, seed, smoke)
    outcome = wl.Outcome()
    monitor = hostnoise.SpeedMonitor(hostnoise.pin_to_current_cpu())
    with wl.scratch_dir() as workdir:
        campaign = wl.Campaign(problem, outcome, workdir)
        try:
            wl.warm_up(problem, workdir)
            monitor.start()
            campaign.run(seconds, on_first_round=calib.take)
        finally:
            campaign.close()
            monitor.stop()
    calib.take()

    end_to_end = {}
    for name in wl.END_TO_END:
        if name in campaign.samples.by_name:  # else every such operation raised
            end_to_end[name] = {
                **stats.summarize(campaign.samples.quiet(name, monitor)),
                "wall": stats.summarize(campaign.samples.wall(name)),
            }
    bound = max(m["bound"] for m in declared()["end_to_end"])
    return {
        "end_to_end": end_to_end,
        "rounds": campaign.rounds,
        "elapsed_s": time.perf_counter() - t_begin,
        "outcome": outcome,
        "host": {
            **calib.as_dict(),
            "unstable": calib.drift > bound,
            "speed_monitor": monitor.active,
            "slowdown": monitor.overall(),
            "monitor": monitor.series(),
        },
        "samples": campaign.samples.by_name,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:  # before numpy loads its BLAS
        os.environ.setdefault(var, "1")
    sys.path[:0] = [HERE, os.path.join(REPO, "src")]
    try:
        import repro  # noqa: F401
        contract = declared()
    except (ImportError, OSError) as exc:
        print(f"cannot run here: {exc}", file=sys.stderr)
        return 2
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(wl.WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = wl.WORKLOADS[args.workload]
    seconds = args.seconds if args.seconds is not None else contract["run_seconds"]
    if args.smoke:
        seconds = min(seconds, 1.0)

    if args.trace:
        import layers

        doc = layers.traced_run(workload, args.seed, seconds, args.smoke)
        units = {m["name"]: m["unit"] for m in contract["per_layer"]}
        values = doc["per_layer"]
        # a layer metric whose target is gone reads 0 and is listed, so a
        # refactor of the program degrades the trace instead of failing it
        for name in units:
            if name not in values:
                values[name] = 0.0
                doc["untraced"].append(name)
    else:
        doc = untraced_run(workload, args.seed, seconds, args.smoke)
        units = {m["name"]: m["unit"] for m in contract["end_to_end"]}
        values = {k: v["median"] for k, v in doc["end_to_end"].items()}

    outcome = doc.pop("outcome")
    missing = sorted(set(units) - set(values))
    correct = outcome.failed == 0 and outcome.attempted > 0 and not missing
    doc.update(
        schema=SCHEMA, workload=workload.name, why=workload.why, trace=args.trace,
        smoke=args.smoke, seconds=seconds, env=environment(args.seed),
        attempted=outcome.attempted, failed=outcome.failed,
        failed_share=outcome.failed_share, errors=outcome.errors,
        worst_residual_over_tol=outcome.worst_residual_over_tol,
        missing_metrics=missing,
    )

    for name in sorted(values):
        detail = doc.get("end_to_end", {}).get(name)
        extra = ""
        if detail:
            extra = (f"  n={detail['n']} q1={detail['q1']:.4g} q3={detail['q3']:.4g}"
                     f" wall_median={detail['wall']['median']:.4g}")
            tail = [k for k in detail if k.startswith("p")]
            if tail:
                extra += f" {tail[0]}={detail[tail[0]]:.4g}"
        print(f"{name} {values[name]:.6g} {units.get(name, '?')}{extra}")
    print(f"failed_share {outcome.failed_share:.6g} ratio  "
          f"failed={outcome.failed} attempted={outcome.attempted}")
    for key in ("untraced", "missing_metrics", "errors"):
        if doc.get(key):
            print(f"{key}: {doc[key]}", file=sys.stderr)
    if doc.get("host", {}).get("unstable"):
        print(f"unstable: host calibration drifted {doc['host']['calib_drift']:.0%} "
              "during the run", file=sys.stderr)

    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1)
    print(json.dumps({
        "correct": correct,
        "attempted": max(outcome.attempted, 1),
        "failed": outcome.failed,
        "metrics": {
            name: {"value": values[name], "unit": units[name]}
            for name in units if name in values
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
