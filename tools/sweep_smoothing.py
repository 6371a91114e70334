"""Sweep the smoothing schedule: MR steps on the fine level x on every coarser level.

``repro.workloads.presets.mg_params_for`` smooths with two constants,
``FINE_SMOOTHER_STEPS`` on level 0 and ``COARSE_SMOOTHER_STEPS`` on every
coarser smoothed level; this script is how they were chosen and how to
re-check them on another host.  The configurations are the three scaled
datasets at 24/24 and ``coarse_heavy`` (the paper-size 24/32 subspace on
blockings (2,2,2,2)/(1,1,1,2), 6 relaxation iterations).  Per
(configuration, setup seed) it builds one hierarchy and assembles every
schedule on that hierarchy's exported null vectors
(``MultigridHierarchy.build(null_vectors=...)``): the setup never reads
the smoother, so every schedule is compared on the same null space.
Each schedule solves once untimed (first use builds the kernel tables
and the coarsest factors), then four right-hand sides are solved in
three passes, interleaved across schedules in alternating order, so
that a host speed step hits every schedule alike.  A row prints the
outer iterations, the level-0 and level-1 ``smoother_applies`` /
``op_applies`` per solve, the median [quartiles] solve seconds and the
largest recomputed ``|b - M x| / |b|`` over the tolerance.

The adoption rule, stated before the run: the (fine, coarse) pair with
the lowest geometric mean, over the configurations, of its solve time
relative to 4/4 (per configuration the geometric mean over seeds of the
ratio of medians), provided that it takes at most 0.9x the time of 4/4
on at least two of the three scaled datasets, is not slower than 4/4 on
any configuration at any seed, and leaves every recomputed residual
within 1.5 x tol.  DESIGN.md section 23 records one run.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tools/sweep_smoothing.py [--smoke]
"""

from __future__ import annotations

import argparse
import dataclasses
import time

import numpy as np

from repro.dirac import WilsonCloverOperator
from repro.fields import SpinorField
from repro.mg import MultigridSolver
from repro.workloads import ANISO40_SCALED, SCALED_FOR_PAPER, mg_params_for
from repro.workloads.presets import COARSE_SMOOTHER_STEPS, FINE_SMOOTHER_STEPS

SCALED = ("Aniso40", "Iso48", "Iso64")
#: label -> (dataset, strategy, relaxation iterations)
CONFIGS = {
    **{label: (SCALED_FOR_PAPER[label], "24/24", 60) for label in SCALED},
    "coarse_heavy": (
        dataclasses.replace(ANISO40_SCALED, null_scale=1, blockings=[(2, 2, 2, 2), (1, 1, 1, 2)]),
        "24/32", 6,
    ),
}
FINE = (4, 6, 8, 10, 12)
COARSE = (2, 4)
BASELINE = (4, 4)
SEEDS = (1, 2, 3)
N_RHS = 4
#: timed passes over the right-hand sides
PASSES = 3


def with_schedule(params, fine: int, coarse: int):
    """``params`` smoothing ``fine`` MR steps on level 0 and ``coarse`` below."""
    levels = [
        dataclasses.replace(lp, smoother_steps=fine if i == 0 else coarse)
        for i, lp in enumerate(params.levels)
    ]
    return dataclasses.replace(params, levels=levels)


def measure(op, ds, params, seed: int, schedules) -> dict:
    """Every schedule on the null space of one setup; per schedule its
    solve seconds, outer iterations, level counters and residuals."""
    nulls = MultigridSolver(op, params, np.random.default_rng(seed)).hierarchy.export_null_vectors()
    solvers = {
        sched: MultigridSolver(
            op, with_schedule(params, *sched), np.random.default_rng(seed), null_vectors=nulls
        )
        for sched in schedules
    }
    lattice = ds.lattice()
    rhs = [SpinorField.random(lattice, rng=np.random.default_rng(100 + i)).data for i in range(N_RHS)]
    for solver in solvers.values():
        solver.solve(rhs[0])  # first use, untimed
    rows = {sched: {"s": [], "outer": [], "stats": [], "residual": []} for sched in schedules}
    for i, b in enumerate(rhs * PASSES):
        order = list(schedules) if i % 2 == 0 else list(reversed(schedules))
        for sched in order:
            begin = time.perf_counter()
            result = solvers[sched].solve(b)
            rows[sched]["s"].append(time.perf_counter() - begin)
            rows[sched]["outer"].append(result.iterations)
            rows[sched]["stats"].append(result.telemetry.level_stats)
            residual = np.linalg.norm(b - op.apply(result.x)) / np.linalg.norm(b)
            rows[sched]["residual"].append(residual / params.outer_tol)
    return rows


def _counter(row: dict, level: int, name: str) -> str:
    return f"{np.mean([stats[level][name] for stats in row['stats']]):g}"


def _print_row(label: str, seed: int, sched, row: dict, base_s: float) -> None:
    q1, med, q3 = np.percentile(row["s"], (25, 50, 75))
    outer = sorted(set(row["outer"]))
    print(
        f"{label:>12} {seed:>4} {sched[0]:>4}/{sched[1]:<2} {'/'.join(map(str, outer)):>6}"
        f"  {_counter(row, 0, 'smoother_applies'):>5} / {_counter(row, 0, 'op_applies'):>3}"
        f"  {_counter(row, 1, 'smoother_applies'):>5} / {_counter(row, 1, 'op_applies'):>4}"
        f"  {med:8.4f} [{q1:.4f}-{q3:.4f}]  {med / base_s:5.3f}"
        f"  {max(row['residual']):5.2f}"
    )


def _geomean(values) -> float:
    return float(np.exp(np.mean(np.log(values))))


def adopt(ratios: dict, residuals: dict, schedules) -> tuple | None:
    """The adoption rule over ``ratios[label][seed][schedule]`` (median
    solve seconds relative to 4/4) and the largest residual over tol of
    each schedule; prints every candidate's verdict, returns the winner."""
    winner, best = None, np.inf
    print("\nschedule  geomean  per configuration (vs 4/4)             verdict")
    for sched in schedules:
        if sched == BASELINE:
            continue
        per_config = {label: _geomean([by_seed[sched] for by_seed in seeds.values()])
                      for label, seeds in ratios.items()}
        score = _geomean(list(per_config.values()))
        faster = sum(per_config[label] <= 0.9 for label in SCALED)
        slower = [f"{label}@{seed}" for label, seeds in ratios.items()
                  for seed, by_seed in seeds.items() if by_seed[sched] > 1.0]
        problems = []
        if faster < 2:
            problems.append(f">= 10% faster on {faster} scaled datasets")
        if slower:
            problems.append("slower on " + ", ".join(slower))
        if residuals[sched] > 1.5:
            problems.append(f"residual {residuals[sched]:.2f} x tol")
        cells = " ".join(f"{label[:6]} {ratio:.3f}" for label, ratio in per_config.items())
        print(f"{sched[0]:>4}/{sched[1]:<2}  {score:7.3f}  {cells:<40} "
              f"{'; '.join(problems) or 'qualifies'}")
        if not problems and score < best:
            winner, best = sched, score
    return winner


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="one dataset, 4/4 against the presets, one seed")
    args = parser.parse_args(argv)
    preset = (FINE_SMOOTHER_STEPS, COARSE_SMOOTHER_STEPS)
    configs, seeds = CONFIGS, SEEDS
    schedules = [(fine, coarse) for fine in FINE for coarse in COARSE]
    if args.smoke:
        configs, seeds, schedules = {"Aniso40": CONFIGS["Aniso40"]}, SEEDS[:1], [BASELINE, preset]
    print(f"presets: FINE_SMOOTHER_STEPS = {preset[0]}, COARSE_SMOOTHER_STEPS = {preset[1]}")
    print(
        f"{'config':>12} {'seed':>4} {'sched':>7} {'outer':>6}  {'L0 sm / op':>11}"
        f"  {'L1 sm / op':>12}  {'median [quartiles] s':>25}  {'vs4/4':>5}  {'res/tol':>5}"
    )
    ratios: dict = {}
    residuals = {sched: 0.0 for sched in schedules}
    for label, (ds, strategy, null_iters) in configs.items():
        op = WilsonCloverOperator(ds.gauge(), **ds.operator_kwargs())
        params = mg_params_for(ds, strategy, null_iters=null_iters)
        for seed in seeds:
            rows = measure(op, ds, params, seed, schedules)
            base_s = float(np.median(rows[BASELINE]["s"]))
            ratios.setdefault(label, {})[seed] = {
                sched: float(np.median(row["s"])) / base_s for sched, row in rows.items()
            }
            for sched, row in rows.items():
                residuals[sched] = max(residuals[sched], max(row["residual"]))
                _print_row(label, seed, sched, row, base_s)
    if args.smoke:
        return 0
    winner = adopt(ratios, residuals, schedules)
    if winner is None:
        print("no schedule qualifies: keep 4/4")
    else:
        print(f"adopted: {winner[0]}/{winner[1]}"
              + ("" if winner == preset else f" (the presets hold {preset[0]}/{preset[1]})"))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
