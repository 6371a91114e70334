"""Measurement and replay machinery behind Table 3 / Figures 3-4.

Two modes produce the solver-comparison data:

* **measured** — run real solves with this library on the scaled
  datasets: BiCGStab and the three MG subspace strategies, point-source
  propagator components, double-solve error estimation.  Iteration
  counts, per-level work profiles and error/residual ratios are all
  *measured*; only the wallclock at Titan scale comes from the machine
  model — and the coarsest level's row of the work profile, when the
  scaled hierarchy solved that level directly (:func:`paper_scale_stats`).
* **replay** — take the paper's Table 3 iteration counts and a canonical
  K-cycle work profile, and price them with the machine model.  This
  isolates the time model from solver-convergence differences and is
  fast enough for CI.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..dirac import SchurOperator, WilsonCloverOperator
from ..machine import (
    MachineModel,
    SolverTime,
    bicgstab_time,
    mg_level_specs,
    mg_time,
)
from ..mg import MultigridSolver
from ..solvers import norm
from ..solvers.bicgstab import bicgstab
from ..fields import SpinorField
from ..telemetry import SolveTelemetry
from ..telemetry.tracer import get_tracer
from ..workloads import (
    PAPER_DATASETS,
    SCALED_FOR_PAPER,
    PaperDataset,
    ScaledDataset,
    mg_params_for,
    strategy_nulls,
    table3_rows,
)


# ----------------------------------------------------------------------
# measured mode
# ----------------------------------------------------------------------
@dataclass
class SolverMeasurement:
    """Measured convergence behaviour of one solver on a scaled dataset.

    ``telemetry`` holds the :class:`~repro.telemetry.SolveTelemetry` of
    every solve; the per-level profiles that Figure 4 consumes are the
    ``level_stats`` views of those payloads.
    """

    solver: str
    iterations: list[float] = field(default_factory=list)
    error_over_residual: list[float] = field(default_factory=list)
    telemetry: list[SolveTelemetry] = field(default_factory=list)
    wallclock_s: list[float] = field(default_factory=list)

    @property
    def level_stats(self) -> list[dict]:
        return [t.level_stats for t in self.telemetry]

    @property
    def mean_iterations(self) -> float:
        return float(np.mean(self.iterations))

    @property
    def std_iterations(self) -> float:
        return float(np.std(self.iterations))

    @property
    def mean_error_over_residual(self) -> float:
        return float(np.mean(self.error_over_residual))

    def mean_level_stats(self) -> dict[int, dict]:
        if not self.level_stats:
            return {}
        out: dict[int, dict] = {}
        for lvl in self.level_stats[0]:
            keys = self.level_stats[0][lvl].keys()
            out[int(lvl)] = {
                k: float(np.mean([s[lvl][k] for s in self.level_stats])) for k in keys
            }
        return out


def _error_ratio(x, x_true, resid_rel: float) -> float:
    err = norm(x - x_true) / max(norm(x_true), 1e-300)
    return err / max(resid_rel, 1e-300)


def measure_dataset(
    dataset: ScaledDataset,
    strategies: tuple[str, ...] = ("24/24", "24/32", "32/32"),
    n_rhs: int = 2,
    null_iters: int = 60,
    seed: int = 7,
    verbose: bool = False,
) -> dict[str, SolverMeasurement]:
    """Run the solver comparison on a scaled dataset.

    Returns measurements keyed by solver name ("BiCGStab" plus each MG
    strategy label).
    """
    lattice = dataset.lattice()
    gauge = dataset.gauge()
    op = WilsonCloverOperator(gauge, **dataset.operator_kwargs())
    tol = dataset.target_residuum
    sources = [
        SpinorField.point_source(lattice, 0, s, c).data
        for s, c in [(0, 0), (1, 1), (2, 2), (3, 0), (0, 1), (1, 2)][:n_rhs]
    ]

    out: dict[str, SolverMeasurement] = {}

    tracer = get_tracer()

    # -- BiCGStab baseline (red-black preconditioned) --------------------
    schur = SchurOperator(op)
    meas = SolverMeasurement("BiCGStab")
    for b in sources:
        bs = schur.prepare_multi(b[None])[0]
        t0 = time.perf_counter()
        with tracer.span("measure.solve", dataset=dataset.label, solver="BiCGStab"):
            res = bicgstab(schur, bs, tol=tol, maxiter=100000)
        meas.wallclock_s.append(time.perf_counter() - t0)
        tight = bicgstab(schur, bs, x0=res.x, tol=tol * 1e-3, maxiter=100000)
        x_full = schur.reconstruct_multi(res.x[None], b[None])[0]
        x_true = schur.reconstruct_multi(tight.x[None], b[None])[0]
        meas.iterations.append(res.iterations)
        meas.error_over_residual.append(_error_ratio(x_full, x_true, res.final_residual))
    out["BiCGStab"] = meas
    if verbose:
        print(f"[measure] {dataset.label} BiCGStab: {meas.mean_iterations:.0f} iters")

    # -- MG strategies -----------------------------------------------------
    for strategy in strategies:
        params = mg_params_for(dataset, strategy, null_iters=null_iters)
        mg = MultigridSolver(op, params, np.random.default_rng(seed), verbose=verbose)
        meas = SolverMeasurement(strategy)
        for b in sources:
            t0 = time.perf_counter()
            with tracer.span("measure.solve", dataset=dataset.label, solver=strategy):
                res = mg.solve(b, tol=tol)
            meas.wallclock_s.append(time.perf_counter() - t0)
            tight = mg.solve(b, tol=tol * 1e-3, x0=res.x)
            meas.iterations.append(res.iterations)
            meas.telemetry.append(res.telemetry)
            meas.error_over_residual.append(
                _error_ratio(res.x, tight.x, res.final_residual)
            )
        out[strategy] = meas
        if verbose:
            print(
                f"[measure] {dataset.label} MG {strategy}: "
                f"{meas.mean_iterations:.1f} outer iters"
            )
    return out


# ----------------------------------------------------------------------
# replay mode
# ----------------------------------------------------------------------
def synthetic_level_profile(
    outer_iters: float,
    l1_iters_per_cycle: float = 6.0,
    l2_iters_per_solve: float = 12.0,
    smoother_steps: int = 4,
) -> dict[int, dict]:
    """A canonical three-level K-cycle work profile for replay pricing.

    Per outer GCR iteration: one preconditioned matvec plus the K-cycle
    (pre/post smooth, two residuals, transfer down/up, an intermediate
    GCR of ``l1_iters_per_cycle`` iterations, each of which recurses).
    """
    sm = 2 * (smoother_steps + 1)
    red0 = 4 * smoother_steps + 6
    l1 = l1_iters_per_cycle * outer_iters
    return {
        0: dict(
            op_applies=3 * outer_iters,
            smoother_applies=sm * outer_iters,
            gcr_iters=outer_iters,
            restricts=outer_iters,
            prolongs=outer_iters,
            reductions=red0 * outer_iters,
        ),
        1: dict(
            op_applies=4 * l1,
            smoother_applies=sm * l1,
            gcr_iters=l1,
            restricts=l1,
            prolongs=l1,
            reductions=(red0 + 6) * l1,
        ),
        2: iterated_coarsest_profile(l1, l2_iters_per_solve),
    }


def iterated_coarsest_profile(
    coarsest_solves: float, iters_per_solve: float = 12.0
) -> dict:
    """The coarsest-level row of a cycle that *iterates* on its coarsest
    grid, as the paper's does: ``iters_per_solve`` red-black GCR(10)
    iterations per coarsest solve — a stencil each, plus source
    preparation and reconstruction — and their reductions."""
    l2 = iters_per_solve * coarsest_solves
    return dict(
        op_applies=l2 + 2 * coarsest_solves,
        smoother_applies=0,
        gcr_iters=l2,
        restricts=0,
        prolongs=0,
        reductions=7.5 * l2,
    )


#: what the renderers say when :func:`paper_scale_stats` replaced a row
COARSEST_REPRICED_NOTE = (
    "note: the scaled hierarchy solves its coarsest grid directly (a dense "
    "factorisation of a 16-site system: no iterations, no reductions), which "
    "says nothing about a 2^4-per-node coarsest grid spread over hundreds of "
    "nodes; that level is priced with the canonical iterated profile "
    "(12 GCR iterations per measured coarsest solve)"
)


def paper_scale_stats(level_stats: dict[int, dict]) -> tuple[dict[int, dict], bool]:
    """Measured ``level_stats`` as the machine model should price them
    at paper scale, and whether the coarsest row was replaced.

    A coarsest level that was solved directly books stencil work
    (source preparation and reconstruction) but no iteration and no
    reduction; priced as is, the modelled coarsest share collapses —
    the opposite of Figure 4 — because a factorisation that fits one
    host's cache was measured where the paper distributes the grid.
    Its row is replaced by :func:`iterated_coarsest_profile` of the
    measured number of coarsest solves (the restrictions of the level
    above); every other row, and an iterated coarsest level, pass
    through.
    """
    last = max(level_stats)
    row = level_stats[last]
    if last == 0 or row.get("gcr_iters") or not row.get("op_applies"):
        return level_stats, False
    solves = level_stats[last - 1]["restricts"]
    return {**level_stats, last: iterated_coarsest_profile(solves)}, True


# ----------------------------------------------------------------------
# Titan-scale pricing
# ----------------------------------------------------------------------
@dataclass
class Table3Row:
    dataset: str
    nodes: int
    solver: str
    iterations: float
    iterations_std: float
    time_s: float
    error_over_residual: float | None
    cost_node_s: float
    speedup: float | None
    solver_time: SolverTime
    #: the measured coarsest level was solved directly and is priced as
    #: iterated on (:func:`paper_scale_stats`)
    coarsest_repriced: bool = False


def price_dataset(
    paper: PaperDataset,
    measurements: dict[str, SolverMeasurement] | None,
    model: MachineModel | None = None,
) -> list[Table3Row]:
    """Price a dataset's solver comparison at every paper node count.

    With ``measurements`` (measured mode) iteration counts and work
    profiles come from real solves; without (replay mode) they come
    from the paper's Table 3 and the canonical profile.
    """
    model = model or MachineModel()
    rows: list[Table3Row] = []
    for nodes in paper.node_counts:
        blockings = paper.blockings[nodes]
        bicg_row = _paper_row(paper.label, nodes, "BiCGStab")
        fine = mg_level_specs(paper.dims, blockings, [24, 24])[0]

        # BiCGStab iteration counts are volume-dependent (the condition
        # number tracks the low-mode density, which grows with V), so the
        # paper-scale pricing always uses the paper's counts; the scaled
        # measurement still demonstrates the critical slowing down and
        # supplies the error/residual quality ratio.  MG iteration counts
        # are volume-insensitive and the measured values are used as-is.
        bicg_iters, bicg_std = bicg_row.iterations, bicg_row.iterations_std
        if measurements is not None:
            bicg_err = measurements["BiCGStab"].mean_error_over_residual
        else:
            bicg_err = bicg_row.error_over_residual
        bt = bicgstab_time(model, fine, nodes, bicg_iters)
        rows.append(
            Table3Row(
                paper.label, nodes, "BiCGStab", bicg_iters, bicg_std,
                bt.total_s, bicg_err, nodes * bt.total_s, None, bt,
            )
        )

        strategies = (
            [s for s in measurements if s != "BiCGStab"]
            if measurements is not None
            else [r.solver for r in table3_rows(paper.label, nodes) if r.solver != "BiCGStab"]
        )
        for strategy in strategies:
            n1, n2 = strategy_nulls(strategy)
            levels = mg_level_specs(paper.dims, blockings, [n1, n2])
            if measurements is not None:
                m = measurements[strategy]
                iters, iters_std = m.mean_iterations, m.std_iterations
                stats, repriced = paper_scale_stats(m.mean_level_stats())
                err = m.mean_error_over_residual
            else:
                prow = _paper_row(paper.label, nodes, strategy)
                if prow is None:
                    continue
                iters, iters_std = prow.iterations, prow.iterations_std
                stats, repriced = synthetic_level_profile(iters), False
                err = prow.error_over_residual
            mt = mg_time(model, levels, nodes, stats, iters)
            rows.append(
                Table3Row(
                    paper.label, nodes, strategy, iters, iters_std,
                    mt.total_s, err, nodes * mt.total_s,
                    bt.total_s / mt.total_s, mt, repriced,
                )
            )
    return rows


def _paper_row(dataset: str, nodes: int, solver: str):
    matches = [r for r in table3_rows(dataset, nodes) if r.solver == solver]
    return matches[0] if matches else None


def compute_all_rows(
    mode: str = "replay",
    datasets: tuple[str, ...] = ("Aniso40", "Iso48", "Iso64"),
    n_rhs: int = 2,
    verbose: bool = False,
) -> list[Table3Row]:
    """The full Table 3 in either mode."""
    model = MachineModel()
    rows: list[Table3Row] = []
    for label in datasets:
        paper = PAPER_DATASETS[label]
        measurements = None
        if mode == "measured":
            measurements = measure_dataset(
                SCALED_FOR_PAPER[label], n_rhs=n_rhs, verbose=verbose
            )
        elif mode != "replay":
            raise ValueError(f"unknown mode {mode!r}")
        rows.extend(price_dataset(paper, measurements, model))
    return rows
