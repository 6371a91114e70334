"""The propagator workload: 12 independent solves per configuration.

The paper's methodology (Section 7.1): compute a "propagator" — one
solve per fine-grid spin-color component of a point source — average
the wallclock over the last 11 solves (the first pays autotuning), and
estimate the solver error with the double-solve strategy of Osborn et
al. [17]: re-solve to much tighter tolerance and measure the error of
the production solution against it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..fields import SpinorField
from ..solvers.base import SolveResult, norm


@dataclass
class PropagatorResult:
    """Aggregated statistics over the 12 solves."""

    iterations: list[float] = field(default_factory=list)
    times_s: list[float] = field(default_factory=list)
    error_over_residual: list[float] = field(default_factory=list)
    level_stats: list[dict] = field(default_factory=list)

    def mean_iterations(self) -> float:
        return float(np.mean(self.iterations))

    def std_iterations(self) -> float:
        return float(np.std(self.iterations))

    def mean_error_over_residual(self) -> float:
        return float(np.mean(self.error_over_residual))

    def mean_level_stats(self) -> dict[int, dict]:
        """Per-solve average of the per-level work counters.

        Robust to heterogeneous snapshots: solves routed through
        different paths (direct K-cycle, batched multi-RHS, cached
        setups) may report different level indices or counter fields.
        Each (level, field) is averaged over the solves that actually
        reported it.
        """
        if not self.level_stats:
            return {}
        levels = sorted({lvl for snap in self.level_stats for lvl in snap})
        out: dict[int, dict] = {}
        for lvl in levels:
            present = [snap[lvl] for snap in self.level_stats if lvl in snap]
            fields = sorted({f for stats in present for f in stats})
            out[int(lvl)] = {
                f: float(np.mean([stats[f] for stats in present if f in stats]))
                for f in fields
            }
        return out


def run_propagator(
    solve,
    lattice,
    op,
    source_site: int = 0,
    n_components: int = 12,
    error_check_factor: float = 1e-3,
    rng: np.random.Generator | None = None,
    service=None,
    operator_name: str | None = None,
    direct: bool = False,
) -> PropagatorResult:
    """Run the 12-component propagator workload.

    Parameters
    ----------
    solve:
        Callable ``solve(b) -> SolveResult`` at the production tolerance
        (the direct path; may be ``None`` when a ``service`` is given).
    op:
        The fine operator (used to verify residuals and for the
        double-solve error estimate).
    error_check_factor:
        The double solve runs at ``tol * error_check_factor``.
    service / operator_name:
        A :class:`~repro.serve.SolveService` and the name ``op`` is
        registered under.  When given, all component solves go in as
        one atomic burst (``submit_many``), which the service's workers
        take as multi-RHS batches.  ``direct=True`` forces the old
        one-at-a-time path through ``solve`` even when a service is
        supplied.
    """
    if service is not None and not direct:
        if operator_name is None:
            raise ValueError("operator_name is required when routing via a service")
        return _run_propagator_service(
            service,
            operator_name,
            lattice,
            source_site=source_site,
            n_components=n_components,
            error_check_factor=error_check_factor,
        )

    import time

    result = PropagatorResult()
    for spin in range(4):
        for color in range(3):
            if len(result.iterations) >= n_components:
                break
            b = SpinorField.point_source(lattice, source_site, spin, color)
            t0 = time.perf_counter()
            res: SolveResult = solve(b.data)
            dt = time.perf_counter() - t0
            result.iterations.append(res.iterations)
            result.times_s.append(dt)
            if res.telemetry.level_stats:
                result.level_stats.append(res.telemetry.level_stats)
            # double-solve error estimate: continue to much tighter tol
            tight = solve(b.data, tol_override=res.final_residual * error_check_factor)
            err = norm(res.x - tight.x) / max(norm(tight.x), 1e-300)
            rel_resid = max(res.final_residual, 1e-300)
            result.error_over_residual.append(err / rel_resid)
    return result


def _run_propagator_service(
    service,
    operator_name: str,
    lattice,
    source_site: int,
    n_components: int,
    error_check_factor: float,
) -> PropagatorResult:
    """Propagator via the solve service: the components go in as one
    burst, so the dynamic batcher turns them into multi-RHS solves."""
    import time

    components = [
        (spin, color) for spin in range(4) for color in range(3)
    ][:n_components]
    sources = [
        SpinorField.point_source(lattice, source_site, spin, color)
        for spin, color in components
    ]

    result = PropagatorResult()
    t0 = time.perf_counter()
    futures = service.submit_many(operator_name, [b.data for b in sources])
    solves: list[SolveResult] = []
    for fut in futures:
        res = fut.result()
        solves.append(res)
        result.iterations.append(res.iterations)
        result.times_s.append(time.perf_counter() - t0)
        if res.telemetry.level_stats:
            result.level_stats.append(res.telemetry.level_stats)

    # double-solve error estimates, again as one batchable burst; a
    # shared tight tolerance keeps the burst coalescible (one batch
    # group) and is at least as strict as each per-solve requirement
    tight_tol = min(
        res.final_residual * error_check_factor for res in solves
    )
    tights = service.solve_many(
        operator_name, [b.data for b in sources], tol=tight_tol
    )
    for res, tight in zip(solves, tights):
        err = norm(res.x - tight.x) / max(norm(tight.x), 1e-300)
        rel_resid = max(res.final_residual, 1e-300)
        result.error_over_residual.append(err / rel_resid)
    return result
