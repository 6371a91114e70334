"""Table 3: MG vs BiCGStab — iterations, time, error/residual, cost, speedup.

Run as ``python -m repro.reporting.table3 [measured|replay]``; the
benchmark suite runs the measured mode with more right-hand sides.
"""

from __future__ import annotations

import sys

from ..machine import MachineModel, TITAN, node_power_watts
from ..workloads import table3_rows
from .experiments import COARSEST_REPRICED_NOTE, Table3Row, compute_all_rows
from .format import render_table


def render(rows: list[Table3Row], mode: str) -> str:
    headers = [
        "Dataset",
        "Nodes",
        "Solver",
        "Iter.",
        "Time(s)",
        "Err/Res",
        "Nodes x Time",
        "Speedup",
        "Power(W)",
        "paper Iter.",
        "paper Time",
        "paper Speedup",
    ]
    body = []
    for r in rows:
        paper = [p for p in table3_rows(r.dataset, r.nodes) if p.solver == r.solver]
        p = paper[0] if paper else None
        body.append(
            [
                r.dataset,
                r.nodes,
                r.solver,
                f"{r.iterations:.1f}",
                f"{r.time_s:.2f}",
                f"{r.error_over_residual:.1f}" if r.error_over_residual else "-",
                f"{r.cost_node_s:.0f}",
                f"{r.speedup:.1f}" if r.speedup else "-",
                f"{node_power_watts(TITAN, r.solver_time):.0f}",
                f"{p.iterations:.0f}" if p else "-",
                f"{p.time_s:.2f}" if p else "-",
                f"{p.speedup:.1f}" if p and p.speedup else "-",
            ]
        )
    title = (
        f"Table 3 ({mode} mode): multigrid vs BiCGStab at Titan scale "
        f"(model wallclock; paper columns for reference)"
    )
    out = render_table(headers, body, title=title)
    if any(r.coarsest_repriced for r in rows):
        out += "\n" + COARSEST_REPRICED_NOTE
    return out


def main(mode: str = "replay", n_rhs: int = 2, verbose: bool = True) -> str:
    rows = compute_all_rows(mode=mode, n_rhs=n_rhs, verbose=verbose)
    return render(rows, mode)


if __name__ == "__main__":
    mode = sys.argv[1] if len(sys.argv) > 1 else "replay"
    print(main(mode))
