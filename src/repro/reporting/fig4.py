"""Figure 4: time spent per multigrid level vs node count (Iso64, 24/32).

Shows the coarsest level's share of the solve growing with node count —
the log(N) global-synchronization cost of the coarse-grid GCR solver
(Section 7.2).

Measured mode is backed by the telemetry layer: the per-level work
profiles come from :class:`~repro.telemetry.SolveTelemetry` payloads
recorded during real solves (the same data ``repro trace`` serializes),
and ``render(trace=path)`` prices a previously exported trace
document without re-running any solve.  A scaled hierarchy solves its
coarsest grid directly; that level is then priced with the canonical
iterated profile (:func:`~.experiments.paper_scale_stats`) and the
rendered figure says so.
"""

from __future__ import annotations

import sys

from ..machine import MachineModel, mg_level_specs, mg_time
from ..telemetry import load_trace
from ..workloads import ISO64, SCALED_FOR_PAPER, table3_rows
from .experiments import (
    COARSEST_REPRICED_NOTE,
    measure_dataset,
    paper_scale_stats,
    synthetic_level_profile,
)
from .format import render_series

STRATEGY = "24/32"


def level_stats_from_trace(doc: dict) -> dict[int, dict[str, float]]:
    """Mean per-solve, per-level work counters out of a trace document.

    Reads the ``mg.*`` counters the multigrid solver publishes into the
    metrics registry (labelled by level) and normalizes them by the
    number of recorded MG solves.
    """
    counters = doc["metrics"].get("counter", {})
    n_solves = sum(e["value"] for e in counters.get("mg.solves", [])) or 1.0
    out: dict[int, dict[str, float]] = {}
    for name, entries in counters.items():
        if not name.startswith("mg.") or name in ("mg.solves", "mg.outer_iterations"):
            continue
        for entry in entries:
            level = entry["labels"].get("level")
            if level is None:
                continue
            out.setdefault(int(level), {})[name[3:]] = entry["value"] / n_solves
    return out


def outer_iterations_from_trace(doc: dict) -> float:
    """Mean outer GCR iterations per MG solve recorded in the trace."""
    counters = doc["metrics"].get("counter", {})
    n_solves = sum(e["value"] for e in counters.get("mg.solves", [])) or 1.0
    total = sum(e["value"] for e in counters.get("mg.outer_iterations", []))
    return total / n_solves


def compute(
    mode: str = "replay",
    n_rhs: int = 2,
    trace: str | None = None,
) -> tuple[list[int], dict[str, list[float]], bool]:
    """Node counts, per-level seconds at each, and whether the coarsest
    level of a measured profile was repriced as iterated on."""
    model = MachineModel()
    levels = mg_level_specs(ISO64.dims, ISO64.blockings[64], [24, 32])
    nodes_list = list(ISO64.node_counts)

    if trace is not None:
        doc = load_trace(trace)
        iters = outer_iterations_from_trace(doc)
        stats = level_stats_from_trace(doc)
    elif mode == "measured":
        meas = measure_dataset(
            SCALED_FOR_PAPER["Iso64"], strategies=(STRATEGY,), n_rhs=n_rhs
        )[STRATEGY]
        iters = meas.mean_iterations
        stats = meas.mean_level_stats()
    else:
        stats = None
    repriced = False
    if stats is not None:
        stats, repriced = paper_scale_stats(stats)

    per_level: dict[str, list[float]] = {f"level {l + 1}": [] for l in range(len(levels))}
    for nodes in nodes_list:
        if stats is None:
            prow = [r for r in table3_rows("Iso64", nodes) if r.solver == STRATEGY][0]
            iters = prow.iterations
            node_stats = synthetic_level_profile(iters)
        else:
            node_stats = stats
        st = mg_time(model, levels, nodes, node_stats, iters)
        for l in range(len(levels)):
            per_level[f"level {l + 1}"].append(st.level_seconds.get(l, 0.0))
    return nodes_list, per_level, repriced


def render(mode: str = "replay", n_rhs: int = 2, trace: str | None = None) -> str:
    nodes_list, per_level, repriced = compute(mode, n_rhs, trace=trace)
    fractions = {
        "coarsest fraction": [
            per_level["level 3"][i]
            / max(sum(per_level[k][i] for k in per_level), 1e-30)
            for i in range(len(nodes_list))
        ]
    }
    source = "trace" if trace is not None else mode
    out = render_series(
        "Nodes",
        nodes_list,
        per_level,
        title=f"Figure 4 ({source}): per-level seconds, Iso64, {STRATEGY} strategy",
    )
    out += "\n" + render_series("Nodes", nodes_list, fractions)
    if repriced:
        out += "\n" + COARSEST_REPRICED_NOTE
    return out


if __name__ == "__main__":
    print(render(sys.argv[1] if len(sys.argv) > 1 else "replay"))
