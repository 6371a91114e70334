"""Figure 4 regeneration: per-level time breakdown, Iso64 / 24/32."""

import pytest

from repro.machine import mg_level_specs, mg_time
from repro.reporting import fig4
from repro.reporting.experiments import paper_scale_stats
from repro.workloads import ISO64

from _shared import machine_model, measured, record_row


def _measured_fig4():
    m = measured("Iso64")["24/32"]
    levels = mg_level_specs(ISO64.dims, ISO64.blockings[64], [24, 32])
    model = machine_model()
    iters = m.mean_iterations
    # the scaled coarsest grid is solved directly: priced as iterated on
    stats, _ = paper_scale_stats(m.mean_level_stats())
    out = {}
    for nodes in ISO64.node_counts:
        st = mg_time(model, levels, nodes, stats, iters)
        out[nodes] = st.level_seconds
    return out


def test_fig4_measured_report(benchmark, capsys):
    data = benchmark.pedantic(_measured_fig4, rounds=1, iterations=1)
    lines = ["Figure 4 (measured work profile): Iso64, 24/32 — seconds per level"]
    lines.append(f"{'nodes':>6} {'level 1':>9} {'level 2':>9} {'level 3':>9} {'coarse %':>9}")
    for nodes, lv in data.items():
        total = sum(lv.values())
        lines.append(
            f"{nodes:>6} {lv[0]:>9.3f} {lv[1]:>9.3f} {lv[2]:>9.3f} "
            f"{100 * lv[2] / total:>8.1f}%"
        )
        record_row(
            "fig4_breakdown",
            benchmark="fig4.level_seconds",
            nodes=nodes,
            level_seconds={str(k): v for k, v in lv.items()},
            coarsest_fraction=lv[2] / total,
        )
    with capsys.disabled():
        print("\n" + "\n".join(lines))
    assert set(data) == set(ISO64.node_counts)


def test_coarsest_fraction_grows_measured(benchmark):
    """The paper's Figure-4 observation: the coarsest grid becomes an
    ever-increasing fraction of the solve as the node count grows."""
    benchmark.pedantic(measured, args=("Iso64",), rounds=1, iterations=1)
    data = _measured_fig4()
    fracs = [lv[2] / sum(lv.values()) for lv in data.values()]
    assert all(b > a for a, b in zip(fracs, fracs[1:]))


def test_fine_level_strong_scales_measured(benchmark):
    benchmark.pedantic(measured, args=("Iso64",), rounds=1, iterations=1)
    data = _measured_fig4()
    lvl1 = [lv[0] for lv in data.values()]
    assert lvl1[0] > lvl1[-1]


def test_fig4_replay_report(benchmark, capsys):
    out = benchmark.pedantic(fig4.render, kwargs={"mode": "replay"}, rounds=1, iterations=1)
    with capsys.disabled():
        print("\n" + out)
    assert "coarsest fraction" in out


def test_bench_fig4_model_eval(benchmark):
    """Pricing cost of one full Figure-4 sweep."""
    benchmark.pedantic(_measured_fig4, rounds=1, iterations=1)
