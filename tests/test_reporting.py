"""Report generators: formatting and replay-mode content."""

import numpy as np
import pytest

from repro.reporting import fig2, fig3, fig4, table1, table2, table3
from repro.reporting.experiments import (
    COARSEST_REPRICED_NOTE,
    compute_all_rows,
    iterated_coarsest_profile,
    paper_scale_stats,
    synthetic_level_profile,
)
from repro.reporting.format import render_series, render_table


class TestFormat:
    def test_render_table_alignment(self):
        out = render_table(["a", "bb"], [[1, 2.5], [10, 3.25]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert "a" in lines[0] and "bb" in lines[0]

    def test_render_table_none_as_dash(self):
        out = render_table(["x"], [[None]])
        assert "-" in out.splitlines()[-1]

    def test_render_series(self):
        out = render_series("L", [10, 2], {"s": [1.0, 2.0]})
        assert "10" in out and "s" in out


class TestStaticTables:
    def test_table1_contains_datasets(self):
        out = table1.render()
        for label in ("Aniso40", "Iso48", "Iso64"):
            assert label in out
        assert "256" in out  # Aniso40 Lt

    def test_table2_contains_blockings(self):
        out = table2.render()
        assert "5x5x2x8" in out
        assert "3x3x3x2" in out
        assert "1e-07" in out


class TestFig2:
    def test_series_structure(self):
        series = fig2.compute()
        assert len(series) == 8  # 4 strategies x 2 colors
        for vals in series.values():
            assert len(vals) == len(fig2.LATTICE_LENGTHS)

    def test_render_mentions_speedup(self):
        out = fig2.render()
        assert "speedup" in out
        assert "Figure 2" in out


class TestReplayRows:
    @pytest.fixture(scope="class")
    def rows(self):
        return compute_all_rows(mode="replay")

    def test_covers_all_paper_rows(self, rows):
        assert len(rows) == 31

    def test_mg_speedups_positive(self, rows):
        for r in rows:
            if r.solver != "BiCGStab":
                assert r.speedup is not None and r.speedup > 1.5

    def test_speedup_band_matches_paper_shape(self, rows):
        # paper: typically 5-8x, above 10x for some Iso64 points; the
        # model should land every MG point between 2x and 15x
        sp = [r.speedup for r in rows if r.speedup is not None]
        assert min(sp) > 2 and max(sp) < 15

    def test_render_table3(self, rows):
        out = table3.render(rows, "replay")
        assert "Table 3" in out
        assert "BiCGStab" in out and "24/32" in out

    def test_fig3_render(self, rows):
        out = fig3.render(rows, "replay")
        assert out.count("Figure 3 panel") == 3

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            compute_all_rows(mode="nonsense")


class TestFig4:
    def test_coarsest_fraction_grows(self):
        nodes, per_level, repriced = fig4.compute(mode="replay")
        assert not repriced
        totals = [
            sum(per_level[k][i] for k in per_level) for i in range(len(nodes))
        ]
        fracs = [per_level["level 3"][i] / totals[i] for i in range(len(nodes))]
        assert all(b > a for a, b in zip(fracs, fracs[1:]))

    def test_render(self):
        out = fig4.render(mode="replay")
        assert "Figure 4" in out and "level 3" in out


class TestFig4MeasuredCoarsest:
    """A scaled hierarchy solves its 16-site coarsest grid directly; the
    machine model must not price that as the paper's coarsest grid."""

    @pytest.fixture(scope="class")
    def trace_path(self, aniso40_solve, tmp_path_factory):
        from repro import telemetry
        from repro.fields import SpinorField

        ds, solver, _ = aniso40_solve
        b = SpinorField.random(ds.lattice(), rng=np.random.default_rng(0))
        path = tmp_path_factory.mktemp("fig4") / "trace.json"
        telemetry.enable()
        telemetry.reset()
        try:
            result = solver.solve(b.data, tol=5e-6)
            telemetry.write_trace(path, meta={"kind": "test"})
        finally:
            telemetry.disable()
            telemetry.reset()
        assert result.telemetry.level_stats[2]["gcr_iters"] == 0
        return path

    def test_direct_coarsest_row_is_repriced_as_iterated(self, aniso40_solve):
        stats = aniso40_solve[2].telemetry.level_stats
        priced, repriced = paper_scale_stats(stats)
        assert repriced
        solves = stats[1]["restricts"]
        assert priced[2] == iterated_coarsest_profile(solves)
        assert priced[2]["gcr_iters"] == 12 * solves
        assert priced[2]["op_applies"] == 14 * solves
        assert priced[2]["reductions"] == 90 * solves
        assert priced[0] is stats[0] and priced[1] is stats[1]
        # an iterated coarsest level and the replay profile pass through
        again, repriced = paper_scale_stats(priced)
        assert again is priced and not repriced
        synthetic = synthetic_level_profile(17.0)
        assert paper_scale_stats(synthetic) == (synthetic, False)
        assert synthetic[2] == iterated_coarsest_profile(synthetic[1]["restricts"])

    def test_coarsest_fraction_still_grows_with_node_count(self, trace_path):
        nodes, per_level, repriced = fig4.compute(trace=str(trace_path))
        assert repriced
        totals = [sum(per_level[k][i] for k in per_level) for i in range(len(nodes))]
        fracs = [per_level["level 3"][i] / totals[i] for i in range(len(nodes))]
        assert all(b > a for a, b in zip(fracs, fracs[1:]))
        assert fracs[-1] > 0.2

    def test_rendered_figure_says_so(self, trace_path):
        out = fig4.render(trace=str(trace_path))
        assert COARSEST_REPRICED_NOTE in out
        assert COARSEST_REPRICED_NOTE not in fig4.render(mode="replay")

    def test_table3_says_so_only_for_rows_it_repriced(self, aniso40_solve):
        from repro.reporting.experiments import SolverMeasurement, price_dataset
        from repro.telemetry import SolveTelemetry
        from repro.workloads import PAPER_DATASETS

        direct = aniso40_solve[2].telemetry.level_stats
        iterated = paper_scale_stats(direct)[0]

        def rows_of(level_stats):
            measurements = {
                name: SolverMeasurement(name, [11.0], [1.0], [SolveTelemetry(level_stats)])
                for name in ("BiCGStab", "24/24")
            }
            return price_dataset(PAPER_DATASETS["Aniso40"], measurements)

        rows = rows_of(direct)
        assert [r.coarsest_repriced for r in rows] == [r.solver != "BiCGStab" for r in rows]
        assert COARSEST_REPRICED_NOTE in table3.render(rows, "measured")
        # a measured hierarchy that iterated on its coarsest grid is priced as measured
        rows = rows_of(iterated)
        assert not any(r.coarsest_repriced for r in rows)
        assert COARSEST_REPRICED_NOTE not in table3.render(rows, "measured")


class TestSyntheticProfile:
    def test_scales_with_outer_iterations(self):
        p1 = synthetic_level_profile(1.0)
        p10 = synthetic_level_profile(10.0)
        for lvl in (0, 1, 2):
            assert p10[lvl]["op_applies"] == pytest.approx(10 * p1[lvl]["op_applies"])

    def test_has_three_levels(self):
        assert set(synthetic_level_profile(5.0)) == {0, 1, 2}
