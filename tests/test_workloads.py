"""Workload definitions: paper datasets, scaled stand-ins, presets."""

import numpy as np
import pytest

from repro.lattice import Blocking
from repro.mg import MGParams
from repro.precision import Precision
from repro.workloads import (
    PAPER_DATASETS,
    PAPER_STRATEGIES,
    SCALED_DATASETS,
    SCALED_FOR_PAPER,
    TABLE3,
    mg_params_for,
    strategy_nulls,
    table3_rows,
    two_level_params,
)


class TestPaperDatasets:
    def test_three_datasets(self):
        assert set(PAPER_DATASETS) == {"Aniso40", "Iso48", "Iso64"}

    def test_table1_values(self):
        a = PAPER_DATASETS["Aniso40"]
        assert a.dims == (40, 40, 40, 256)
        assert a.m_pi_mev == 230
        i = PAPER_DATASETS["Iso64"]
        assert i.target_residuum == 1e-7
        assert i.node_counts == (64, 128, 256, 512)

    def test_blockings_tile_dims(self):
        for d in PAPER_DATASETS.values():
            for nodes, blocks in d.blockings.items():
                dims = d.dims
                for block in blocks:
                    assert all(x % b == 0 for x, b in zip(dims, block)), (
                        d.label,
                        nodes,
                        block,
                    )
                    dims = tuple(x // b for x, b in zip(dims, block))


class TestScaledDatasets:
    def test_one_per_paper_dataset(self):
        assert set(SCALED_FOR_PAPER) == set(PAPER_DATASETS)

    def test_blockings_valid(self):
        for s in SCALED_DATASETS.values():
            lat = s.lattice()
            for block in s.blockings:
                b = Blocking(lat, block)
                lat = b.coarse

    def test_gauge_deterministic(self):
        s = SCALED_FOR_PAPER["Aniso40"]
        a = s.gauge()
        b = s.gauge()
        assert np.array_equal(a.data, b.data)

    def test_mass_is_near_critical(self):
        for s in SCALED_DATASETS.values():
            assert s.delta_m > 0
            assert s.mass == pytest.approx(s.m_crit + s.delta_m)

    def test_scaled_null_counts(self):
        s = SCALED_FOR_PAPER["Iso48"]
        assert s.scaled_null(24) == 6
        assert s.scaled_null(32) == 8

    def test_operator_nonsingular_at_working_mass(self):
        # delta_m above the calibrated critical point: a solve must work
        from repro.dirac import WilsonCloverOperator
        from repro.solvers.bicgstab import bicgstab

        s = SCALED_FOR_PAPER["Aniso40"]
        op = WilsonCloverOperator(s.gauge(), **s.operator_kwargs())
        rng = np.random.default_rng(1)
        shape = (s.lattice().volume, 4, 3)
        b = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        res = bicgstab(op, b, tol=1e-6, maxiter=20000)
        assert res.converged


class TestPresets:
    def test_strategy_parse(self):
        assert strategy_nulls("24/32") == (24, 32)
        with pytest.raises(ValueError):
            strategy_nulls("24")

    def test_paper_strategies(self):
        assert PAPER_STRATEGIES == ("24/24", "24/32", "32/32")

    def test_three_level_params(self):
        s = SCALED_FOR_PAPER["Iso64"]
        p = mg_params_for(s, "24/32")
        assert isinstance(p, MGParams)
        assert p.n_levels == 3
        assert p.levels[0].n_null == 6
        assert p.levels[1].n_null == 8
        assert p.outer_tol == s.target_residuum
        assert p.extra["paper_strategy"] == "24/32"

    def test_mixed_precision_flag(self):
        s = SCALED_FOR_PAPER["Iso64"]
        p = mg_params_for(s, "24/24", mixed_precision=True)
        assert p.smoother_precision is Precision.HALF
        assert p.coarse_precision is Precision.SINGLE

    def test_two_level_params(self):
        s = SCALED_FOR_PAPER["Aniso40"]
        p = two_level_params(s, "32/32")
        assert p.n_levels == 2
        assert p.levels[0].n_null == 8


def test_the_preset_schedule_smooths_longer_and_iterates_less(aniso40_solve):
    """On one null space (Aniso40-scaled 24/24, setup seed 1) the presets'
    smoothing schedule takes fewer outer iterations than 4/4 for about
    the same level-0 smoother applications: the work moves from the
    outer GCR into each smoothing (DESIGN.md section 23)."""
    from repro.fields import SpinorField
    from repro.mg import MultigridSolver
    from tests.conftest import load_tool

    ds, solver, preset = aniso40_solve
    params = load_tool("sweep_smoothing").with_schedule(solver.params, 4, 4)
    assert params != solver.params
    four = MultigridSolver(
        solver.hierarchy.levels[0].op, params, np.random.default_rng(1),
        null_vectors=solver.hierarchy.export_null_vectors(),
    )
    b = SpinorField.random(ds.lattice(), rng=np.random.default_rng(0))
    baseline = four.solve(b.data, tol=5e-6)
    assert preset.converged and baseline.converged
    assert preset.iterations < baseline.iterations
    smoothed = preset.telemetry.level_stats[0]["smoother_applies"]
    assert smoothed <= 1.2 * baseline.telemetry.level_stats[0]["smoother_applies"]


class TestPaperReference:
    def test_table3_row_count(self):
        assert len(TABLE3) == 31

    def test_filtering(self):
        rows = table3_rows("Iso64", 128)
        assert len(rows) == 4
        assert {r.solver for r in rows} == {"BiCGStab", "24/24", "24/32", "32/32"}

    def test_speedups_in_paper_band(self):
        for r in TABLE3:
            if r.speedup is not None:
                assert 4.5 <= r.speedup <= 11

    def test_mg_iterations_flat(self):
        mg_iters = [r.iterations for r in TABLE3 if r.solver != "BiCGStab"]
        assert min(mg_iters) >= 13 and max(mg_iters) <= 18

    def test_bicgstab_iterations_thousands(self):
        bi = [r.iterations for r in TABLE3 if r.solver == "BiCGStab"]
        assert min(bi) > 1500
