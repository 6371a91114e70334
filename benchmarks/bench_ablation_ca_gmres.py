"""Ablation: CA-GMRES as the coarse-grid solver (paper Section 9).

Figure 4 shows the coarsest level becoming synchronization-bound at
scale (log N allreduce latency per GCR orthogonalization step).  The
s-step solver trades a few extra matvecs for ~s-fold fewer global
reductions; priced on the Titan model, the coarsest-level time at 512
nodes drops substantially.
"""

import numpy as np
import pytest

from repro.coarse import coarsen_operator
from repro.lattice import Blocking, Lattice
from repro.machine import MachineModel, mg_level_specs
from repro.solvers import ca_gmres, gcr
from repro.transfer import Transfer
from repro.workloads import ISO64

from tests.conftest import random_spinor

from _shared import record_row


@pytest.fixture(scope="module")
def coarse_system():
    lat = Lattice((4, 4, 4, 8))
    from repro.dirac import WilsonCloverOperator
    from repro.gauge import disordered_field

    u = disordered_field(lat, np.random.default_rng(3), 0.5, smear_steps=1)
    op = WilsonCloverOperator(u, mass=-1.0, c_sw=1.0)
    t = Transfer(
        Blocking(lat, (2, 2, 2, 4)),
        [random_spinor(lat, seed=800 + k) for k in range(6)],
    )
    mc = coarsen_operator(op, t)
    rng = np.random.default_rng(4)
    b = rng.standard_normal((mc.lattice.volume, 2, 6)) + 1j * rng.standard_normal(
        (mc.lattice.volume, 2, 6)
    )
    return mc, b


def test_bench_gcr_coarse_solve(benchmark, coarse_system):
    mc, b = coarse_system
    res = benchmark.pedantic(
        gcr, args=(mc, b), kwargs={"tol": 1e-6, "maxiter": 500}, rounds=3, iterations=1
    )
    assert res.converged
    benchmark.extra_info["matvecs"] = res.matvecs


@pytest.mark.parametrize("s", [2, 4, 8])
def test_bench_ca_gmres_coarse_solve(benchmark, coarse_system, s):
    mc, b = coarse_system
    res = benchmark.pedantic(
        ca_gmres, args=(mc, b), kwargs={"tol": 1e-6, "maxiter": 600, "s": s},
        rounds=3, iterations=1,
    )
    assert res.converged
    benchmark.extra_info["matvecs"] = res.matvecs
    benchmark.extra_info["reductions"] = res.telemetry.attrs["reductions"]
    record_row(
        "ablation_ca_gmres",
        benchmark=f"ca_gmres.s{s}",
        matvecs=res.matvecs,
        reductions=res.telemetry.attrs["reductions"],
    )


def test_sync_reduction_at_scale(benchmark, coarse_system, capsys):
    """Price the reduction savings at 512 Titan nodes."""
    mc, b = coarse_system

    def evaluate():
        from repro.solvers import gmres

        res_g = gmres(mc, b, tol=1e-6, maxiter=600)
        res_ca = ca_gmres(mc, b, tol=1e-6, maxiter=600, s=4)
        model = MachineModel()
        levels = mg_level_specs(ISO64.dims, ISO64.blockings[64], [24, 32])
        coarsest = levels[2]
        t_red = model.reduction_time(coarsest, 512)
        st = model.stencil_cost(coarsest, 512)
        t_g = res_g.matvecs * st.total_s + res_g.telemetry.attrs["reductions"] * t_red
        t_ca = res_ca.matvecs * st.total_s + res_ca.telemetry.attrs["reductions"] * t_red
        return res_g, res_ca, t_g, t_ca

    res_g, res_ca, t_g, t_ca = benchmark.pedantic(evaluate, rounds=1, iterations=1)
    with capsys.disabled():
        print(
            f"\nAblation (coarsest solve at 512 nodes, Titan model):\n"
            f"  GMRES   : {res_g.matvecs:4d} matvecs, {res_g.telemetry.attrs['reductions']:5d} "
            f"reductions -> {1e3 * t_g:7.2f} ms\n"
            f"  CA-GMRES: {res_ca.matvecs:4d} matvecs, {res_ca.telemetry.attrs['reductions']:5d} "
            f"reductions -> {1e3 * t_ca:7.2f} ms ({t_g / t_ca:.2f}x faster)"
        )
    assert res_ca.telemetry.attrs["reductions"] < res_g.telemetry.attrs["reductions"] / 2
    assert t_ca < t_g
