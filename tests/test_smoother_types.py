"""The multigrid smoother: the paper's red-black MR smoother converges the solve."""

import numpy as np
import pytest

from repro.dirac import WilsonCloverOperator
from repro.gauge import disordered_field
from repro.lattice import Lattice
from repro.mg import LevelParams, MGParams, MultigridSolver
from repro.solvers import norm
from tests.conftest import random_spinor


@pytest.fixture(scope="module")
def problem():
    lat = Lattice((4, 4, 4, 8))
    u = disordered_field(lat, np.random.default_rng(11), 0.55, smear_steps=1)
    op = WilsonCloverOperator(u, mass=-1.406 + 0.03, c_sw=1.0)
    return op, random_spinor(lat, seed=77)


def solve_with(op, b, **extra):
    params = MGParams(
        levels=[LevelParams(block=(2, 2, 2, 4), n_null=8, null_iters=50)],
        outer_tol=1e-8,
        **extra,
    )
    mgs = MultigridSolver(op, params, np.random.default_rng(5))
    return mgs.solve(b)


class TestSmootherTypes:
    @pytest.mark.parametrize("stype,extra", [("schur-mr", {})])
    def test_all_types_converge(self, problem, stype, extra):
        op, b = problem
        res = solve_with(op, b, **extra)
        assert res.converged, stype
        assert norm(b - op.apply(res.x)) / norm(b) < 2e-8
