"""Convergence-history rendering and statistics."""

import numpy as np
import pytest

from repro.reporting.convergence import convergence_rate, render_history, smoothness


class TestSmoothness:
    def test_monotone_is_zero(self):
        assert smoothness([1.0, 0.5, 0.2, 0.1]) == 0.0

    def test_alternating_is_large(self):
        assert smoothness([1.0, 2.0, 1.0, 2.0, 1.0]) == 0.5

    def test_short_history(self):
        assert smoothness([1.0]) == 0.0

    def test_mg_smoother_than_bicgstab(self):
        # the paper's robustness observation, measured near criticality
        # (a well-conditioned system converges smoothly for everyone)
        from repro.dirac import WilsonCloverOperator
        from repro.gauge import disordered_field
        from repro.lattice import Lattice
        from repro.mg import SchurMRSmoother
        from repro.solvers import bicgstab, gcr
        from tests.conftest import random_spinor

        lat = Lattice((4, 4, 4, 8))
        u = disordered_field(lat, np.random.default_rng(11), 0.55, smear_steps=1)
        op = WilsonCloverOperator(u, mass=-1.406 + 0.02, c_sw=1.0)
        b = random_spinor(lat, seed=30)
        res_bi = bicgstab(op, b, tol=1e-8, maxiter=50000)
        res_gcr = gcr(
            op, b, tol=1e-8, maxiter=5000,
            preconditioner=SchurMRSmoother(op, steps=4),
        )
        assert smoothness(res_gcr.residual_history) == 0.0  # GCR minimizes
        assert smoothness(res_bi.residual_history) > 0.1  # BiCGStab is erratic


class TestRate:
    def test_contraction(self):
        rate = convergence_rate([1.0, 0.1, 0.01])
        assert rate == pytest.approx(0.1)

    def test_degenerate(self):
        assert convergence_rate([1.0]) == 1.0
        assert convergence_rate([0.0, 0.0]) == 1.0


class TestRender:
    def test_contains_markers_and_legend(self):
        out = render_history(
            {"MG": [1.0, 1e-4, 1e-8], "BiCGStab": [1.0, 0.5, 2.0, 1e-8]},
            title="conv",
        )
        assert "conv" in out
        assert "legend" in out
        assert "*" in out and "o" in out

    def test_empty(self):
        assert "no data" in render_history({})

    def test_width_respected(self):
        out = render_history({"s": [1.0, 0.1]}, width=32, height=6)
        rows = [l for l in out.splitlines() if l.startswith("|")]
        assert len(rows) == 6
        assert all(len(r) == 34 for r in rows)
