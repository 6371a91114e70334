"""Solver infrastructure: results, counters, basic linear algebra."""

import numpy as np
import pytest

from repro.solvers import OperatorCounter, SolveResult, norm, norm2, vdot
from tests.conftest import random_spinor


class TestLinearAlgebra:
    def test_vdot_conjugate_linear(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
        b = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
        assert vdot(a, 2j * b) == pytest.approx(2j * vdot(a, b))
        assert vdot(2j * a, b) == pytest.approx(-2j * vdot(a, b))

    def test_norms_consistent(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        assert norm(a) == pytest.approx(np.sqrt(norm2(a)))
        assert norm2(a) == pytest.approx(vdot(a, a).real)

    def test_norm_matches_numpy(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((7, 2, 3)) + 1j * rng.standard_normal((7, 2, 3))
        assert norm(a) == pytest.approx(np.linalg.norm(a.ravel()))


class TestOperatorCounter:
    def test_counts_and_delegates(self, wilson44, lat44):
        counter = OperatorCounter(wilson44)
        v = random_spinor(lat44, seed=3)
        out = counter.apply(v)
        counter.apply(v)
        assert counter.count == 2
        np.testing.assert_array_equal(out, wilson44.apply(v))
        assert counter.ns == 4 and counter.nc == 3

    def test_reset(self, wilson44, lat44):
        counter = OperatorCounter(wilson44)
        counter.apply(random_spinor(lat44, seed=4))
        counter.reset()
        assert counter.count == 0

    def test_matvec_alias(self, wilson44, lat44):
        counter = OperatorCounter(wilson44)
        v = random_spinor(lat44, seed=5)
        np.testing.assert_array_equal(counter.apply(v), wilson44.apply(v))
        assert counter.count == 1


class TestSolveResult:
    def test_repr_contains_key_fields(self):
        r = SolveResult(
            x=np.zeros(3), converged=True, iterations=7,
            final_residual=1.5e-9, residual_history=[1.0], matvecs=14,
        )
        s = repr(r)
        assert "converged=True" in s and "iterations=7" in s

    def test_defaults(self):
        r = SolveResult(np.zeros(2), False, 0, 1.0)
        assert r.residual_history == []
        assert r.telemetry.attrs == {}
        assert r.inner_iterations == 0
