"""Mixed-precision solving with reliable updates."""

import numpy as np
import pytest

from repro.dirac import SchurOperator
from repro.precision import Precision
from repro.solvers import PrecisionOperator, mixed_precision_solve, norm
from repro.solvers.bicgstab import bicgstab
from tests.conftest import random_spinor


class TestPrecisionOperator:
    def test_double_passthrough(self, wilson44, lat44):
        v = random_spinor(lat44, seed=90)
        p = PrecisionOperator(wilson44, Precision.DOUBLE)
        assert np.array_equal(p.apply(v), wilson44.apply(v))

    def test_half_perturbs(self, wilson44, lat44):
        v = random_spinor(lat44, seed=91)
        p = PrecisionOperator(wilson44, Precision.HALF)
        exact = wilson44.apply(v)
        rounded = p.apply(v)
        rel = norm(exact - rounded) / norm(exact)
        assert 1e-8 < rel < 1e-2

    def test_single_tighter_than_half(self, wilson44, lat44):
        v = random_spinor(lat44, seed=92)
        exact = wilson44.apply(v)
        e_single = norm(PrecisionOperator(wilson44, Precision.SINGLE).apply(v) - exact)
        e_half = norm(PrecisionOperator(wilson44, Precision.HALF).apply(v) - exact)
        assert e_single < e_half


class TestMixedPrecisionSolve:
    def test_half_inner_reaches_double_accuracy(self, wilson448, lat448):
        # the headline claim: half-precision iterations, no accuracy loss
        schur = SchurOperator(wilson448)
        b = random_spinor(lat448, seed=93)
        bs = schur.prepare_multi(b[None])[0]
        res = mixed_precision_solve(
            schur,
            bs,
            bicgstab,
            tol=1e-10,
            inner_precision=Precision.HALF,
            inner_kwargs={"maxiter": 400},
        )
        assert res.converged
        assert norm(bs - schur.apply_multi(res.x[None])[0]) / norm(bs) < 1e-10

    def test_beats_naive_half_solve(self, wilson448, lat448):
        # a pure half-precision solver stalls well above 1e-10
        schur = SchurOperator(wilson448)
        b = random_spinor(lat448, seed=94)
        bs = schur.prepare_multi(b[None])[0]
        naive = bicgstab(
            PrecisionOperator(schur, Precision.HALF), bs, tol=1e-10, maxiter=800
        )
        true_rel = norm(bs - schur.apply_multi(naive.x[None])[0]) / norm(bs)
        assert true_rel > 1e-9  # stalled
        mixed = mixed_precision_solve(
            schur, bs, bicgstab, tol=1e-10,
            inner_precision=Precision.HALF, inner_kwargs={"maxiter": 400},
        )
        assert norm(bs - schur.apply_multi(mixed.x[None])[0]) / norm(bs) < 1e-10

    def test_single_inner(self, wilson44, lat44):
        b = random_spinor(lat44, seed=95)
        res = mixed_precision_solve(
            wilson44, b, bicgstab, tol=1e-12,
            inner_precision=Precision.SINGLE, inner_kwargs={"maxiter": 300},
        )
        assert res.converged

    def test_zero_rhs(self, wilson44, lat44):
        res = mixed_precision_solve(
            wilson44,
            np.zeros((lat44.volume, 4, 3), dtype=complex),
            bicgstab,
        )
        assert res.converged

    def test_outer_count_recorded(self, wilson44, lat44):
        b = random_spinor(lat44, seed=96)
        res = mixed_precision_solve(
            wilson44, b, bicgstab, tol=1e-10,
            inner_precision=Precision.HALF, inner_kwargs={"maxiter": 200},
        )
        assert res.telemetry.attrs["outer"] >= 2  # half cannot do 1e-10 in one cycle
