"""Solver infrastructure: results, counters, basic linear algebra."""

import numpy as np
import pytest

from repro.solvers import OperatorCounter, SolveResult, norm, norm2, vdot
from repro.solvers.base import batch_dot, per_system
from tests.conftest import random_spinor

#: per-system vector shapes of the benchmark: the fine half lattice, the
#: fine full lattice and a coarse level (N = 24 per chirality block)
STACK_SHAPES = {"fine-half": (512, 4, 3), "fine-full": (1024, 4, 3), "coarse": (32, 2, 24)}


def _stack(shape, k, dtype, seed):
    rng = np.random.default_rng(seed)
    full = (k,) + shape
    return (rng.standard_normal(full) + 1j * rng.standard_normal(full)).astype(dtype)


@pytest.mark.parametrize("dtype", (np.complex64, np.complex128))
@pytest.mark.parametrize("k", (1, 2, 5, 12))
@pytest.mark.parametrize("shape", STACK_SHAPES.values(), ids=STACK_SHAPES)
class TestLockstepBlas1:
    """A system's reductions and updates do not depend on the stack it
    rides in: row ``i`` is bitwise what the system gets alone, in an
    array of its own, and the reduction agrees with the one-pass
    ``einsum`` form (the reference, kept here) to the floating-point
    error bound of its dtype."""

    def test_batch_dot_is_the_system_alone(self, shape, k, dtype):
        a, b = _stack(shape, k, dtype, 1), _stack(shape, k, dtype, 2)
        got = batch_dot(a, b)
        assert got.dtype == dtype and got.shape == (k,)
        for i in range(k):
            alone_a, alone_b = a[i].copy(), b[i].copy()
            assert got[i] == batch_dot(alone_a[None], alone_b[None])[0]
        flat_a, flat_b = a.reshape(k, -1), b.reshape(k, -1)
        want = np.einsum("ki,ki->k", np.conj(flat_a), flat_b)
        # |fl(a.b) - a.b| <= n eps sum |a_j| |b_j|, twice for complex
        bound = 2 * flat_a.shape[1] * np.finfo(dtype).eps
        scale = np.einsum("ki,ki->k", np.abs(flat_a), np.abs(flat_b))
        assert np.all(np.abs(got - want) <= bound * scale)

    def test_update_is_the_system_alone(self, shape, k, dtype):
        x, y = _stack(shape, k, dtype, 3), _stack(shape, k, dtype, 4)
        rng = np.random.default_rng(5)
        alpha = (rng.standard_normal(k) + 1j * rng.standard_normal(k)).astype(dtype)
        alpha[k // 2] = 0.0  # a masked system
        got = y.copy()
        got += per_system(alpha, got) * x
        for i in range(k):
            alone = y[i].copy()[None]
            alone += per_system(alpha[i : i + 1], alone) * x[i].copy()[None]
            np.testing.assert_array_equal(got[i], alone[0])
        np.testing.assert_array_equal(got[k // 2], y[k // 2])


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
