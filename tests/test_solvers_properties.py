"""Property-based solver correctness on random dense systems.

Hypothesis draws random well-conditioned complex systems; every Krylov
solver in the package must recover the direct solution.  This covers
the solver control flow (restarts, breakdown handling, tolerances)
independently of the lattice machinery.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.solvers import bicgstab, gcr

SETTINGS = dict(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class DenseOperator:
    """A dense matrix with the package's operator interface."""

    def __init__(self, mat: np.ndarray):
        self.mat = mat
        self.ns = 1
        self.nc = mat.shape[0]

    def apply(self, v: np.ndarray) -> np.ndarray:
        return (self.mat @ v.reshape(-1)).reshape(v.shape)

    matvec = apply

    def gamma5_diag(self):
        return np.ones(1)


@st.composite
def dense_system(draw):
    n = draw(st.integers(4, 24))
    seed = draw(st.integers(0, 10**6))
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    # diagonally dominated: well away from singularity
    a = a + (2.0 * n) * np.eye(n)
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return DenseOperator(a), b


def exact(op: DenseOperator, b: np.ndarray) -> np.ndarray:
    return np.linalg.solve(op.mat, b)


class TestGeneralSolvers:
    @given(dense_system())
    @settings(**SETTINGS)
    def test_bicgstab_matches_direct(self, sys_):
        op, b = sys_
        res = bicgstab(op, b, tol=1e-10, maxiter=2000)
        assert res.converged
        np.testing.assert_allclose(res.x, exact(op, b), rtol=1e-6, atol=1e-8)

    @given(dense_system())
    @settings(**SETTINGS)
    def test_gcr_matches_direct(self, sys_):
        op, b = sys_
        res = gcr(op, b, tol=1e-10, maxiter=2000)
        assert res.converged
        np.testing.assert_allclose(res.x, exact(op, b), rtol=1e-6, atol=1e-8)
