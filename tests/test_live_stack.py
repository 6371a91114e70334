"""A stack carries only live work (``pytest -m mrhs``).

Both lockstep loops hand their operator — and GCR its preconditioner —
the systems still running and nothing else: a converged, zero or NaN
system is never applied.  The test operator is block diagonal with one
block per system, so the support of a row names the system it belongs
to and a recording wrapper can read off exactly who each stacked call
received.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dirac.mrhs import batched_schur_for
from repro.dirac.stencil import apply_stack
from repro.mg.setup import relaxation_floor
from repro.solvers.bicgstab import lockstep_bicgstab
from repro.solvers.gcr import lockstep_gcr
from strategies import DenseOperator

pytestmark = pytest.mark.mrhs

#: unknowns per system block
_BLOCK = 12


class Recording:
    """``op`` behind a wrapper that records, per stacked call, the
    systems whose rows it received (read off the rows' support)."""

    def __init__(self, op):
        self.op = op
        self.calls: list[list[int]] = []

    def apply_multi(self, vs: np.ndarray) -> np.ndarray:
        systems = []
        for row in vs.reshape(len(vs), -1):
            owners = set(np.flatnonzero(row) // _BLOCK)
            assert len(owners) == 1, "a row mixes systems"
            systems.append(owners.pop())
        self.calls.append(systems)
        return self.op.apply_multi(vs)


def _block_systems():
    """Five running systems of different conditioning (they converge at
    different iterations), a zero one and a NaN one, each right-hand
    side supported on its own block of a block-diagonal operator."""
    rng = np.random.default_rng(23)
    k = 7
    n = k * _BLOCK
    mat = np.zeros((n, n), dtype=np.complex128)
    bs = np.zeros((k, n), dtype=np.complex128)
    for i in range(k):
        sl = slice(i * _BLOCK, (i + 1) * _BLOCK)
        noise = rng.standard_normal((_BLOCK, _BLOCK)) + 1j * rng.standard_normal((_BLOCK, _BLOCK))
        mat[sl, sl] = (0.6 + 0.5 * i) * noise + 4.0 * _BLOCK * np.eye(_BLOCK)
        bs[i, sl] = rng.standard_normal(_BLOCK) + 1j * rng.standard_normal(_BLOCK)
    bs[5] = 0.0
    bs[6, 6 * _BLOCK] = np.nan
    return mat, bs


def _assert_live_calls(calls, results):
    """Call ``c`` received exactly the systems with more than ``c``
    applications: a system runs from the first call until it stops."""
    assert len(calls) == results[0].telemetry.attrs["matvec_batches"]
    for c, systems in enumerate(calls):
        assert systems == sorted(systems)
        want = [i for i, res in enumerate(results) if res.matvecs > c]
        assert systems == want, (c, systems, want)


def test_lockstep_gcr_applies_the_live_systems_only():
    mat, bs = _block_systems()
    op = Recording(DenseOperator(mat))
    diag = np.diag(1.0 / np.diag(mat))
    prec = Recording(DenseOperator(diag))
    with np.errstate(invalid="ignore"):
        results = lockstep_gcr(op, bs, tol=1e-10, maxiter=100, nkrylov=4, preconditioner=prec)
    counts = [res.matvecs for res in results]
    assert len(set(counts[:5])) > 1  # staggered
    assert counts[5:] == [0, 0]  # zero and NaN systems: never applied
    assert all(res.converged for res in results[:6])
    assert not results[6].converged
    _assert_live_calls(op.calls, results)
    assert prec.calls == op.calls
    # matvecs are the applications each system received, one per iteration
    assert [res.iterations for res in results] == counts


def test_lockstep_bicgstab_applies_the_live_systems_only():
    mat, bs = _block_systems()
    op = Recording(DenseOperator(mat))
    with np.errstate(invalid="ignore"):
        results = lockstep_bicgstab(op, bs, tol=1e-10, maxiter=100)
    counts = [res.matvecs for res in results]
    assert len(set(counts[:5])) > 1
    assert counts[5:] == [0, 0]
    assert all(res.converged for res in results[:6])
    _assert_live_calls(op.calls, results)


def test_apply_stack_zero_fills_the_dead_rows():
    mat, bs = _block_systems()
    op = Recording(DenseOperator(mat))
    got = apply_stack(op, bs[:5], np.array([0, 2]))
    assert op.calls == [[0, 2]]
    assert not got[[1, 3, 4]].any()
    np.testing.assert_array_equal(got[[0, 2]], DenseOperator(mat).apply_multi(bs[[0, 2]]))
    assert not apply_stack(op, bs[:2], np.array([], dtype=int)).any()
    assert len(op.calls) == 1


@pytest.mark.parametrize("dtype", (np.complex64, np.complex128))
def test_a_relaxed_system_is_the_system_relaxed_alone(wilson448, lat448, dtype):
    """The setup's relaxation: a stack on the fine Schur operator, at the
    floor of its dtype, returns every system bit for bit as it comes out
    alone — what a system receives does not depend on who else runs."""
    schur = batched_schur_for(wilson448)
    rng = np.random.default_rng(3)
    shape = (6, lat448.volume, 4, 3)
    x0 = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    bs = schur.apply_multi(x0[:, lat448.even_sites].astype(dtype))
    bs[1] *= 1e-3
    bs[3] = 0.0
    bs[4, 5:] = 0.0  # a point-like source: converges at another iteration
    tol = relaxation_floor(dtype) if dtype == np.complex64 else 1e-8
    stack = lockstep_bicgstab(schur, bs, tol=tol, maxiter=60)
    assert len({res.iterations for res in stack if res.iterations}) > 1
    for b, res in zip(bs, stack):
        alone = lockstep_bicgstab(schur, b[None], tol=tol, maxiter=60)[0]
        assert (res.iterations, res.matvecs) == (alone.iterations, alone.matvecs)
        assert res.residual_history == alone.residual_history
        np.testing.assert_array_equal(res.x, alone.x)
