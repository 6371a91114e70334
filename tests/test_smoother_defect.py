"""The red-black smoother hands back the defect it already holds, and
holds the iterate it did not reconstruct.

With the opposite parity reconstructed exactly, ``r - M z`` is zero
there and the Schur residual ``b_hat - S x`` — the vector the MR
recurrence carries — on the Schur parity.  ``apply(r, hold=True)``
returns it beside the held Schur-parity iterate, the cycle's
pre-smoothing step restricts it instead of spending an operator
application, and ``apply(r, resume=(held, e))`` continues from the
corrected iterate (DESIGN.md sections 20 and 21).
Pinned here: the identity at every precision boundary the smoother can
sit behind — for the ``z`` the held iterate reconstructs to — that what
travels is a return value (nothing parked on the shared smoother), that
and that the cycle still reaches the smoother through
``lev.smoother.apply`` (what the benchmark harness wraps).

Run the group with ``pytest -q -m mrhs``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.mg import KCyclePreconditioner, SchurMRSmoother
from repro.dirac import wilson_kernel
from repro.precision import Precision, dtype_of
from repro.solvers import PrecisionOperator
from tests.conftest import random_spinor

pytestmark = pytest.mark.mrhs

C64, C128 = np.dtype(np.complex64), np.dtype(np.complex128)


def _stack(op, k: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    shape = (k, op.lattice.volume, op.ns, op.nc)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _rel(got: np.ndarray, want: np.ndarray, scale: np.ndarray) -> float:
    """Worst per-system error relative to the norm of its residual."""
    k = got.shape[0]
    err = np.linalg.norm((got - want).reshape(k, -1), axis=1)
    return float((err / np.linalg.norm(scale.reshape(k, -1), axis=1)).max())


#: (smoother precision, dtype of the cycle handing the stack in, tolerance)
BOUNDARIES = {
    "double": (Precision.DOUBLE, C128, 1e-12),
    "single": (Precision.SINGLE, C64, 1e-5),
    "single-in-double-cycle": (Precision.SINGLE, C128, 1e-5),
    "half": (Precision.HALF, C64, 1e-3),
}


@pytest.mark.parametrize("level", (0, 1))
@pytest.mark.parametrize("k", (1, 3))
@pytest.mark.parametrize("boundary", BOUNDARIES)
def test_defect_is_the_recomputed_one(aniso40_solve, level, k, boundary):
    precision, dtype, tol = BOUNDARIES[boundary]
    lev = aniso40_solve[1].hierarchy.levels[level]
    smoother = SchurMRSmoother(
        lev.op, steps=lev.params.smoother_steps, omega=lev.params.smoother_omega,
        precision=precision,
    )
    # per-system scales apart (far apart where a cast-in normalises each
    # system): the defect must come back at the same scale as z
    scales = (1e-20, 1.0, 1e12) if dtype == C128 else (1e-3, 1.0, 1e3)
    rs = _stack(lev.op, k, seed=40 + level) * np.array(scales[:k]).reshape(k, 1, 1, 1)
    rs = rs.astype(dtype)
    parked = {name: id(value) for name, value in vars(smoother).items()}
    d, held = smoother.apply(rs, hold=True)
    # return values: nothing parked on the smoother
    assert {name: id(value) for name, value in vars(smoother).items()} == parked
    assert d.dtype == dtype and d.shape == rs.shape
    # the held iterate is at the smoother's precision, half a lattice
    # wide, in the native stack of the system it iterates on
    assert held.x.dtype == held.source.dtype == dtype_of(precision)
    assert held.x.shape == held.source.shape
    native = smoother.schur.native(held.x.dtype)
    assert native.leave(held.x).shape == (k, lev.op.lattice.half_volume) + rs.shape[2:]
    # resumed with no correction and no further step it is the z of
    # apply(rs), bit for bit: the same source, the same scale
    z = smoother.apply(rs)
    idle = SchurMRSmoother(lev.op, steps=0, precision=precision, schur=smoother.schur)
    np.testing.assert_array_equal(idle.apply(rs, resume=(held, np.zeros_like(rs))), z)
    wide = rs.astype(C128)
    want = wide - lev.op.apply_multi(z.astype(C128))
    assert _rel(d, want, wide) <= tol
    # exactly zero where the smoother reconstructs exactly
    assert not d[:, lev.op.lattice.sites_of_parity(1)].any()
    assert d[:, lev.op.lattice.sites_of_parity(0)].any()
    assert {name: id(value) for name, value in vars(smoother).items()} == parked


def test_bare_field_returns_a_pair_of_fields(aniso40_solve):
    lev = aniso40_solve[1].hierarchy.levels[1]
    r = _stack(lev.op, 1, seed=44)[0].astype(C64)
    d, held = lev.smoother.apply(r, hold=True)
    ds, helds = lev.smoother.apply(r[None], hold=True)
    assert d.shape == r.shape
    np.testing.assert_array_equal(d, ds[0])
    np.testing.assert_array_equal(held.x, helds.x)
    z = lev.smoother.apply(r, resume=(held, r))
    assert z.shape == r.shape
    np.testing.assert_array_equal(z, lev.smoother.apply(r[None], resume=(helds, r[None]))[0])


def test_cycle_reaches_the_smoother_through_its_instance_attribute(aniso40_solve, monkeypatch):
    """The benchmark harness times a level's smoother by shadowing
    ``lev.smoother.apply`` on the instance; both smoothing steps of a
    cycle must go through it, the first holding its iterate, the second
    resuming from it."""
    hierarchy = aniso40_solve[1].hierarchy
    calls: dict[int, list] = {}
    for lev in hierarchy.levels[:-1]:
        def spied(*args, _fn=lev.smoother.apply, _seen=calls.setdefault(lev.index, []), **kw):
            _seen.append(sorted(kw))
            return _fn(*args, **kw)

        monkeypatch.setattr(lev.smoother, "apply", spied)
    pre = KCyclePreconditioner(hierarchy, level=0)
    pre.apply(random_spinor(hierarchy.levels[0].op.lattice, seed=45))
    assert calls[0] == [["hold"], ["resume"]]
    cycles_l1 = pre.counts[1].restricts
    assert calls[1] == [["hold"], ["resume"]] * cycles_l1
    # a red-black cycle applies no operator of its own
    assert pre.counts[0].op_applies == 0
    assert pre.counts[1].op_applies == pre.counts[1].gcr_iters


@pytest.mark.parametrize("precision", (Precision.SINGLE, Precision.HALF))
def test_a_smoothing_converts_its_layout_once_however_many_steps(
    aniso40_solve, monkeypatch, precision
):
    """The fine red-black system iterates on the kernel's site-fastest
    stack: a held smoothing and its resume convert between layouts a
    fixed number of times, not twice per MR step."""
    lev = aniso40_solve[1].hierarchy.levels[0]
    calls = {"to_site_fastest": 0, "to_site_major": 0}
    for name in calls:
        def counted(*args, _fn=getattr(wilson_kernel, name), _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(wilson_kernel, name, counted)
    rs = _stack(lev.op, 2, seed=47).astype(C64)
    e = _stack(lev.op, 2, seed=48).astype(C64)
    seen = []
    for steps in (2, 10):
        smoother = SchurMRSmoother(
            lev.op, steps=steps, precision=precision, schur=lev.smoother.schur
        )
        calls.update(dict.fromkeys(calls, 0))
        _, held = smoother.apply(rs, hold=True)
        smoother.apply(rs, resume=(held, e))
        seen.append(dict(calls))
    assert seen[0] == seen[1]
    assert all(seen[0].values())


def test_native_half_rounding_is_the_site_major_rounding(aniso40_solve):
    """``HALF`` rounds each site's 12 components together in whichever
    layout the system computes on, bit for bit."""
    schur = aniso40_solve[1].hierarchy.levels[0].smoother.schur
    native = schur.native(C64)
    rng = np.random.default_rng(49)
    shape = (3, schur.half_volume, 4, 3)
    # per-site magnitudes apart, so that each site's scale matters
    mags = 10.0 ** rng.integers(-6, 6, size=shape[:2] + (1, 1))
    hs = ((rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * mags).astype(C64)
    want = PrecisionOperator(schur, Precision.HALF).apply_multi(hs)
    got = native.leave(PrecisionOperator(native, Precision.HALF).apply_multi(native.enter(hs)))
    np.testing.assert_array_equal(got, want)
