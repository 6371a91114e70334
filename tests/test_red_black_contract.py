"""One contract for every production red-black system.

The fine grid's :class:`~repro.dirac.even_odd.SchurOperator` (the
Wilson-Clover kernel) and a coarse level's
:class:`~repro.dirac.mrhs.BatchedCoarseSchur` (dense blocks) are the two
implementations of the one stack interface of
:mod:`repro.dirac.even_odd`, and ``batched_schur_for`` chooses between
them.  The system of every level of the canonical Aniso40-scaled
hierarchy — the fine grid, coarse level 1 and the coarsest level 2 — in
complex128 and complex64 and on stacks of 1, 3 and 8 is held to:

* ``prepare_multi`` / ``apply_multi`` / ``reconstruct_multi`` against
  the zero-padded oracle (:class:`~repro.dirac.even_odd.SchurReference`)
  on the same input;
* ``native(dtype)``: entering and leaving hands a stack back bit for
  bit, and the native ``apply_multi`` is the public one;
* reconstruction after a solve satisfies ``M x = b``: the system's own
  dense solve where it holds one (``solve_multi``), the even part of a
  known ``x`` otherwise.

Fresh systems are built from each level's operator, so the shared
hierarchy's own tables and factors are left as its solves built them.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dirac.even_odd import SchurOperator, SchurReference
from repro.dirac.mrhs import BatchedCoarseSchur, batched_schur_for

C64, C128 = np.dtype(np.complex64), np.dtype(np.complex128)
#: relative error against the complex128 oracle on the same input
ORACLE_TOL = {C128: 1e-12, C64: 5e-6}
#: relative residual of the system after a solve, and of the full system
#: after its reconstruction (measured: 5e-16 and 2.4e-7 at most)
SOLVE_TOL = {C128: 1e-12, C64: 1e-5}


def _rel(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


def _stack(op, k: int, seed: int, volume: int | None = None) -> np.ndarray:
    rng = np.random.default_rng(seed)
    shape = (k, volume or op.lattice.volume, op.ns, op.nc)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("k", (1, 3, 8))
@pytest.mark.parametrize("dtype", (C128, C64), ids=("complex128", "complex64"))
@pytest.mark.parametrize("level", (0, 1, 2))
def test_every_system_keeps_the_contract(aniso40_solve, level, dtype, k):
    op = aniso40_solve[1].hierarchy.levels[level].op
    schur = batched_schur_for(op)
    assert type(schur) is (SchurOperator if level == 0 else BatchedCoarseSchur)
    assert schur.unknowns == op.lattice.half_volume * op.ns * op.nc
    even = op.lattice.even_sites
    # complex64-representable x, so that its even part is exact in either
    # dtype; b = M x in complex128, handed over in the dtype under test
    x = _stack(op, k, seed=10 * level + k).astype(C64).astype(C128)
    b = op.apply_multi(x)
    hs, bs = x[:, even].astype(dtype), b.astype(dtype)

    # *_multi against the oracle on the same input
    oracle = SchurReference(op)
    rhs = schur.prepare_multi(bs)
    for got, want in (
        (schur.apply_multi(hs), oracle.apply_multi(x[:, even])),
        (rhs, oracle.prepare_multi(bs.astype(C128))),
        (schur.reconstruct_multi(hs, bs), oracle.reconstruct_multi(x[:, even], bs.astype(C128))),
    ):
        assert got.dtype == dtype and got.shape == want.shape
        assert _rel(got, want) <= ORACLE_TOL[dtype]

    # the native view: a bitwise round trip, the same Schur matrix
    native = schur.native(dtype)
    entered = native.enter(hs)
    assert np.array_equal(native.leave(entered), hs)
    assert np.array_equal(native.leave(native.apply_multi(entered)), schur.apply_multi(hs))

    # reconstruct after solve satisfies M x = b
    if hasattr(schur, "solve_multi"):
        solved = schur.solve_multi(rhs)
        assert solved.dtype == dtype
        assert _rel(schur.apply_multi(solved), rhs) <= SOLVE_TOL[dtype]
    else:
        solved = hs  # the exact solution of the prepared system
    full = schur.reconstruct_multi(solved, bs)
    assert full.dtype == dtype
    assert _rel(op.apply_multi(full.astype(C128)), b) <= SOLVE_TOL[dtype]
