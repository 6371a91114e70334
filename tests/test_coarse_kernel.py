"""The dense-block (coarse) kernel against its per-direction oracles.

Every coarse application — ``CoarseOperator.apply_multi`` and
``BatchedCoarseSchur.apply_multi`` / ``prepare_multi`` /
``reconstruct_multi`` / ``to_dense`` — reads one row of blocks per site
over the site's *distinct* neighbours, with the ``+mu`` and ``-mu``
links of every extent-2 direction summed into one block.  Pinned here,
on coarse lattices with 0, 1, 3 and 4 extent-2 directions, in both
dtypes and for stacks of 1 and 3:

* agreement with the per-direction formulation
  (``apply_diag + hop_sum_reference``; the zero-padded
  ``SchurReference``) to 1e-13 relative in complex128 and 1e-5 in
  complex64;
* ``D = 8 - (extent-2 directions)`` and the tables' layout, which
  ``streamed_layout`` declares (and the setup books) before anything is
  built;
* the dense Schur matrix on a lattice with no extent-2 direction.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.coarse import CoarseOperator
from repro.dirac.even_odd import SchurReference
from repro.dirac.mrhs import BatchedCoarseSchur, neighbour_slots
from repro.lattice import NDIM, Lattice
from tests.conftest import schur_dense

pytestmark = pytest.mark.mrhs

C128, C64 = np.dtype(np.complex128), np.dtype(np.complex64)
#: coarse lattices with 0, 1, 3 and 4 extent-2 directions
LATTICES = ((4, 4, 4, 4), (2, 4, 4, 4), (2, 2, 2, 4), (2, 2, 2, 2))
TOL = {C128: 1e-13, C64: 1e-5}


def _cnormal(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _layout(arrays: dict) -> dict:
    """``(shape, dtype)`` of built arrays, as ``streamed_layout`` gives them."""
    return {name: (a.shape, a.dtype) for name, a in arrays.items()}


def _operator(dims, nc: int = 3, seed: int = 0) -> CoarseOperator:
    lattice = Lattice(dims)
    rng = np.random.default_rng(seed)
    n, v = 2 * nc, lattice.volume
    x = 4.0 * np.eye(n) + 0.3 * _cnormal(rng, (v, n, n))
    hop = 0.3 * _cnormal(rng, (NDIM, 2, v, n, n))
    return CoarseOperator(lattice, x, hop, 2, nc)


def _stack(op, k: int, seed: int, volume: int | None = None) -> np.ndarray:
    rng = np.random.default_rng(seed)
    shape = (k, volume or op.lattice.volume, op.ns, op.nc)
    return _cnormal(rng, shape)


def _close(got, want, dtype) -> None:
    assert got.dtype == dtype
    err = np.linalg.norm((got - want).ravel()) / np.linalg.norm(want.ravel())
    assert err <= TOL[dtype], err


@pytest.fixture(scope="module", params=LATTICES, ids=lambda d: "x".join(map(str, d)))
def op(request):
    return _operator(request.param)


def test_distinct_neighbours_drop_one_slot_per_extent_2_direction(op):
    lat = op.lattice
    slots = neighbour_slots(lat)
    assert len(slots) == 2 * NDIM - lat.dims.count(2)
    # summed exactly where x + mu and x - mu are one site
    assert {mu for mu, d in slots if d is None} == {
        mu for mu in range(NDIM) if np.array_equal(lat.fwd[mu], lat.bwd[mu])
    }


@pytest.mark.parametrize("dtype", (C128, C64))
@pytest.mark.parametrize("k", (1, 3))
def test_operator_apply_matches_the_per_direction_sum(op, dtype, k):
    vs = _stack(op, k, seed=10 + k)
    want = np.stack([op.apply_diag(v) + op.hop_sum_reference(v) for v in vs])
    _close(op.apply_multi(vs.astype(dtype)), want, dtype)
    if k == 1:
        _close(op.apply(vs[0].astype(dtype)), want[0], dtype)
    # built on first use, once per dtype, as declared beforehand
    assert _layout(op._tables[dtype].arrays()) == op.streamed_layout(dtype)  # noqa: SLF001


@pytest.mark.parametrize("dtype", (C128, C64))
@pytest.mark.parametrize("k", (1, 3))
def test_schur_matches_the_per_direction_reference(op, dtype, k):
    batched, reference = BatchedCoarseSchur(op), SchurReference(op)
    bs = _stack(op, k, seed=20 + k)
    halves = _stack(op, k, seed=30 + k, volume=op.lattice.half_volume)
    _close(
        batched.apply_multi(halves.astype(dtype)),
        reference.apply_multi(halves),
        dtype,
    )
    _close(
        batched.prepare_multi(bs.astype(dtype)),
        reference.prepare_multi(bs),
        dtype,
    )
    _close(
        batched.reconstruct_multi(halves.astype(dtype), bs.astype(dtype)),
        reference.reconstruct_multi(halves, bs),
        dtype,
    )
    assert _layout(batched.streamed(dtype)) == batched.streamed_layout(dtype)


@pytest.mark.parametrize("dtype, tol", ((C128, 1e-12), (C64, 1e-5)))
def test_block_assembly_without_an_extent_2_direction(dtype, tol):
    """Eight distinct neighbours: 64 block products per odd site."""
    op = _operator((4, 4, 4, 4), nc=2, seed=3)
    assert 2 not in op.lattice.dims
    want = schur_dense(SchurReference(op))
    got = BatchedCoarseSchur(op).to_dense(dtype)
    assert got.dtype == dtype and got.shape == want.shape
    assert np.abs(got - want).max() <= tol * np.abs(want).max()


def test_tables_are_built_per_dtype_and_dropped():
    op = _operator((2, 2, 2, 4))
    assert not op._tables  # noqa: SLF001 — nothing until a stack arrives
    op.apply_multi(_stack(op, 2, seed=40).astype(C64))
    assert set(op._tables) == {C64}  # noqa: SLF001
    op.drop_tables(C64)
    assert not op._tables  # noqa: SLF001
