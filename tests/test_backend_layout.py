"""Property tests for the even/odd parity-plane layout.

Every even/odd algorithm of the package — the Wilson kernel's
parity-to-parity hops, the Schur smoothers, the red-black setup —
holds a field as two planes, the sites of ``lattice.sites_of_parity(p)``
in that order.  Its correctness rests on three structural facts, pinned
here as hypothesis properties rather than fixed examples:

* packing is a pure permutation — unpacking the two planes is
  *bitwise* equal to the field for arbitrary field shapes;
* the even/odd site tables are complementary — together they are
  exactly ``range(V)``, disjointly, and each holds the sites whose
  coordinate sum has that parity;
* the kernel's application commutes with unpacking — applying the
  Wilson kernel parity plane by parity plane and unpacking agrees with
  the site-major reference application to rounding error.
"""

from __future__ import annotations

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.dirac import WilsonCloverOperator  # noqa: E402
from repro.dirac.wilson_kernel import (  # noqa: E402
    to_site_fastest,
    to_site_major,
    wilson_kernel_for,
)
from repro.gauge import disordered_field  # noqa: E402
from repro.lattice import Lattice  # noqa: E402

from strategies import SEEDS, lattices, site_fields  # noqa: E402


def _pack(lat: Lattice, v: np.ndarray) -> np.ndarray:
    """``(V, ...)`` -> ``(2, V/2, ...)``: the even plane, then the odd."""
    return np.stack([v[lat.sites_of_parity(p)] for p in (0, 1)])


def _unpack(lat: Lattice, planes: np.ndarray) -> np.ndarray:
    """``(2, V/2, ...)`` -> ``(V, ...)``: the inverse of :func:`_pack`."""
    out = np.empty((lat.volume,) + planes.shape[2:], dtype=planes.dtype)
    for p in (0, 1):
        out[lat.sites_of_parity(p)] = planes[p]
    return out


# ----------------------------------------------------------------------
# packing is a pure permutation
# ----------------------------------------------------------------------
@given(site_fields())
def test_pack_unpack_roundtrip_is_bitwise(lat_fields):
    lat, fields = lat_fields
    v = fields[0]
    planes = _pack(lat, v)
    assert planes.shape == (2, lat.volume // 2) + v.shape[1:]
    back = _unpack(lat, planes)
    # a permutation moves bytes, never touches them: bitwise equality
    assert back.dtype == v.dtype
    assert np.array_equal(back.view(np.uint8), v.view(np.uint8))


@given(site_fields())
def test_pack_preserves_multiset_of_values(lat_fields):
    lat, fields = lat_fields
    v = fields[0]
    planes = _pack(lat, v)
    assert np.array_equal(np.sort(planes.reshape(-1)), np.sort(v.reshape(-1)))


@given(lattices(), SEEDS)
def test_packed_planes_follow_parity_order(lat, seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((lat.volume, 2, 3))
    planes = _pack(lat, v)
    assert np.array_equal(planes[0], v[lat.even_sites])
    assert np.array_equal(planes[1], v[lat.odd_sites])


# ----------------------------------------------------------------------
# parity masks are complementary
# ----------------------------------------------------------------------
@given(lattices())
def test_parity_sites_partition_the_lattice(lat):
    even, odd = lat.even_sites, lat.odd_sites
    assert len(even) == len(odd) == lat.volume // 2
    together = np.concatenate([even, odd])
    assert np.array_equal(np.sort(together), np.arange(lat.volume))


@given(lattices())
def test_parity_sites_match_coordinate_parity(lat):
    parity = lat.site_coords.sum(axis=1) % 2
    assert np.array_equal(np.sort(lat.even_sites), np.flatnonzero(parity == 0))
    assert np.array_equal(np.sort(lat.odd_sites), np.flatnonzero(parity == 1))


@given(lattices())
def test_every_hop_crosses_parity(lat):
    """Nearest-neighbour hops are strictly parity-to-parity — the fact
    that lets the Wilson kernel gather a hop from the opposite plane
    alone, with no zero-padded intermediates."""
    is_even = np.zeros(lat.volume, dtype=bool)
    is_even[lat.even_sites] = True
    for mu in range(4):
        assert np.array_equal(is_even[lat.fwd[mu]], ~is_even)
        assert np.array_equal(is_even[lat.bwd[mu]], ~is_even)


# ----------------------------------------------------------------------
# the kernel's parity-plane apply commutes with unpack
# ----------------------------------------------------------------------
def _wilson_for(lat: Lattice, seed: int) -> WilsonCloverOperator:
    gauge = disordered_field(lat, np.random.default_rng(seed), 0.5)
    return WilsonCloverOperator(gauge, mass=-0.2, c_sw=1.0)


def _kernel_planes(lat: Lattice, vs: np.ndarray, dtype) -> list[np.ndarray]:
    """``(K, V, 4, 3)`` -> the kernel's site-fastest ``(K, 3, 4, V/2)``
    even and odd planes."""
    return [to_site_fastest(vs[:, lat.sites_of_parity(p)], dtype) for p in (0, 1)]


def _unpack_kernel(lat: Lattice, planes: list[np.ndarray]) -> np.ndarray:
    """The kernel's two site-fastest planes -> ``(K, V, 4, 3)``."""
    return np.stack(
        [
            _unpack(lat, np.stack([to_site_major(p)[i] for p in planes]))
            for i in range(planes[0].shape[0])
        ]
    )


@settings(max_examples=15)
@given(SEEDS, SEEDS, st.integers(1, 4))
def test_packed_apply_commutes_with_unpack(op_seed, vec_seed, k):
    lat = Lattice((4, 4, 4, 4))
    op = _wilson_for(lat, op_seed)
    rng = np.random.default_rng(vec_seed)
    shape = (k, lat.volume, 4, 3)
    vs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    kernel = wilson_kernel_for(op)
    even, odd = _kernel_planes(lat, vs, kernel.dtype)
    out_planes = [
        kernel.diag(0, even) + kernel.hop(0, odd),
        kernel.diag(1, odd) + kernel.hop(1, even),
    ]
    unpacked = _unpack_kernel(lat, out_planes)

    want = np.stack([op.apply_reference(v) for v in vs])
    err = np.linalg.norm(unpacked - want) / np.linalg.norm(want)
    assert err <= 1e-12


@settings(max_examples=15)
@given(SEEDS, SEEDS)
def test_packed_hop_sum_commutes_with_unpack(op_seed, vec_seed):
    lat = Lattice((4, 4, 4, 4))
    op = _wilson_for(lat, op_seed)
    rng = np.random.default_rng(vec_seed)
    v = rng.standard_normal((lat.volume, 4, 3)) + 1j * rng.standard_normal(
        (lat.volume, 4, 3)
    )
    kernel = wilson_kernel_for(op)
    even, odd = _kernel_planes(lat, v[None], kernel.dtype)
    unpacked = _unpack_kernel(lat, [kernel.hop(0, odd), kernel.hop(1, even)])[0]
    want = op.hop_sum_reference(v)
    err = np.linalg.norm(unpacked - want) / np.linalg.norm(want)
    assert err <= 1e-12
