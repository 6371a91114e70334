"""Packed even/odd structure-of-arrays (SoA) backend.

The paper's fine-grained parallelization argument (Figure 2, Section 5)
is that the *layout* of the site data decides whether the hardware's
parallelism is reachable: QUDA stores spinors so that consecutive
threads touch consecutive words, and Grid (arXiv:1904.08678) reaches
the same conclusion with SIMD-friendly SoA layouts.  This backend is
the CPU image of that idea:

* fields are packed into two contiguous half-volume parity planes
  (``(2, V/2, ns, nc)``) ordered by ``lattice.sites_of_parity`` — the
  even/odd structure red-black preconditioning wants is the storage
  order, not an index computation;
* every hop term maps one parity plane onto the other, so the hop sum
  becomes two dense parity-to-parity sweeps with *no* zero-padded
  full-lattice intermediates;
* on the fine grid each parity sweep is the production half-spinor
  kernel of :mod:`repro.dirac.wilson_kernel` — the gathered neighbour
  data is the spin-compressed 2-spinor, the compressed exchange layout
  of the paper's Section 6;
* on coarse grids the parity sweeps are the dense-block stacked GEMMs
  of :class:`repro.dirac.mrhs._DenseBlockHop`.

Packing is a pure permutation, so ``unpack(pack(v)) == v`` bitwise and
the packed application commutes with unpacking to rounding error — the
properties ``tests/test_backend_layout.py`` pins down.

Aggregation transfers are layout-agnostic at this granularity (they
gather whole hypercubic blocks, not parity planes) and stay on the
baseline formulation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..precision import compute_dtype
from .base import ArrayBackend
from .einsum_backend import _has_dense_blocks


def parity_sites(lattice) -> tuple[np.ndarray, np.ndarray]:
    """The (even, odd) site index arrays of a lattice."""
    return lattice.sites_of_parity(0), lattice.sites_of_parity(1)


@dataclass(frozen=True)
class PackedParityField:
    """A field stored as two contiguous parity planes.

    ``planes[p]`` holds the sites of parity ``p`` in
    ``lattice.sites_of_parity(p)`` order, shape ``(2, V/2, ns, nc)``.
    """

    lattice: object
    planes: np.ndarray

    @property
    def even(self) -> np.ndarray:
        return self.planes[0]

    @property
    def odd(self) -> np.ndarray:
        return self.planes[1]


def pack_parity(lattice, v: np.ndarray) -> PackedParityField:
    """Site-major ``(V, ns, nc)`` -> packed ``(2, V/2, ns, nc)`` parity planes."""
    even, odd = parity_sites(lattice)
    planes = np.stack([v[even], v[odd]])
    return PackedParityField(lattice=lattice, planes=planes)


def unpack_parity(packed: PackedParityField) -> np.ndarray:
    """Exact inverse of :func:`pack_parity` (a pure permutation)."""
    even, odd = parity_sites(packed.lattice)
    vol = len(even) + len(odd)
    out = np.empty((vol,) + packed.planes.shape[2:], dtype=packed.planes.dtype)
    out[even] = packed.planes[0]
    out[odd] = packed.planes[1]
    return out


class _ParityKernels:
    """Per-operator, per-dtype packed state: parity site tables and the
    parity-to-parity hop / site-local sweeps on packed planes.

    The fine grid has no sweeps of its own: it converts the site-major
    plane to the site-fastest order of the production kernel
    (:mod:`repro.dirac.wilson_kernel`) and back.
    """

    def __init__(self, op, dtype):
        from ..dirac.mrhs import _DenseBlockHop
        from ..dirac.wilson_kernel import wilson_kernel_for

        self.even, self.odd = parity_sites(op.lattice)
        self.wilson = wilson_kernel_for(op, dtype)
        if self.wilson is not None:
            self.kind = "wilson"
        elif _has_dense_blocks(op):
            self.kind = "dense"
            self._hops = (
                _DenseBlockHop(op, self.even, self.odd, dtype),
                _DenseBlockHop(op, self.odd, self.even, dtype),
            )
            self._diag = (
                np.ascontiguousarray(op.x_blocks[self.even], dtype=dtype),
                np.ascontiguousarray(op.x_blocks[self.odd], dtype=dtype),
            )
        else:
            self.kind = "generic"

    @property
    def nbytes(self) -> int:
        """Bytes of the packed tables held here (setup-cache accounting);
        the fine grid's live in the shared kernel and are counted there."""
        if self.kind != "dense":
            return 0
        return sum(table.nbytes for table in self._hops + self._diag)

    def _wilson_sweep(self, sweep, parity: int, plane: np.ndarray) -> np.ndarray:
        from ..dirac.wilson_kernel import to_site_fastest, to_site_major

        return to_site_major(sweep(parity, to_site_fastest(plane, self.wilson.dtype)))

    def hop(self, parity: int, src: np.ndarray) -> np.ndarray:
        """Hop sum landing on ``parity`` from the opposite plane's stack."""
        if self.kind == "wilson":
            return self._wilson_sweep(self.wilson.hop, parity, src)
        return self._hops[parity].apply(src)

    def diag(self, parity: int, vs: np.ndarray) -> np.ndarray:
        """Site-local term on one plane's stack."""
        if self.kind == "wilson":
            return self._wilson_sweep(self.wilson.diag, parity, vs)
        from ..dirac.mrhs import _dense_blocks_apply_multi

        return _dense_blocks_apply_multi(self._diag[parity], vs)


class SoABackend(ArrayBackend):
    """Packed even/odd SoA layout with parity-to-parity hop sweeps."""

    name = "soa"
    description = (
        "packed even/odd SoA layout: contiguous half-volume parity planes, "
        "half-spinor parity-to-parity hop sweeps, no zero-padded intermediates"
    )

    # ------------------------------------------------------------------
    def pack(self, op, v: np.ndarray) -> PackedParityField:
        return pack_parity(op.lattice, v)

    def unpack(self, op, packed: PackedParityField) -> np.ndarray:
        return unpack_parity(packed)

    def _kernels(self, op, dtype) -> _ParityKernels:
        return self.op_cache(
            op, "parity_kernels", lambda: _ParityKernels(op, dtype), dtype
        )

    # ------------------------------------------------------------------
    # packed-plane applications (the layout-native code path)
    # ------------------------------------------------------------------
    def apply_packed_multi(self, op, planes: np.ndarray) -> np.ndarray:
        """Full ``M`` on packed data: ``(2, K, V/2, ns, nc)`` in and out.

        ``out_e = D_e v_e + H_eo v_o`` and ``out_o = D_o v_o + H_oe v_e``
        — each hop sweep reads one contiguous parity plane and writes
        the other, with the site-local term applied in place.
        """
        kern = self._kernels(op, compute_dtype(planes))
        ve, vo = planes[0], planes[1]
        out_e = kern.diag(0, ve) + kern.hop(0, vo)
        out_o = kern.diag(1, vo) + kern.hop(1, ve)
        return np.stack([out_e, out_o])

    def hop_sum_packed_multi(self, op, planes: np.ndarray) -> np.ndarray:
        """Hop-only parity sweeps on packed ``(2, K, V/2, ns, nc)`` data."""
        kern = self._kernels(op, compute_dtype(planes))
        return np.stack([kern.hop(0, planes[1]), kern.hop(1, planes[0])])

    # ------------------------------------------------------------------
    # canonical-layout API: pack, sweep, unpack
    # ------------------------------------------------------------------
    def _apply_via_planes(self, op, vs: np.ndarray, hops_only: bool) -> np.ndarray:
        kern = self._kernels(op, compute_dtype(vs))
        planes = np.stack([vs[:, kern.even], vs[:, kern.odd]])
        sweep = self.hop_sum_packed_multi if hops_only else self.apply_packed_multi
        out_planes = sweep(op, planes)
        out = np.empty_like(vs)
        out[:, kern.even] = out_planes[0]
        out[:, kern.odd] = out_planes[1]
        return out

    # The fine grid needs no override: the base class already runs the
    # production parity-to-parity kernel.  Single-vector coarse applies
    # stay on the site-major reference: a lone K=1 application
    # round-trips through the pack permutation without a batch to
    # amortize it (measured ~1.6x slower on the quick-bench lattice).
    def coarse_apply_multi(self, op, vs: np.ndarray) -> np.ndarray:
        if not _has_dense_blocks(op):
            return super().coarse_apply_multi(op, vs)
        return self._apply_via_planes(op, vs, hops_only=False)
