"""The coarse-grid stencil operator (paper Eq 3).

The Galerkin product of a nearest-neighbour operator with hypercubic
aggregation is again nearest neighbour, but the spin (x) color tensor
structure is lost: each link carries a dense
``(Ns_hat Nc_hat) x (Ns_hat Nc_hat)`` matrix ``Y``, and the site-local
term ``X`` is likewise dense (it absorbs the aggregated clover/mass
term *and* all hops internal to the aggregates).

The blocks are built and kept in complex128 (Galerkin products and
verification read those); an application computes at the dtype of the
field it is handed, on copies of the blocks cast to that dtype the first
time such a field arrives (:func:`repro.precision.reduced`) — every
kernel here is bandwidth-bound on the blocks, so a complex64 field
halves the bytes.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from ..backend import get_backend
from ..dirac.stencil import StencilOperator
from ..lattice import NDIM, Lattice
from ..precision import compute_dtype, reduced


class CoarseOperator(StencilOperator):
    """Dense-link nearest-neighbour operator on a coarse lattice.

    Parameters
    ----------
    lattice:
        The coarse lattice.
    x_blocks:
        Site-local matrices, shape ``(V, N, N)`` with ``N = ns * nc``.
    hop_blocks:
        ``hop_blocks[mu, d]`` for direction ``mu`` and orientation index
        ``d`` (0 = forward ``+mu``, 1 = backward ``-mu``), each of shape
        ``(V, N, N)``: the matrix multiplying the neighbour's dof vector
        in the output at ``x``.  Shape ``(4, 2, V, N, N)``.
    ns, nc:
        Coarse spin (2) and color (number of null vectors).
    """

    def __init__(
        self,
        lattice: Lattice,
        x_blocks: np.ndarray,
        hop_blocks: np.ndarray,
        ns: int,
        nc: int,
    ):
        n = ns * nc
        if x_blocks.shape != (lattice.volume, n, n):
            raise ValueError(f"x_blocks shape {x_blocks.shape} != (V, {n}, {n})")
        if hop_blocks.shape != (NDIM, 2, lattice.volume, n, n):
            raise ValueError(f"hop_blocks shape {hop_blocks.shape}")
        self.lattice = lattice
        self.ns = ns
        self.nc = nc
        self.x_blocks = np.ascontiguousarray(x_blocks)
        self.hop_blocks = np.ascontiguousarray(hop_blocks)

    @cached_property
    def _x_inv(self) -> np.ndarray:
        return np.linalg.inv(self.x_blocks)

    # ------------------------------------------------------------------
    def reduced_bytes(self, dtype) -> int:
        """Bytes of the ``dtype`` copies of ``x_blocks``, their inverse
        and ``hop_blocks`` — known before any of them is cast."""
        entries = 2 * self.x_blocks.size + self.hop_blocks.size
        return entries * np.dtype(dtype).itemsize

    def apply_diag(self, v: np.ndarray) -> np.ndarray:
        x_blocks = reduced(self, "x_blocks", compute_dtype(v))
        return get_backend().dense_blocks_apply(x_blocks, v)

    def apply_diag_inv(self, v: np.ndarray) -> np.ndarray:
        x_inv = reduced(self, "_x_inv", compute_dtype(v))
        return get_backend().dense_blocks_apply(x_inv, v)

    def apply_hop_gathered(self, mu: int, sign: int, nbr: np.ndarray) -> np.ndarray:
        d = 0 if sign > 0 else 1
        hop_blocks = reduced(self, "hop_blocks", compute_dtype(nbr))
        flat = nbr.reshape(self.lattice.volume, self.site_dof, 1)
        return np.matmul(hop_blocks[mu, d], flat).reshape(nbr.shape)

    def apply_hop_sites(
        self, mu: int, sign: int, sites: np.ndarray, vs: np.ndarray
    ) -> np.ndarray:
        """Signed hop on the output sites ``sites`` for a ``(K, V, ns, nc)``
        stack: one ``N x N`` by ``N x K`` multiply per site."""
        lat = self.lattice
        d = 0 if sign > 0 else 1
        table = (lat.fwd[mu] if sign > 0 else lat.bwd[mu])[sites]
        blocks = reduced(self, "hop_blocks", compute_dtype(vs))[mu, d][sites]
        k, n = vs.shape[0], len(sites)
        nbr = vs[:, table].reshape(k, n, self.site_dof).transpose(1, 2, 0)
        return np.matmul(blocks, nbr).transpose(2, 0, 1).reshape(k, n, self.ns, self.nc)

    def apply(self, v: np.ndarray) -> np.ndarray:
        """Full application ``M v``, through the active backend."""
        return get_backend().coarse_apply(self, v)

    def apply_reference(self, v: np.ndarray) -> np.ndarray:
        """Baseline fused application: one gather + batched matvec per direction."""
        lat = self.lattice
        dtype = compute_dtype(v)
        hop_blocks = reduced(self, "hop_blocks", dtype)
        flat = v.reshape(lat.volume, self.site_dof, 1)
        out = np.matmul(reduced(self, "x_blocks", dtype), flat)
        for mu in range(NDIM):
            out += np.matmul(hop_blocks[mu, 0], flat[lat.fwd[mu]])
            out += np.matmul(hop_blocks[mu, 1], flat[lat.bwd[mu]])
        return out.reshape(v.shape)

    def apply_multi(self, vs: np.ndarray) -> np.ndarray:
        """Batched application to ``(K, V, ns, nc)``, through the active backend."""
        return get_backend().coarse_apply_multi(self, vs)

    def apply_multi_reference(self, vs: np.ndarray) -> np.ndarray:
        """Baseline batched application to ``(K, V, ns, nc)``: matrices loaded once.

        Batch-last ``(V, N, N) @ (V, N, K)`` stacked GEMMs — one per
        direction regardless of K, so every dense link matrix is read
        once for the whole batch and the multiply dispatches to BLAS
        (the temporal-locality win of the multiple-right-hand-side
        reformulation, Section 9).
        """
        lat = self.lattice
        k = vs.shape[0]
        dtype = compute_dtype(vs)
        hop_blocks = reduced(self, "hop_blocks", dtype)
        flat = np.ascontiguousarray(
            vs.reshape(k, lat.volume, self.site_dof).transpose(1, 2, 0)
        )
        out = np.matmul(reduced(self, "x_blocks", dtype), flat)
        for mu in range(NDIM):
            out += np.matmul(hop_blocks[mu, 0], flat[lat.fwd[mu]])
            out += np.matmul(hop_blocks[mu, 1], flat[lat.bwd[mu]])
        return np.ascontiguousarray(out.transpose(2, 0, 1)).reshape(vs.shape)

    # ------------------------------------------------------------------
    def link_hermiticity_violation(self) -> float:
        """Deviation from the Eq-3 structure ``Y^{-mu}(x) = G Y^{+mu}(x-mu)^dag G``.

        ``G`` is the coarse gamma5; this is the coarse image of the fine
        operator's gamma5-hermiticity and should hold to roundoff for
        operators produced by the Galerkin product of a gamma5-hermitian
        fine operator.
        """
        g = np.kron(self.gamma5_diag(), np.ones(self.nc))
        worst = 0.0
        for mu in range(NDIM):
            fwd_from_nbr = self.hop_blocks[mu, 0][self.lattice.bwd[mu]]
            expect = g[None, :, None] * np.conj(
                np.swapaxes(fwd_from_nbr, -1, -2)
            ) * g[None, None, :]
            worst = max(worst, float(np.abs(self.hop_blocks[mu, 1] - expect).max()))
        return worst

    def memory_bytes(self, precision_bytes: float = 4.0) -> float:
        """Storage footprint of the operator (for the performance model)."""
        n = self.site_dof
        mats = self.lattice.volume * (1 + 2 * NDIM) * n * n
        return mats * 2 * precision_bytes

    def __repr__(self) -> str:
        return f"CoarseOperator({self.lattice!r}, ns={self.ns}, nc={self.nc})"
