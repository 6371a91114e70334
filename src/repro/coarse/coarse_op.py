"""The coarse-grid stencil operator (paper Eq 3).

The Galerkin product of a nearest-neighbour operator with hypercubic
aggregation is again nearest neighbour, but the spin (x) color tensor
structure is lost: each link carries a dense
``(Ns_hat Nc_hat) x (Ns_hat Nc_hat)`` matrix ``Y``, and the site-local
term ``X`` is likewise dense (it absorbs the aggregated clover/mass
term *and* all hops internal to the aggregates).

The blocks are built and kept in complex128, per direction and
orientation (Galerkin products, the setup cache and verification read
those).  An application reads them as one row of blocks per site over
the site itself and its *distinct* neighbours
(:class:`~repro.dirac.mrhs._DenseBlockHop`): on an extent-2 direction
``x + mu`` and ``x - mu`` are one site, and its two links are summed
once into one block, so a coarse grid of extent 2 in three directions
reads 6 blocks per site instead of 9, in one GEMM.  The table is built
at the dtype of the field being applied, the first time such a field
arrives (a setup restored from disk holds it already, :meth:`adopt`) —
every kernel here is bandwidth-bound on the blocks, so a complex64
field halves the bytes.  The per-direction hops
(``apply_hop*``, ``hop_sum_reference``) stay as the oracle, on copies
of the blocks cast on first use (:func:`repro.precision.reduced`).
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from ..dirac.mrhs import _DenseBlockHop
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
        self._tables: dict = {}

    @cached_property
    def _x_inv(self) -> np.ndarray:
        """Every site's inverse block, for the reference
        :meth:`apply_diag_inv`; the red-black system inverts its own
        sites' blocks instead."""
        return np.linalg.inv(self.x_blocks)

    # ------------------------------------------------------------------
    def _table(self, dtype) -> _DenseBlockHop:
        """``[X | Y_1 .. Y_D]`` per site at ``dtype``, gathered the first
        time a stack of that dtype arrives."""
        table = self._tables.get(dtype)
        if table is None:
            sites = np.arange(self.lattice.volume)
            table = self._tables[dtype] = _DenseBlockHop(
                self, sites, sites, dtype=dtype, diag=self.x_blocks
            )
        return table

    def drop_tables(self, dtype) -> None:
        """Forget the table at ``dtype``; the next stack of that dtype
        gathers it again."""
        self._tables.pop(np.dtype(dtype), None)

    def streamed(self, dtype) -> dict[str, np.ndarray]:
        """The ``dtype`` table an application reads and its index, by
        name, gathered here if no stack of that dtype has been applied."""
        return self._table(np.dtype(dtype)).arrays()

    def streamed_layout(self, dtype) -> dict[str, tuple]:
        """``(shape, dtype)`` of every array :meth:`streamed` returns."""
        shapes = _DenseBlockHop.shapes(
            self.lattice, self.lattice.volume, self.site_dof, diag=True
        )
        return {
            name: (shape, np.dtype(np.int64 if name == "idx" else dtype))
            for name, shape in shapes.items()
        }

    def adopt(self, dtype, arrays: dict[str, np.ndarray]) -> None:
        """Hold ``arrays`` — :meth:`streamed` of an operator of this
        shape — as the ``dtype`` table, gathering nothing."""
        self._tables[np.dtype(dtype)] = _DenseBlockHop.adopt(
            self.lattice, arrays["rows"], arrays["idx"]
        )

    def apply_diag(self, v: np.ndarray) -> np.ndarray:
        x_blocks = reduced(self, "x_blocks", compute_dtype(v))
        return np.matmul(x_blocks, v.reshape(len(v), self.site_dof, 1)).reshape(v.shape)

    def apply_diag_inv(self, v: np.ndarray) -> np.ndarray:
        x_inv = reduced(self, "_x_inv", compute_dtype(v))
        return np.matmul(x_inv, v.reshape(len(v), self.site_dof, 1)).reshape(v.shape)

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

    def _apply_multi(self, vs: np.ndarray) -> np.ndarray:
        """Application to a ``(K, V, ns, nc)`` stack: one gather and one
        batched ``(V, N, (D+1) N) @ (V, (D+1) N, K)`` GEMM, so every
        block is read once for the whole batch and the multiply
        dispatches to BLAS (the temporal-locality win of the
        multiple-right-hand-side reformulation, Section 9)."""
        return self._table(compute_dtype(vs)).apply(vs)

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
