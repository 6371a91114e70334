"""The coarse-grid stencil operator (paper Eq 3).

The Galerkin product of a nearest-neighbour operator with hypercubic
aggregation is again nearest neighbour, but the spin (x) color tensor
structure is lost: each link carries a dense
``(Ns_hat Nc_hat) x (Ns_hat Nc_hat)`` matrix ``Y``, and the site-local
term ``X`` is likewise dense (it absorbs the aggregated clover/mass
term *and* all hops internal to the aggregates).

The blocks are built and kept in complex128, per direction and
orientation (Galerkin products, the setup cache and verification read
those).  The Galerkin product of a gamma5-hermitian operator keeps its
structure: ``X = G X^dag G`` and ``Y^{-mu}(x) = G Y^{+mu}(x - mu)^dag G``
with ``G`` the coarse gamma5 (:func:`gamma5_adjoint`), bit for bit, since
:mod:`~repro.coarse.galerkin` derives the backward half from the forward
one.  An application reads them as one row of blocks per site over
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
        return self.apply_diag_multi(v[None])[0]

    def apply_diag_multi(
        self, vs: np.ndarray, chirality: int | None = None
    ) -> np.ndarray:
        """``X`` on a ``(K, V, ns, nc)`` stack or a chiral stack
        (:meth:`StencilOperator.apply_diag_multi`): one ``N x N`` (or
        ``N x N/2``) by ``. x K`` multiply per site."""
        x_blocks = reduced(self, "x_blocks", compute_dtype(vs))[:, :, self._dofs(chirality)]
        k, vol = vs.shape[:2]
        cols = vs.reshape(k, vol, -1).transpose(1, 2, 0)
        out = np.matmul(x_blocks, cols).transpose(2, 0, 1)
        return out.reshape(k, vol, self.ns, self.nc)

    def apply_diag_inv(self, v: np.ndarray) -> np.ndarray:
        x_inv = reduced(self, "_x_inv", compute_dtype(v))
        return np.matmul(x_inv, v.reshape(len(v), self.site_dof, 1)).reshape(v.shape)

    def apply_hop_gathered(self, mu: int, sign: int, nbr: np.ndarray) -> np.ndarray:
        d = 0 if sign > 0 else 1
        hop_blocks = reduced(self, "hop_blocks", compute_dtype(nbr))
        flat = nbr.reshape(self.lattice.volume, self.site_dof, 1)
        return np.matmul(hop_blocks[mu, d], flat).reshape(nbr.shape)

    def apply_hop_sites(
        self, mu: int, sign: int, sites: np.ndarray, vs: np.ndarray, chirality: int
    ) -> np.ndarray:
        """Signed hop on the output sites ``sites`` of a chiral stack
        (:meth:`StencilOperator.apply_hop_sites`): one ``N x N/2`` by
        ``N/2 x K`` multiply per site."""
        lat = self.lattice
        d = 0 if sign > 0 else 1
        table = (lat.fwd[mu] if sign > 0 else lat.bwd[mu])[sites]
        hop_blocks = reduced(self, "hop_blocks", compute_dtype(vs))[mu, d]
        blocks = hop_blocks[sites, :, self._dofs(chirality)]
        k, n = vs.shape[0], len(sites)
        # (site, dof, system), gathered in one pass
        nbr = vs.reshape(k, lat.volume, -1).transpose(1, 2, 0)[table]
        return np.matmul(blocks, nbr).transpose(2, 0, 1).reshape(k, n, self.ns, self.nc)

    def _dofs(self, chirality: int | None) -> slice:
        """A site's dofs in ``chirality``; all of them for ``None``."""
        if chirality is None:
            return slice(None)
        return slice(chirality * self.chiral_dof, (chirality + 1) * self.chiral_dof)

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
        operator's gamma5-hermiticity, and holds bit for bit for
        operators produced by the Galerkin product of a gamma5-hermitian
        fine operator (which derives the backward links).
        """
        return max(
            float(np.abs(blocks - expect).max())
            for name, blocks, expect in self.gamma5_partners()
            if name != "X"
        )

    def gamma5_partners(self):
        """``(name, blocks, expect)`` for each array gamma5-hermiticity
        determines: ``X`` and ``G X^dag G``, each backward link and
        ``G Y^{+mu}(x - mu)^dag G``.  Every ``expect`` is written into
        one buffer: read each before taking the next."""
        expect = np.empty_like(self.x_blocks)
        yield "X", self.x_blocks, gamma5_adjoint(self.x_blocks, self.chiral_dof, expect)
        for mu in range(NDIM):
            forward = self.hop_blocks[mu, 0][self.lattice.bwd[mu]]
            gamma5_adjoint(forward, self.chiral_dof, expect)
            yield f"Y^-{mu}", self.hop_blocks[mu, 1], expect

    @property
    def chiral_dof(self) -> int:
        """The dofs of a site in the first chirality, where ``G = +1``
        (``G = -1`` on the rest)."""
        return self.ns // 2 * self.nc

    def memory_bytes(self, precision_bytes: float = 4.0) -> float:
        """Storage footprint of the operator (for the performance model)."""
        n = self.site_dof
        mats = self.lattice.volume * (1 + 2 * NDIM) * n * n
        return mats * 2 * precision_bytes

    def __repr__(self) -> str:
        return f"CoarseOperator({self.lattice!r}, ns={self.ns}, nc={self.nc})"


def gamma5_adjoint(
    blocks: np.ndarray, half: int, out: np.ndarray | None = None
) -> np.ndarray:
    """``G B^dag G`` of every ``N x N`` block ``B`` of ``blocks`` (into
    ``out`` when given), with ``G`` the coarse gamma5, ``+1`` on the
    first ``half`` dofs and ``-1`` on the rest: a transpose, a
    conjugation and a negation of the off-chirality quadrants, so it is
    exact."""
    out = np.conjugate(np.swapaxes(blocks, -1, -2), out=out)
    for quadrant in (out[..., :half, half:], out[..., half:, :half]):
        np.negative(quadrant, out=quadrant)
    return out
