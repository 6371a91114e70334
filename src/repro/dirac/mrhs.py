"""Batched multi-RHS red-black systems (paper Section 9).

Paper Section 9 argues the multiple-right-hand-side reformulation pays
because "the same stencil operator is used for all systems".  On the
fine grid that is a property of the production kernel
(:mod:`repro.dirac.wilson_kernel`): it takes a leading ``K`` axis and
loops the right-hand sides inside each cache block of sites, so link
and clover tables are read once for all ``K`` systems, and
:class:`~repro.dirac.even_odd.SchurOperator` exposes it as
``apply_multi`` / ``prepare_multi`` / ``reconstruct_multi``.  On coarse
grids there is no spin structure to exploit; :class:`BatchedCoarseSchur`
folds the batch into the right-hand side of stacked dense-block GEMMs
on genuine half-volume fields, at the dtype of the stack it is handed.
"""

from __future__ import annotations

import numpy as np

from ..lattice import NDIM
from ..precision import COMPLEX128, compute_dtype
from .even_odd import SchurOperator


def supports_dense_block_schur(op) -> bool:
    """Whether ``op`` is a dense-block nearest-neighbour operator
    (:class:`~repro.coarse.coarse_op.CoarseOperator`-shaped) the batched
    coarse Schur kernels can drive directly."""
    return hasattr(op, "x_blocks") and hasattr(op, "hop_blocks")


class _DenseBlockHop:
    """Eight-direction dense-block hop sum restricted to parity subsets.

    There is no spin projector structure to exploit on a coarse grid,
    so the whole ``(N, N)`` link block is applied per direction — but
    the batch still folds into the GEMM's right-hand side, so every
    link matrix is read once for all ``K`` systems
    (``(8, Vo, N, N) @ (8, Vo, N, K)`` stacked GEMMs).
    """

    def __init__(
        self, op, out_sites: np.ndarray, src_sites: np.ndarray, dtype=COMPLEX128
    ):
        lat = op.lattice
        posmap = np.empty(lat.volume, dtype=np.int64)
        posmap[src_sites] = np.arange(len(src_sites))
        links, idx = [], []
        for mu in range(NDIM):
            for d, table in ((0, lat.fwd[mu]), (1, lat.bwd[mu])):
                links.append(op.hop_blocks[mu, d][out_sites])
                idx.append(posmap[table[out_sites]])
        # (8, Vo, N, N), cast from the operator's complex128 blocks
        self._links = np.stack(links, dtype=dtype, casting="same_kind")
        self._idx = np.stack(idx)                            # (8, Vo)
        self._vo = self._links.shape[1]

    @property
    def nbytes(self) -> int:
        return self._links.nbytes + self._idx.nbytes

    def apply(self, src: np.ndarray) -> np.ndarray:
        """``sum_{mu,s} Y src(nbr)``: (K, Vs, ns, nc) -> (K, Vo, ns, nc)."""
        k, vs = src.shape[0], src.shape[1]
        ns, nc = src.shape[2], src.shape[3]
        flat = src.reshape(k, vs, ns * nc).transpose(1, 2, 0)  # (Vs, N, K)
        g = flat[self._idx]                                    # (8, Vo, N, K)
        col = np.matmul(self._links, g)                        # (8, Vo, N, K)
        out = col.sum(axis=0)                                  # (Vo, N, K)
        return np.ascontiguousarray(out.transpose(2, 0, 1)).reshape(
            k, self._vo, ns, nc
        )


def _dense_blocks_apply_multi(mats: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """Apply per-site ``(N, N)`` blocks to ``(K, V, ns, nc)`` data, batch last."""
    k, vol = vs.shape[0], vs.shape[1]
    flat = vs.reshape(k, vol, -1).transpose(1, 2, 0)
    out = np.matmul(mats, flat)
    return np.ascontiguousarray(out.transpose(2, 0, 1)).reshape(vs.shape)


class BatchedCoarseSchur:
    """Batched red-black Schur for dense-block (coarse) operators.

    The batched methods of :class:`SchurOperator` one level down:
    ``apply_multi`` evaluates ``(X_ee - Y_eo X_oo^{-1} Y_oe) x_e`` on genuine
    half-volume ``(K, V/2, ns, nc)`` stacks, with every dense link and
    site block read once per application for all ``K`` systems.  The
    parity-gathered link stacks and site blocks are built per dtype, the
    first time a stack of that dtype arrives.
    """

    def __init__(self, op):
        self.op = op
        self._own = op.lattice.sites_of_parity(0)
        self._other = op.lattice.sites_of_parity(1)
        self._tables: dict = {}

    def table_bytes(self, dtype) -> int:
        """Bytes of the parity-gathered tables at ``dtype`` (every link
        and site block once, plus the two neighbour index tables) —
        known before they are built."""
        blocks = self.op.hop_blocks.size + self.op.x_blocks.size
        return blocks * np.dtype(dtype).itemsize + 2 * 2 * NDIM * self._own.size * 8

    def _at(self, dtype):
        """``(hop to other, hop to own, X_ee, X_oo^{-1})`` at ``dtype``."""
        tables = self._tables.get(dtype)
        if tables is None:
            op, own, other = self.op, self._own, self._other
            tables = self._tables[dtype] = (
                _DenseBlockHop(op, out_sites=other, src_sites=own, dtype=dtype),
                _DenseBlockHop(op, out_sites=own, src_sites=other, dtype=dtype),
                np.ascontiguousarray(op.x_blocks[own], dtype=dtype),
                # inverted once, in double, on the operator
                np.ascontiguousarray(op._x_inv[other], dtype=dtype),  # noqa: SLF001
            )
        return tables

    def apply_multi(self, halves: np.ndarray) -> np.ndarray:
        to_other, to_own, diag_own, dinv_other = self._at(compute_dtype(halves))
        mid = _dense_blocks_apply_multi(dinv_other, to_other.apply(halves))
        return _dense_blocks_apply_multi(diag_own, halves) - to_own.apply(mid)

    def prepare_multi(self, bs: np.ndarray) -> np.ndarray:
        """Schur right-hand sides ``b_e - Y_eo X_oo^{-1} b_o`` for a stack."""
        _, to_own, _, dinv_other = self._at(compute_dtype(bs))
        b_other = np.ascontiguousarray(bs[:, self._other])
        corr = to_own.apply(_dense_blocks_apply_multi(dinv_other, b_other))
        return bs[:, self._own] - corr

    def reconstruct_multi(self, xs_half: np.ndarray, bs: np.ndarray) -> np.ndarray:
        """Full-lattice solutions ``x_o = X_oo^{-1}(b_o - Y_oe x_e)``."""
        to_other, _, _, dinv_other = self._at(compute_dtype(bs))
        b_other = np.ascontiguousarray(bs[:, self._other])
        rhs_other = b_other - to_other.apply(xs_half)
        x_other = _dense_blocks_apply_multi(dinv_other, rhs_other)
        out = np.empty_like(bs)
        out[:, self._own] = xs_half
        out[:, self._other] = x_other
        return out


def batched_schur_for(op):
    """The fastest batched red-black system ``op`` supports: stacked
    dense-block GEMMs on a coarse operator, else
    :class:`~repro.dirac.even_odd.SchurOperator` itself — the production
    kernel on the fine grid, a per-system loop for any other stencil."""
    if supports_dense_block_schur(op):
        return BatchedCoarseSchur(op)
    return SchurOperator(op, parity=0)
