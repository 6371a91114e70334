"""Red-black (even-odd) Schur-complement preconditioning.

The lattice is bipartite and the hopping term connects only opposite
parities, so in the parity-ordered basis

    M = [[A_ee, H_eo],
         [H_oe, A_oo]]

and solving ``M x = b`` reduces to the half-volume Schur system (paper
Section 3.3, [26])

    (A_ee - H_eo A_oo^{-1} H_oe) x_e = b_e - H_eo A_oo^{-1} b_o,
    x_o = A_oo^{-1} (b_o - H_oe x_e).

This wrapper works for *any* :class:`~repro.dirac.stencil.StencilOperator`
— the fine Wilson-Clover matrix and every coarse Galerkin operator —
because the paper applies red-black preconditioning on all levels
(Section 7.1).

Two evaluations of the same algebra live here.  The ``*_reference``
methods lift half-fields into zero-padded full-lattice arrays and call
the operator's public primitives: correct for any stencil operator, the
path coarse operators run, and the oracle for the fine grid.  When the
operator exposes Wilson-Clover internals, ``apply`` / ``prepare_source``
/ ``reconstruct`` instead run the half-volume site-fastest kernel of
:mod:`repro.dirac.wilson_kernel`, which never forms the padding.

Both compute at the dtype of the field they are handed: a complex64
half-field meets the complex64 kernel (or complex64 padding and the
operator's complex64 tables) and comes back complex64.
"""

from __future__ import annotations

import numpy as np

from ..lattice import Lattice
from ..precision import compute_dtype
from .stencil import StencilOperator
from .wilson_kernel import wilson_kernel_for


class SchurOperator:
    """The half-lattice Schur complement of a stencil operator.

    Half-fields have shape ``(V/2, ns, nc)`` with sites ordered as in
    ``lattice.sites_of_parity(parity)``.
    """

    def __init__(self, op: StencilOperator, parity: int = 0):
        if parity not in (0, 1):
            raise ValueError(f"parity must be 0 or 1, got {parity}")
        self.op = op
        self.parity = parity
        self.lattice: Lattice = op.lattice
        self.ns = op.ns
        self.nc = op.nc
        self._own = self.lattice.sites_of_parity(parity)
        self._other = self.lattice.sites_of_parity(1 - parity)

    @property
    def half_volume(self) -> int:
        return self.lattice.half_volume

    # ------------------------------------------------------------------
    # parity restriction / lifting
    # ------------------------------------------------------------------
    def lift(self, half: np.ndarray, parity: int | None = None) -> np.ndarray:
        """Embed a half-field into a zero-padded full-lattice field."""
        sites = self._own if (parity is None or parity == self.parity) else self._other
        full = np.zeros(
            (self.lattice.volume, self.ns, self.nc), dtype=compute_dtype(half)
        )
        full[sites] = half
        return full

    def restrict(self, full: np.ndarray, parity: int | None = None) -> np.ndarray:
        """Extract the half-field of a given parity (default: own parity)."""
        sites = self._own if (parity is None or parity == self.parity) else self._other
        return np.ascontiguousarray(full[sites])

    # ------------------------------------------------------------------
    # the Schur matrix
    # ------------------------------------------------------------------
    def apply(self, half: np.ndarray) -> np.ndarray:
        """``(A_pp - H_pq A_qq^{-1} H_qp) x_p`` on half-field data."""
        return self.apply_multi(half[None])[0]

    def apply_reference(self, half: np.ndarray) -> np.ndarray:
        """The Schur matrix through zero-padded full-lattice fields."""
        full = self.lift(half)
        hop1 = self.op.apply_hopping(full)  # lives on opposite parity
        mid = self.op.apply_diag_inv(hop1)
        hop2 = self.op.apply_hopping(mid)  # back on own parity
        out = self.op.apply_diag(full) - hop2
        return self.restrict(out)

    def apply_multi(self, halves: np.ndarray) -> np.ndarray:
        """The Schur matrix on a ``(K, V/2, ns, nc)`` stack: one kernel
        call on the fine grid, a loop over systems anywhere else."""
        kernel = wilson_kernel_for(self.op, compute_dtype(halves))
        if kernel is None:
            return np.stack([self.apply_reference(h) for h in halves])
        return kernel.schur_apply_sites(self.parity, halves)

    # ------------------------------------------------------------------
    # source preparation / solution reconstruction
    # ------------------------------------------------------------------
    def prepare_source(self, b_full: np.ndarray) -> np.ndarray:
        """``b_p - H_pq A_qq^{-1} b_q`` — right-hand side of the Schur system."""
        return self.prepare_multi(b_full[None])[0]

    def prepare_source_reference(self, b_full: np.ndarray) -> np.ndarray:
        b_other = self.lift(self.restrict(b_full, 1 - self.parity), 1 - self.parity)
        corr = self.op.apply_hopping(self.op.apply_diag_inv(b_other))
        return self.restrict(b_full) - self.restrict(corr)

    def prepare_multi(self, bs: np.ndarray) -> np.ndarray:
        """Schur right-hand sides for a ``(K, V, ns, nc)`` stack."""
        kernel = wilson_kernel_for(self.op, compute_dtype(bs))
        if kernel is None:
            return np.stack([self.prepare_source_reference(b) for b in bs])
        return kernel.schur_prepare_sites(self.parity, bs)

    def reconstruct(self, x_half: np.ndarray, b_full: np.ndarray) -> np.ndarray:
        """Assemble the full-lattice solution from the Schur solution."""
        return self.reconstruct_multi(x_half[None], b_full[None])[0]

    def reconstruct_reference(
        self, x_half: np.ndarray, b_full: np.ndarray
    ) -> np.ndarray:
        x_full = self.lift(x_half)
        hop = self.op.apply_hopping(x_full)  # lives on opposite parity
        rhs_other = self.lift(self.restrict(b_full, 1 - self.parity), 1 - self.parity)
        x_other = self.op.apply_diag_inv(rhs_other - hop)
        return x_full + x_other

    def reconstruct_multi(self, xs_half: np.ndarray, bs: np.ndarray) -> np.ndarray:
        """Full-lattice solutions for stacks of Schur solutions and sources."""
        kernel = wilson_kernel_for(self.op, compute_dtype(bs))
        if kernel is None:
            return np.stack(
                [self.reconstruct_reference(x, b) for x, b in zip(xs_half, bs)]
            )
        return kernel.schur_reconstruct_sites(self.parity, xs_half, bs)

    # ------------------------------------------------------------------
    def gamma5_diag(self) -> np.ndarray:
        return self.op.gamma5_diag()

    def to_dense(self) -> np.ndarray:
        """Dense Schur matrix for exhaustive testing on tiny lattices."""
        hv = self.half_volume
        dof = self.ns * self.nc
        n = hv * dof
        basis = np.zeros((hv, self.ns, self.nc), dtype=np.complex128)
        out = np.empty((n, n), dtype=np.complex128)
        flat = basis.reshape(-1)
        for j in range(n):
            flat[j] = 1.0
            out[:, j] = self.apply(basis).reshape(-1)
            flat[j] = 0.0
        return out
