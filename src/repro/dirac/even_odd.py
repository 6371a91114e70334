"""Red-black (even-odd) Schur-complement preconditioning.

The lattice is bipartite and the hopping term connects only opposite
parities, so in the parity-ordered basis

    M = [[A_ee, H_eo],
         [H_oe, A_oo]]

and solving ``M x = b`` reduces to the half-volume Schur system (paper
Section 3.3, [26])

    (A_ee - H_eo A_oo^{-1} H_oe) x_e = b_e - H_eo A_oo^{-1} b_o,
    x_o = A_oo^{-1} (b_o - H_oe x_e).

The paper applies red-black preconditioning on all levels (Section
7.1) and solves stacks of right-hand sides (Section 9), so every
red-black system has one interface, on ``(K, ...)`` stacks, solving on
the even sites: ``prepare_multi(bs)`` (``(K, V, ns, nc)`` sources to
``(K, V/2, ns, nc)`` Schur right-hand sides), ``apply_multi(halves)``,
``reconstruct_multi(xs_half, bs)``, ``unknowns``, ``solve_multi`` where
the system holds dense factors, and ``native(dtype)``: the system over
the stack it computes on, whose ``enter`` / ``leave`` convert a public
stack in and out and whose ``apply_multi`` takes the native one, so a
loop that iterates on the system converts once, not per application.
Every method computes at the dtype of the stack it is handed.

Two implementations run in production and
:func:`repro.dirac.mrhs.batched_schur_for` alone chooses between them:
:class:`SchurOperator` on the fine grid (the half-volume site-fastest
kernel of :mod:`repro.dirac.wilson_kernel`) and
:class:`~repro.dirac.mrhs.BatchedCoarseSchur` on dense-block coarse
operators.  :class:`SchurReference` evaluates the same algebra through
zero-padded full-lattice fields and the operator's public primitives,
one system at a time: correct for any stencil operator and the oracle
both are tested against.
"""

from __future__ import annotations

import numpy as np

from ..precision import compute_dtype
from .wilson_kernel import (
    SiteFastestSchur,
    supports_wilson_kernel,
    to_site_fastest,
    wilson_kernel_for,
)


class SiteMajorNative:
    """A red-black system whose native stack is its public ``(K, V/2,
    ns, nc)`` one: at every dtype it is its own native view, entered and
    left as it is."""

    def native(self, dtype):
        return self

    @staticmethod
    def enter(halves: np.ndarray) -> np.ndarray:
        return halves

    @staticmethod
    def leave(native: np.ndarray) -> np.ndarray:
        return native


class SchurOperator:
    """The red-black system of the fine Wilson-Clover operator on the
    production kernel: one kernel call for a whole stack, whose link and
    clover tables are read once for all ``K`` systems."""

    def __init__(self, op):
        if not supports_wilson_kernel(op):
            raise TypeError(f"{type(op).__name__} has no Wilson-Clover kernel tables")
        self.op = op

    @property
    def unknowns(self) -> int:
        """Size of the red-black system: half the sites, ``ns nc`` per site."""
        return self.op.lattice.half_volume * self.op.site_dof

    def native(self, dtype) -> SiteFastestSchur:
        """The system at ``dtype`` over the kernel's site-fastest stack."""
        return SiteFastestSchur(wilson_kernel_for(self.op, dtype))

    def apply_multi(self, halves: np.ndarray) -> np.ndarray:
        """``(A_ee - H_eo A_oo^{-1} H_oe) x_e`` on a ``(K, V/2, 4, 3)`` stack."""
        system = self.native(compute_dtype(halves))
        return system.leave(system.apply_multi(system.enter(halves)))

    def prepare_multi(self, bs: np.ndarray) -> np.ndarray:
        """Schur right-hand sides ``b_e - H_eo A_oo^{-1} b_o``."""
        kernel = wilson_kernel_for(self.op, compute_dtype(bs))
        even, odd = kernel.sites
        b_odd = to_site_fastest(bs[:, odd], kernel.dtype)
        corr = kernel.hop(0, kernel.diag_inv(1, b_odd))
        return bs[:, even] - corr.transpose(0, 3, 2, 1)

    def reconstruct_multi(self, xs_half: np.ndarray, bs: np.ndarray) -> np.ndarray:
        """Full-lattice solutions, ``x_o = A_oo^{-1} (b_o - H_oe x_e)``."""
        kernel = wilson_kernel_for(self.op, compute_dtype(bs))
        even, odd = kernel.sites
        rhs = to_site_fastest(bs[:, odd], kernel.dtype)
        rhs -= kernel.hop(1, to_site_fastest(xs_half, kernel.dtype))
        out = np.empty(bs.shape, dtype=kernel.dtype)
        out[:, even] = xs_half
        out[:, odd] = kernel.diag_inv(1, rhs).transpose(0, 3, 2, 1)
        return out


class SchurReference(SiteMajorNative):
    """The red-black system of any stencil operator through zero-padded
    full-lattice fields and its public ``apply_diag`` /
    ``apply_diag_inv`` / ``apply_hopping``, one system at a time: the
    oracle of the production systems, on single half-fields and on
    stacks.  A setup or a solve can be driven through it by passing it
    as a level's system."""

    def __init__(self, op):
        self.op = op
        self._sites = (op.lattice.even_sites, op.lattice.odd_sites)

    @property
    def unknowns(self) -> int:
        return self.op.lattice.half_volume * self.op.ns * self.op.nc

    def lift(self, half: np.ndarray, parity: int = 0) -> np.ndarray:
        """Embed a half-field of ``parity`` into a zero-padded full field."""
        op = self.op
        full = np.zeros((op.lattice.volume, op.ns, op.nc), dtype=compute_dtype(half))
        full[self._sites[parity]] = half
        return full

    def restrict(self, full: np.ndarray, parity: int = 0) -> np.ndarray:
        """The half-field of ``parity`` of a full field."""
        return np.ascontiguousarray(full[self._sites[parity]])

    def apply(self, half: np.ndarray) -> np.ndarray:
        """``(A_ee - H_eo A_oo^{-1} H_oe) x_e`` on one half-field."""
        op, full = self.op, self.lift(half)
        hop2 = op.apply_hopping(op.apply_diag_inv(op.apply_hopping(full)))
        return self.restrict(op.apply_diag(full) - hop2)

    def prepare_source(self, b: np.ndarray) -> np.ndarray:
        """``b_e - H_eo A_oo^{-1} b_o`` for one full field."""
        op, b_odd = self.op, self.lift(self.restrict(b, 1), 1)
        return self.restrict(b) - self.restrict(op.apply_hopping(op.apply_diag_inv(b_odd)))

    def reconstruct(self, x_half: np.ndarray, b: np.ndarray) -> np.ndarray:
        """The full-lattice solution of one system."""
        x_full = self.lift(x_half)
        rhs_odd = self.lift(self.restrict(b, 1), 1)
        return x_full + self.op.apply_diag_inv(rhs_odd - self.op.apply_hopping(x_full))

    def apply_multi(self, halves: np.ndarray) -> np.ndarray:
        return np.stack([self.apply(h) for h in halves])

    def prepare_multi(self, bs: np.ndarray) -> np.ndarray:
        return np.stack([self.prepare_source(b) for b in bs])

    def reconstruct_multi(self, xs_half: np.ndarray, bs: np.ndarray) -> np.ndarray:
        return np.stack([self.reconstruct(x, b) for x, b in zip(xs_half, bs)])
