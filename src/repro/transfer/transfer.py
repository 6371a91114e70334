"""Chirality-preserving aggregation transfer operators (paper Section 3.4).

The prolongator ``P`` is built from ``Nc_hat`` near-null-space vectors
of the fine operator: the vectors are partitioned into disjoint
hypercubic aggregates, split by chirality (upper / lower spin blocks,
footnote 1), and block-orthonormalized with a QR decomposition per
(aggregate x chirality).  The restrictor is ``R = P^dagger``, which the
chirality split makes legitimate (a vector rich in right low modes is
also rich in left low modes).

The coarse grid consequently carries ``Ns_hat = 2`` spin (chirality)
components and ``Nc_hat`` colors per site.

The bases are orthonormalized and kept in complex128; ``restrict`` and
``prolong`` compute at the dtype of the field they are handed, on a
copy of the bases cast to that dtype the first time such a field
arrives (:func:`repro.precision.reduced`).
"""

from __future__ import annotations

import numpy as np

from ..fields import SpinorField
from ..lattice import Blocking
from ..precision import COMPLEX128, compute_dtype, reduced
from ..dirac.gamma import chirality_slices_for


class Transfer:
    """Prolongation/restriction between a fine level and its blocked coarse level.

    Parameters
    ----------
    blocking:
        The hypercubic aggregation geometry.
    null_vectors:
        ``Nc_hat`` fine-grid fields of shape ``(V_f, ns_f, nc_f)`` that
        span the near-null space.
    """

    def __init__(self, blocking: Blocking, null_vectors: list[np.ndarray]):
        if not null_vectors:
            raise ValueError("need at least one null vector")
        first = null_vectors[0]
        if first.ndim != 3 or first.shape[0] != blocking.fine.volume:
            raise ValueError(
                f"null vectors must have shape (V_fine, ns, nc), got {first.shape}"
            )
        fine_ns, fine_nc, coarse_nc = first.shape[1], first.shape[2], len(null_vectors)
        if fine_ns % 2:
            raise ValueError(f"fine ns must be even for a chirality split, got {fine_ns}")
        rows = blocking.block_volume * (fine_ns // 2) * fine_nc
        if rows < coarse_nc:
            raise ValueError(
                f"aggregate dof ({rows}) smaller than number of null vectors "
                f"({coarse_nc}); enlarge the blocks or use fewer vectors"
            )

        stack = np.stack(null_vectors, axis=-1)  # (V_f, ns, nc, Nc_hat)
        vc = blocking.coarse.volume
        basis = np.empty((vc, 2, rows, coarse_nc), dtype=np.complex128)
        for chi, sl in enumerate(chirality_slices_for(fine_ns)):
            chi_part = stack[:, sl, :, :]  # (V_f, ns/2, nc, Nc_hat)
            gathered = chi_part[blocking.agg_sites]  # (Vc, bv, ns/2, nc, Nc_hat)
            mat = gathered.reshape(vc, rows, coarse_nc)
            q, r = np.linalg.qr(mat)
            diag = np.abs(np.einsum("vkk->vk", r))
            if np.any(diag < 1e-12 * np.sqrt(rows)):
                raise ValueError(
                    "null vectors are linearly dependent within an aggregate; "
                    "regenerate with different random seeds"
                )
            basis[:, chi] = q
        self._adopt(blocking, basis, fine_ns, fine_nc)

    @classmethod
    def from_basis(
        cls, blocking: Blocking, basis: np.ndarray, fine_ns: int, fine_nc: int
    ) -> "Transfer":
        """The transfer over an already orthonormal ``basis`` of shape
        ``(V_c, 2, rows, Nc_hat)``, as a built transfer holds it: no QR.
        This is how a persisted setup is restored."""
        transfer = cls.__new__(cls)
        transfer._adopt(blocking, basis, fine_ns, fine_nc)
        return transfer

    def _adopt(self, blocking: Blocking, basis: np.ndarray, fine_ns: int, fine_nc: int):
        self.blocking = blocking
        self.fine_lattice = blocking.fine
        self.coarse_lattice = blocking.coarse
        self.fine_ns = fine_ns
        self.fine_nc = fine_nc
        self.coarse_nc = basis.shape[-1]
        self.coarse_ns = 2
        # basis rows are ordered (block site, spin-in-chirality, color)
        self._basis = basis
        self._rows = basis.shape[2]

    # ------------------------------------------------------------------
    def restrict(self, fine: np.ndarray) -> np.ndarray:
        """``R v = P^dag v``: fine ``(V_f, ns, nc)`` -> coarse ``(V_c, 2, Nc_hat)``."""
        return self._restrict_rows(fine[None])[..., 0]

    def prolong(self, coarse: np.ndarray) -> np.ndarray:
        """``P v``: coarse ``(V_c, 2, Nc_hat)`` -> fine ``(V_f, ns, nc)``."""
        return self._prolong_multi(coarse[None])[0]

    # -- batched (multi-RHS) variants ------------------------------------
    def restrict_multi(self, fines: np.ndarray) -> np.ndarray:
        """Batched ``R``: ``(K, V_f, ns, nc)`` -> ``(K, V_c, 2, Nc_hat)``.

        The aggregate bases are read once for all ``K`` systems by
        folding the batch into the GEMM right-hand side (Section 9).
        """
        return np.ascontiguousarray(self._restrict_rows(fines).transpose(3, 0, 1, 2))

    def _restrict_rows(self, fines: np.ndarray) -> np.ndarray:
        """``R`` of a ``(K, V_f, ns, nc)`` stack as ``(V_c, 2, Nc_hat, K)``.

        Both chiralities in one gather and one GEMM per aggregate,
        written ``conj(basis^T conj(x))``: conjugating the gathered
        field and the result is cheaper than conjugating the basis
        (``rows x Nc_hat`` per aggregate) on every call, and keeps no
        second resident copy of it.
        """
        k = fines.shape[0]
        vc, bv = self.coarse_lattice.volume, self.blocking.block_volume
        g = fines[:, self.blocking.agg_sites].reshape(
            k, vc, bv, 2, self.fine_ns // 2, self.fine_nc
        )
        # (V_c, 2, rows, K): aggregate rows per coarse site, batch last
        x = g.transpose(1, 3, 2, 4, 5, 0).reshape(vc, 2, self._rows, k)
        np.conjugate(x, out=x)  # the gather copied: ``fines`` is untouched
        basis = reduced(self, "_basis", compute_dtype(fines))
        y = np.matmul(np.swapaxes(basis, -1, -2), x)
        return np.conjugate(y, out=y)

    def prolong_multi(self, coarses: np.ndarray) -> np.ndarray:
        """Batched ``P``: ``(K, V_c, 2, Nc_hat)`` -> ``(K, V_f, ns, nc)``."""
        return self._prolong_multi(coarses)

    def _prolong_multi(self, coarses: np.ndarray) -> np.ndarray:
        """The one body of :meth:`prolong` and :meth:`prolong_multi`: one
        basis GEMM per chirality, batch folded into its right-hand side."""
        k = coarses.shape[0]
        vf = self.fine_lattice.volume
        vc = self.coarse_lattice.volume
        dtype = compute_dtype(coarses)
        basis = reduced(self, "_basis", dtype)
        out = np.zeros((k, vf, self.fine_ns, self.fine_nc), dtype=dtype)
        agg = self.blocking.agg_sites
        bv = self.blocking.block_volume
        nsb = self.fine_ns // 2
        for chi, sl in enumerate(chirality_slices_for(self.fine_ns)):
            x = np.matmul(basis[:, chi], coarses[:, :, chi, :].transpose(1, 2, 0))
            out[:, agg.ravel(), sl, :] = (
                x.transpose(2, 0, 1).reshape(k, vc * bv, nsb, self.fine_nc)
            )
        return out

    def restrict_multi_reference(self, fines: np.ndarray) -> np.ndarray:
        """Batched restriction one chirality at a time against the
        conjugated basis: the oracle :meth:`restrict` and
        :meth:`restrict_multi` are tested against."""
        k = fines.shape[0]
        vc = self.coarse_lattice.volume
        dtype = compute_dtype(fines)
        basis = reduced(self, "_basis", dtype)
        out = np.empty((k, vc, 2, self.coarse_nc), dtype=dtype)
        agg = self.blocking.agg_sites
        for chi, sl in enumerate(chirality_slices_for(self.fine_ns)):
            # (Vc, rows, K): aggregate rows per coarse site, batch last
            x = (
                fines[:, agg][:, :, :, sl, :]
                .reshape(k, vc, self._rows)
                .transpose(1, 2, 0)
            )
            y = np.matmul(np.conj(np.swapaxes(basis[:, chi], -1, -2)), x)
            out[:, :, chi, :] = y.transpose(2, 0, 1)
        return out

    # -- the Galerkin product's columns -----------------------------------
    def unit_columns(self, cols: slice) -> np.ndarray:
        """``P e_j`` for the coarse dofs ``j`` in ``cols`` (``j = chirality
        * Nc_hat + colour``, one at every coarse site), complex128
        ``(K, V_f, ns, nc)``: column ``j`` of the basis laid out on the
        fine lattice, scattered rather than prolonged."""
        vc = self.coarse_lattice.volume
        nsb, nc = self.fine_ns // 2, self.fine_nc
        sites = self.blocking.agg_sites.ravel()
        out = np.zeros(
            (cols.stop - cols.start, self.fine_lattice.volume, self.fine_ns, nc),
            dtype=np.complex128,
        )
        for chi, sl in enumerate(chirality_slices_for(self.fine_ns)):
            first = chi * self.coarse_nc  # the chirality's first dof
            lo = max(cols.start, first)
            hi = min(cols.stop, first + self.coarse_nc)
            if lo >= hi:
                continue
            vals = self._basis[:, chi, :, lo - first : hi - first]
            out[lo - cols.start : hi - cols.start, :, sl][:, sites] = (
                vals.reshape(vc * self.blocking.block_volume, nsb, nc, hi - lo)
                .transpose(3, 0, 1, 2)
            )
        return out

    def restrict_slab(self, slab: np.ndarray, slots: np.ndarray) -> np.ndarray:
        """``R`` of a ``(K, V_f, ns, nc)`` stack that vanishes outside the
        in-block ``slots``, handed over as those sites only, aggregate by
        aggregate: ``slab`` is ``(K, V_c, len(slots), ns, nc)``.  Only
        the matching rows of the basis are read — one ``(Nc_hat,
        rows) @ (rows, K)`` GEMM per aggregate and chirality, batch
        last.  Returns ``(V_c, 2, Nc_hat, K)``."""
        k, vc = slab.shape[0], self.coarse_lattice.volume
        dtype = compute_dtype(slab)
        basis = reduced(self, "_basis", dtype)
        bv = self.blocking.block_volume
        out = np.empty((vc, 2, self.coarse_nc, k), dtype=dtype)
        for chi, sl in enumerate(chirality_slices_for(self.fine_ns)):
            rows = basis[:, chi].reshape(vc, bv, -1, self.coarse_nc)[:, slots]
            rows = rows.reshape(vc, -1, self.coarse_nc)
            x = slab[:, :, :, sl].reshape(k, vc, -1).transpose(1, 2, 0)
            out[:, chi] = np.matmul(np.conj(np.swapaxes(rows, -1, -2)), x)
        return out

    # -- SpinorField conveniences ----------------------------------------
    def restrict_field(self, v: SpinorField) -> SpinorField:
        return SpinorField(self.coarse_lattice, self.restrict(v.data))

    def prolong_field(self, v: SpinorField) -> SpinorField:
        return SpinorField(self.fine_lattice, self.prolong(v.data))

    # ------------------------------------------------------------------
    def application_cost(self, dtype=COMPLEX128) -> tuple[float, float]:
        """``(flops, bytes)`` of one restrict *or* prolong of a ``dtype`` field.

        Both directions read the same per-aggregate bases and stream the
        fine field once (:class:`repro.gpu.kernels.TransferKernel`, at
        the itemsize this implementation actually moves), so one cost
        serves both; telemetry attributes the traced
        ``restrict``/``prolong`` spans with it.
        """
        return self.application_cost_multi(1, dtype)

    def application_cost_multi(self, k: int, dtype=COMPLEX128) -> tuple[float, float]:
        """``(flops, bytes)`` of one batched restrict/prolong over ``k`` systems.

        The aggregate bases are read once for the whole batch (they sit
        in the GEMM's left operand); only the fine/coarse field traffic
        scales with ``k``.  Cached per ``(k, dtype)``.
        """
        cache = self.__dict__.setdefault("_application_cost", {})
        dtype = np.dtype(dtype)
        cached = cache.get((k, dtype))
        if cached is None:
            fine_volume = self.fine_lattice.volume
            fine_dof = self.fine_ns * self.fine_nc
            coarse_dof = self.coarse_ns * self.coarse_nc
            basis = fine_volume * fine_dof * coarse_dof / 2
            fine = fine_volume * fine_dof
            cached = cache[k, dtype] = (
                k * fine_volume * fine_dof * coarse_dof * 8.0 / 2,
                (basis + k * 2 * fine) * dtype.itemsize,
            )
        return cached

    # ------------------------------------------------------------------
    def orthonormality_violation(self) -> float:
        """Max deviation of ``P^dag P`` from the identity (should be ~eps)."""
        worst = 0.0
        eye = np.eye(self.coarse_nc)
        for chi in range(2):
            q = self._basis[:, chi]
            g = np.einsum("vrj,vrk->vjk", np.conj(q), q)
            worst = max(worst, float(np.abs(g - eye).max()))
        return worst

    def __repr__(self) -> str:
        return (
            f"Transfer({self.blocking!r}, ns {self.fine_ns}->2, "
            f"nc {self.fine_nc}->{self.coarse_nc})"
        )
