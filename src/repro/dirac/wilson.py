"""The Wilson-Clover Dirac operator (paper Eq 2).

.. math::

    M_{x,x'} = -\\tfrac12 \\sum_\\mu \\left( P^{-\\mu} \\otimes U_\\mu(x)
    \\,\\delta_{x+\\hat\\mu, x'} + P^{+\\mu} \\otimes U^\\dagger_\\mu(x-\\hat\\mu)
    \\,\\delta_{x-\\hat\\mu, x'} \\right) + (4 + m + A_x)\\,\\delta_{x,x'}

acting on spinor data of shape ``(V, 4, 3)``.  The fermion field obeys
antiperiodic boundary conditions in time (standard for thermal field
theory), implemented as a sign on links crossing the time boundary.
"""

from __future__ import annotations

import numpy as np

from ..fields import GaugeField
from ..gauge.su3 import dagger
from ..lattice import NDIM, Lattice
from ..precision import compute_dtype, reduced
from .clover import CloverTerm
from .gamma import NS, chirality_slices, projectors
from .stencil import StencilOperator
from .wilson_kernel import wilson_kernel_for

TIME_DIR = 3


class WilsonCloverOperator(StencilOperator):
    """Wilson-Clover matrix ``M`` for a gauge field, mass and ``c_sw``.

    ``c_sw = 0`` gives the plain (unimproved) Wilson operator.

    ``anisotropy`` (the bare ``xi = a_s / a_t`` of anisotropic actions
    like the paper's Aniso40 ensemble) down-weights the spatial hopping
    terms by ``1/xi`` relative to the temporal one; the site-local term
    becomes ``(m + 3/xi + 1)`` so the zero-momentum free eigenvalue
    stays ``m``.  ``hop_weights`` overrides the per-direction weights
    directly when given.
    """

    def __init__(
        self,
        gauge: GaugeField,
        mass: float,
        c_sw: float = 1.0,
        antiperiodic_t: bool = True,
        anisotropy: float = 1.0,
        hop_weights: tuple[float, float, float, float] | None = None,
    ):
        self.lattice: Lattice = gauge.lattice
        self.ns = NS
        self.nc = 3
        self.gauge = gauge
        self.mass = float(mass)
        self.c_sw = float(c_sw)
        self.antiperiodic_t = bool(antiperiodic_t)
        if anisotropy <= 0:
            raise ValueError(f"anisotropy must be > 0, got {anisotropy}")
        if hop_weights is None:
            w = 1.0 / anisotropy
            hop_weights = (w, w, w, 1.0)
        if len(hop_weights) != NDIM or any(w <= 0 for w in hop_weights):
            raise ValueError(f"need {NDIM} positive hop weights, got {hop_weights}")
        self.anisotropy = float(anisotropy)
        self.hop_weights = tuple(float(w) for w in hop_weights)

        lat = self.lattice
        # Boundary-phased, hop-weighted link copies: u_fwd[mu][x]
        # multiplies the neighbour at x+mu; u_bwd[mu][x]
        # (= U_mu(x-mu)^dag, phased) multiplies the neighbour at x-mu.
        self._u_fwd = np.empty_like(gauge.data)
        self._u_bwd = np.empty_like(gauge.data)
        for mu in range(NDIM):
            fwd_phase = np.full(lat.volume, self.hop_weights[mu])
            bwd_phase = np.full(lat.volume, self.hop_weights[mu])
            if antiperiodic_t and mu == TIME_DIR:
                fwd_phase[lat.crosses_fwd[mu]] *= -1.0
                bwd_phase[lat.crosses_bwd[mu]] *= -1.0
            self._u_fwd[mu] = gauge.data[mu] * fwd_phase[:, None, None]
            self._u_bwd[mu] = dagger(gauge.data[mu][lat.bwd[mu]]) * bwd_phase[:, None, None]

        if c_sw != 0.0:
            self.clover = CloverTerm.from_gauge(gauge, c_sw)
        else:
            self.clover = CloverTerm.zero(lat.volume)
        # Site-local term (sum_mu w_mu + m + A) and its inverse, in
        # chiral blocks; the Wilson term's diagonal carries one unit per
        # hop weight so the free zero mode sits exactly at m.
        self._diag_blocks = self.clover.shifted(sum(self.hop_weights) + self.mass)
        self._diag_inv = np.linalg.inv(self._diag_blocks)
        self._proj_minus, self._proj_plus = projectors()

    # ------------------------------------------------------------------
    def apply_diag(self, v: np.ndarray) -> np.ndarray:
        """Clover/mass site-local term."""
        return self.apply_diag_multi(v[None])[0]

    def apply_diag_multi(
        self, vs: np.ndarray, chirality: int | None = None
    ) -> np.ndarray:
        """Clover/mass site-local term of a ``(K, V, 4, 3)`` stack or of a
        chiral stack (:meth:`StencilOperator.apply_diag_multi`), whose
        chirality it keeps."""
        blocks = reduced(self, "_diag_blocks", compute_dtype(vs))
        return self._apply_blocks(blocks, vs, chirality)

    def apply_diag_inv(self, v: np.ndarray) -> np.ndarray:
        return self._apply_blocks(reduced(self, "_diag_inv", compute_dtype(v)), v[None])[0]

    def _apply_blocks(
        self, blocks: np.ndarray, vs: np.ndarray, chirality: int | None = None
    ) -> np.ndarray:
        """Per-site chiral ``6x6`` blocks ``(V, 2, 6, 6)`` applied to a
        ``(K, V, 4, 3)`` stack, or to the chiral stack ``(K, V, 2, 3)``
        of ``chirality`` (the result zero in the other chirality): one
        ``6 x 6`` by ``6 x K`` multiply per site and chirality."""
        k, vol = vs.shape[:2]
        out = np.zeros((k, vol, self.ns, self.nc), dtype=vs.dtype)
        for chi, sl in enumerate(chirality_slices()):
            if chirality is None:
                x = vs[:, :, sl, :]
            elif chi == chirality:
                x = vs
            else:
                continue
            x = x.reshape(k, vol, 6).transpose(1, 2, 0)
            out[:, :, sl, :] = (
                np.matmul(blocks[:, chi], x).transpose(2, 0, 1).reshape(k, vol, 2, 3)
            )
        return out

    # ------------------------------------------------------------------
    def apply_hop_gathered(self, mu: int, sign: int, nbr: np.ndarray) -> np.ndarray:
        """Signed hop ``-(1/2) P^{∓mu} U nbr`` with pre-gathered neighbours."""
        dtype = compute_dtype(nbr)
        links = reduced(self, "_u_fwd" if sign > 0 else "_u_bwd", dtype)[mu]
        proj = reduced(self, "_proj_minus" if sign > 0 else "_proj_plus", dtype)[mu]
        colored = np.matmul(links[:, None, :, :], nbr[..., None])[..., 0]
        return -0.5 * np.tensordot(colored, proj, axes=([1], [1])).transpose(0, 2, 1)

    def apply_hop_sites(
        self, mu: int, sign: int, sites: np.ndarray, vs: np.ndarray, chirality: int
    ) -> np.ndarray:
        """Signed hop on the output sites ``sites`` of a chiral stack
        ``(K, V, 2, 3)`` (:meth:`StencilOperator.apply_hop_sites`): one
        ``3 x 3`` by ``3 x 2K`` multiply per site, then the projector's
        two columns of the chirality (the ``-1/2`` folded in) as one
        GEMM."""
        dtype = compute_dtype(vs)
        fwd = sign > 0
        links = reduced(self, "_u_fwd" if fwd else "_u_bwd", dtype)[mu][sites]
        proj = reduced(self, "_proj_minus" if fwd else "_proj_plus", dtype)[mu]
        proj = proj[:, chirality_slices()[chirality]]
        table = (self.lattice.fwd[mu] if fwd else self.lattice.bwd[mu])[sites]
        k, n = vs.shape[0], len(sites)
        # (site, colour, system * spin), gathered in one pass
        nbr = vs.transpose(1, 3, 0, 2)[table].reshape(n, 3, k * 2)
        colored = np.matmul(links, nbr).reshape(n * 3 * k, 2)
        out = np.matmul(colored, -0.5 * proj.T).reshape(n, 3, k, NS)
        return out.transpose(2, 0, 3, 1)

    def apply_hopping(self, v: np.ndarray) -> np.ndarray:
        """Sum of all eight hop terms, by the production kernel."""
        return wilson_kernel_for(self, compute_dtype(v)).hop_sum_sites(v[None])[0]

    def _apply_multi(self, vs: np.ndarray) -> np.ndarray:
        """Application to a ``(K, V, 4, 3)`` stack by the production kernel."""
        return wilson_kernel_for(self, compute_dtype(vs)).apply_sites(vs)

    def apply_reference(self, v: np.ndarray) -> np.ndarray:
        """Site-major full application (diagonal + all eight un-projected
        hops): the oracle the production kernel is tested against."""
        lat = self.lattice
        out = self._apply_blocks(self._diag_blocks, v[None])[0]
        for mu in range(NDIM):
            fwd = np.matmul(
                self._u_fwd[mu][:, None, :, :], v[lat.fwd[mu]][..., None]
            )[..., 0]
            bwd = np.matmul(
                self._u_bwd[mu][:, None, :, :], v[lat.bwd[mu]][..., None]
            )[..., 0]
            out -= 0.5 * np.tensordot(
                fwd, self._proj_minus[mu], axes=([1], [1])
            ).transpose(0, 2, 1)
            out -= 0.5 * np.tensordot(
                bwd, self._proj_plus[mu], axes=([1], [1])
            ).transpose(0, 2, 1)
        return out

    # ------------------------------------------------------------------
    def flops_per_site(self) -> float:
        """QUDA's standard Wilson-Clover flop count: 1824 + clover.

        Wilson dslash is 1320 flops/site; the clover multiply adds
        2 * (8 * 36 - 12) complex-block flops = 504, and the mass term
        is folded into the clover diagonal.
        """
        return 1824.0 if self.c_sw != 0.0 else 1368.0

    def bytes_per_site(self, precision_bytes: float = 8.0) -> float:
        """Wilson-Clover traffic model (no gauge-link reconstruction here:
        the NumPy implementation stores all 18 reals per link; spinor
        neighbour reuse matches :class:`repro.gpu.kernels.WilsonCloverDslashKernel`)."""
        matrices, vectors = self.bytes_per_site_split(precision_bytes)
        return matrices + vectors

    def bytes_per_site_split(
        self, precision_bytes: float = 8.0
    ) -> tuple[float, float]:
        """Traffic split: gauge+clover matrices vs spinor vectors.

        The matrix half is what a batched multi-RHS application reads
        once for the whole batch (Section 9); the vector half scales
        with the number of right-hand sides.
        """
        p = precision_bytes
        gauge = 8 * 18 * p
        spinor_reuse = 0.5
        spinor_in = (1 + 8 * (1.0 - spinor_reuse)) * 24 * p
        spinor_out = 24 * p
        clover = 72 * p if self.c_sw != 0.0 else 0.0
        return gauge + clover, spinor_in + spinor_out
