"""The production Wilson-Clover kernel: site-fastest, cache-blocked,
half-spinor, parity-to-parity.

The paper's argument is that a stencil parallelized over sites alone
starves the hardware, and that the work must also be decomposed over
direction, spin and colour.  The NumPy image of that starvation is a
hop written as ``V`` tiny ``3x3`` matmuls per direction: the
interpreter dispatches per site and the arithmetic units idle.  This
kernel turns the decomposition inside out — every NumPy call runs over
a long contiguous *site* axis, and direction, spin and colour are the
short leading axes:

* fields are genuine half-volume (one parity) and held **site-fastest**,
  ``(K, 3, 4, V/2)`` = (right-hand side, colour, spin, site) — QUDA's
  field order, where consecutive threads touch consecutive sites
  (arXiv:1011.0024), with the roles of thread and vector lane played by
  the innermost array axis;
* one ``(16, 4)`` GEMM spin-compresses the whole source for all eight
  directions (the rank-2 projector factorization of
  :func:`repro.dirac.gamma.projector_factors`), so neighbour gathers
  move 2-spinors;
* one ``np.take`` along the contiguous site axis gathers the
  neighbours of a block of output sites for all eight directions;
* the link multiply is three broadcast multiply-adds over
  ``(3, 2, 8, block)`` — one per source colour, no per-site dispatch;
* one ``(4, 16)`` GEMM reconstructs the 4-spinors and sums the eight
  directions (global ``-1/2`` folded in);
* the chiral ``6x6`` clover/diagonal blocks are applied the same way
  (one broadcast multiply, one reduction).

The output-site axis is cut into :data:`BLOCK`-long pieces so the
gathered neighbours, the link slab and the products of one block stay
cache-resident, and the right-hand sides are looped *inside* each
block, so a link slab is read from memory once for all ``K`` systems
(the MRHS loop order of arXiv:2211.13719).  ``K = 1`` is a batch of
one: there is no separate single-vector formulation.

Every public entry point of the package keeps the site-major
``(V, 4, 3)`` / ``(V/2, 4, 3)`` shapes; the ``*_sites`` methods below
and the red-black system of the fine grid
(:class:`~repro.dirac.even_odd.SchurOperator`) convert on entry and
exit (a transpose copy of the field, small next to the hop itself).
The MR smoother, which iterates on the red-black system, converts once
per smoothing instead: :class:`SiteFastestSchur`
(``SchurOperator.native``) is the system over the site-fastest stack,
entered once and left once.
``WilsonCloverOperator.apply_reference``,
``StencilOperator.hop_sum_reference`` and the zero-padded algebra of
:class:`~repro.dirac.even_odd.SchurReference` remain as the oracles the
kernel is tested against (``tests/test_wilson_kernel.py``).
"""

from __future__ import annotations

import numpy as np

from ..lattice import NDIM
from ..precision import COMPLEX128
from .gamma import projector_factors

#: Output sites per cache block.  Swept on a half hop at K=1 and K=8 on
#: V=1024 (4^3x16, one block per parity at this length) and V=8192
#: (8^3x16), at complex128 and complex64; the curve is flat within 10%
#: from 128 to 1024 and rises at 64 (per-call overhead) and from 2048 up
#: (the temporaries leave L2).  One constant serves both dtypes.
#: DESIGN.md section 17 records the sweeps.
BLOCK = 512

_INTERNALS = ("_u_fwd", "_u_bwd", "_diag_blocks", "_diag_inv")


def supports_wilson_kernel(op) -> bool:
    """Whether ``op`` exposes the Wilson-Clover internals the kernel
    reads (boundary-phased link copies, chiral diagonal blocks)."""
    return (
        all(hasattr(op, attr) for attr in _INTERNALS)
        and op.ns == 4
        and op.nc == 3
    )


def wilson_kernel_for(op, dtype=COMPLEX128) -> "WilsonKernel | None":
    """The ``dtype`` kernel shared by every consumer of ``op``, or ``None``.

    Built on first use at that dtype and cached on the operator, so the
    smoother, the full apply and the batched cycle read one set of
    tables per precision — and a precision nobody computes at costs
    nothing.
    """
    kernels = getattr(op, "_wilson_kernel", None)
    if kernels is None:
        if not supports_wilson_kernel(op):
            return None
        kernels = op._wilson_kernel = {}
    dtype = np.dtype(dtype)
    kernel = kernels.get(dtype)
    if kernel is None:
        kernel = kernels[dtype] = WilsonKernel(op, dtype)
    return kernel


def _site_blocks(table: np.ndarray, dtype=None) -> list[np.ndarray]:
    """Contiguous :data:`BLOCK`-long pieces of ``table``'s last (site)
    axis, cast to ``dtype`` when given."""
    return [
        np.ascontiguousarray(table[..., lo : lo + BLOCK], dtype=dtype)
        for lo in range(0, table.shape[-1], BLOCK)
    ]


def to_site_fastest(sites_major: np.ndarray, dtype) -> np.ndarray:
    """``(K, n, 4, 3)`` site-major -> ``(K, 3, 4, n)`` at ``dtype``."""
    return np.array(sites_major.transpose(0, 3, 2, 1), dtype=dtype, order="C")


def to_site_major(site_fastest: np.ndarray) -> np.ndarray:
    """``(K, 3, 4, n)`` site-fastest -> ``(K, n, 4, 3)``."""
    return np.ascontiguousarray(site_fastest.transpose(0, 3, 2, 1))


class WilsonKernel:
    """Link, index and clover tables of one operator plus the sweeps
    over them.

    ``hop``/``diag``/``diag_inv`` work on site-fastest half-volume
    stacks ``(K, 3, 4, V/2)``; a field *of* parity ``p`` lists the sites
    of ``lattice.sites_of_parity(p)`` in that order.  The ``*_sites``
    methods are full-lattice operations at the package's site-major
    boundary.  Tables, temporaries and results are all ``dtype``: a
    complex64 kernel streams half the bytes of a complex128 one.
    """

    def __init__(self, op, dtype=COMPLEX128):
        self.dtype = dtype = np.dtype(dtype)
        lat = op.lattice
        self.half_volume = vh = lat.half_volume
        self.sites = (lat.even_sites, lat.odd_sites)
        position = np.empty(lat.volume, dtype=np.int64)
        for parity_sites in self.sites:
            position[parity_sites] = np.arange(vh)

        m_recon, m_half, p_recon, p_half = projector_factors()
        # the eight hops: (mu, 0) reads x + mu_hat, (mu, 1) reads x - mu_hat
        hops = [(mu, o) for mu in range(NDIM) for o in (0, 1)]
        half = np.stack(
            [(m_half, p_half)[o][mu] for mu, o in hops]
        )  # (8, 2, 4): direction, half-spin, spin
        recon = np.stack(
            [(m_recon, p_recon)[o][mu] for mu, o in hops]
        )  # (8, 4, 2): direction, spin, half-spin
        # rows/columns ordered (half-spin, direction) so the compressed
        # field reads (colour, half-spin | direction, site): direction
        # sits next to the site axis and one flat gather serves all eight
        self._compress = np.ascontiguousarray(
            half.transpose(1, 0, 2).reshape(2 * 2 * NDIM, 4), dtype=dtype
        )
        self._reconstruct = np.ascontiguousarray(
            -0.5 * recon.transpose(1, 2, 0).reshape(4, 2 * 2 * NDIM), dtype=dtype
        )

        direction_offset = (np.arange(2 * NDIM) * vh)[:, None]
        self._bounds = [(lo, min(lo + BLOCK, vh)) for lo in range(0, vh, BLOCK)]
        self._links, self._gather = [], []
        self._diag, self._diag_inv = [], []
        for out_sites in self.sites:
            links = np.stack(
                [(op._u_fwd, op._u_bwd)[o][mu][out_sites] for mu, o in hops]
            )  # (8, V/2, 3, 3): direction, site, row, column
            neighbour = np.stack(
                [position[(lat.fwd, lat.bwd)[o][mu][out_sites]] for mu, o in hops]
            )  # (8, V/2): position in the opposite-parity field
            # (column, row, direction, site): links[b] is the slab that
            # multiplies source colour b
            self._links.append(_site_blocks(links.transpose(3, 2, 0, 1), dtype))
            self._gather.append(
                [
                    block.reshape(-1)
                    for block in _site_blocks(neighbour + direction_offset)
                ]
            )
            self._diag.append(self._chiral_table(op._diag_blocks[out_sites]))
            self._diag_inv.append(self._chiral_table(op._diag_inv[out_sites]))

    @staticmethod
    def table_bytes(half_volume: int, dtype=COMPLEX128) -> int:
        """Bytes of the tables a ``dtype`` kernel over ``half_volume``
        sites per parity holds — known before it is built, so a setup
        restored from disk books the same size as one that has already
        run."""
        complex_per_site = 2 * NDIM * 3 * 3 + 2 * 2 * 6 * 6  # links, diag + inverse
        index_per_site = 2 * NDIM
        return 2 * half_volume * (
            complex_per_site * np.dtype(dtype).itemsize
            + index_per_site * np.dtype(np.int64).itemsize
        )

    def tables(self) -> list[np.ndarray]:
        """Every link, gather and chiral block the sweeps read."""
        per_parity = self._links + self._gather + self._diag + self._diag_inv
        return [block for blocks in per_parity for block in blocks]

    def _chiral_table(self, blocks: np.ndarray) -> list[np.ndarray]:
        """``(n, 2, 6, 6)`` chiral blocks -> blocked ``(3, 2, 3, 2, 2, n)``.

        Axes: (source colour, source half-spin, colour, chirality,
        half-spin, site) — the leading pair is the contracted index,
        the rest is the site-fastest field shape with spin split into
        (chirality, half-spin).
        """
        n = blocks.shape[0]
        split = blocks.reshape(n, 2, 2, 3, 2, 3)  # site, chi, s, c, s', c'
        return _site_blocks(split.transpose(5, 4, 3, 1, 2, 0), self.dtype)

    # ------------------------------------------------------------------
    # site-fastest sweeps
    # ------------------------------------------------------------------
    def hop(self, parity: int, src: np.ndarray) -> np.ndarray:
        """Hop sum landing on ``parity``: ``-(1/2) sum P U src(nbr)``.

        ``src`` is a site-fastest stack of the *opposite* parity.
        """
        k, vh = src.shape[0], self.half_volume
        # (K*3, 16, V/2) -> per system (colour*half-spin, direction*site)
        compressed = np.matmul(
            self._compress, src.reshape(k * 3, 4, vh)
        ).reshape(k, 6, 2 * NDIM * vh)
        out = np.empty((k, 3, 4, vh), dtype=self.dtype)
        for (lo, hi), links, gather in zip(
            self._bounds, self._links[parity], self._gather[parity]
        ):
            n = hi - lo
            nbr = np.empty((6, 2 * NDIM * n), dtype=self.dtype)
            by_colour = nbr.reshape(3, 1, 2, 2 * NDIM, n)
            acc = np.empty((3, 2, 2 * NDIM, n), dtype=self.dtype)
            tmp = np.empty_like(acc)
            u0, u1, u2 = links[0][:, None], links[1][:, None], links[2][:, None]
            for i in range(k):
                # indices are valid by construction; "clip" skips
                # take's bounds-checking copy of the output
                np.take(compressed[i], gather, axis=1, out=nbr, mode="clip")
                np.multiply(u0, by_colour[0], out=acc)
                np.multiply(u1, by_colour[1], out=tmp)
                np.add(acc, tmp, out=acc)
                np.multiply(u2, by_colour[2], out=tmp)
                np.add(acc, tmp, out=acc)
                out[i, :, :, lo:hi] = np.matmul(
                    self._reconstruct, acc.reshape(3, 4 * NDIM, n)
                )
        return out

    def diag(self, parity: int, x: np.ndarray) -> np.ndarray:
        """Site-local term ``(sum_mu w_mu + m + A) x`` on one parity."""
        return self._chiral_apply(self._diag[parity], x)

    def diag_inv(self, parity: int, x: np.ndarray) -> np.ndarray:
        """Inverse site-local term on one parity."""
        return self._chiral_apply(self._diag_inv[parity], x)

    def _chiral_apply(self, tables: list[np.ndarray], x: np.ndarray) -> np.ndarray:
        k, vh = x.shape[0], self.half_volume
        # (K, source colour, source half-spin, 1, chirality, 1, site)
        source = x.reshape(k, 3, 2, 2, vh).transpose(0, 1, 3, 2, 4)[
            :, :, :, None, :, None, :
        ]
        out = np.empty((k, 3, 4, vh), dtype=self.dtype)
        for (lo, hi), table in zip(self._bounds, tables):
            prod = np.empty(table.shape, dtype=self.dtype)
            for i in range(k):
                np.multiply(table, source[i, ..., lo:hi], out=prod)
                out[i, :, :, lo:hi] = np.add.reduce(
                    prod.reshape(6, 3, 4, hi - lo), axis=0
                )
        return out

    # ------------------------------------------------------------------
    # the same operations at the site-major boundary
    # ------------------------------------------------------------------
    def _parity_fields(self, vs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return (
            to_site_fastest(vs[:, self.sites[0]], self.dtype),
            to_site_fastest(vs[:, self.sites[1]], self.dtype),
        )

    def _full_field(self, even: np.ndarray, odd: np.ndarray) -> np.ndarray:
        out = np.empty((even.shape[0], 2 * self.half_volume, 4, 3), dtype=self.dtype)
        out[:, self.sites[0]] = even.transpose(0, 3, 2, 1)
        out[:, self.sites[1]] = odd.transpose(0, 3, 2, 1)
        return out

    def apply_sites(self, vs: np.ndarray) -> np.ndarray:
        """Full ``M`` on a ``(K, V, 4, 3)`` stack."""
        even, odd = self._parity_fields(vs)
        out_even = self.diag(0, even)
        out_even += self.hop(0, odd)
        out_odd = self.diag(1, odd)
        out_odd += self.hop(1, even)
        return self._full_field(out_even, out_odd)

    def hop_sum_sites(self, vs: np.ndarray) -> np.ndarray:
        """All eight hop terms on a ``(K, V, 4, 3)`` stack."""
        even, odd = self._parity_fields(vs)
        return self._full_field(self.hop(0, odd), self.hop(1, even))


class SiteFastestSchur:
    """The fine red-black system over its native stack: the site-fastest
    half-volume ``(K, 3, 4, V/2)`` the kernel sweeps
    (``SchurOperator.native``).

    A loop that iterates on the system converts once with :meth:`enter`,
    applies :meth:`apply_multi` with no conversion inside, and converts
    back once with :meth:`leave` (DESIGN.md section 28).
    """

    #: the axes of a native stack that hold one site's components
    #: (colour, spin); the others are the system and the site
    component_axes = (1, 2)

    def __init__(self, kernel: WilsonKernel):
        self.kernel = kernel

    def enter(self, halves: np.ndarray) -> np.ndarray:
        """Site-major ``(K, V/2, 4, 3)`` -> native, at the kernel's dtype."""
        return to_site_fastest(halves, self.kernel.dtype)

    def leave(self, native: np.ndarray) -> np.ndarray:
        """Native -> site-major ``(K, V/2, 4, 3)``."""
        return to_site_major(native)

    def apply_multi(self, x: np.ndarray) -> np.ndarray:
        """``(A_ee - H_eo A_oo^{-1} H_oe) x_e`` on a native stack."""
        kernel = self.kernel
        out = kernel.diag(0, x)
        out -= kernel.hop(0, kernel.diag_inv(1, kernel.hop(1, x)))
        return out
