"""Galerkin construction of the coarse operator, ``M_hat = P^dag M P``.

The fine operator is decomposed into its site-local term and eight hop
terms.  A hop leaving an aggregate contributes to the corresponding
coarse link ``Y``; a hop staying inside an aggregate and the site-local
term contribute to the coarse diagonal ``X`` (paper Section 3.4).

A coarse unit vector ``e_j`` — one at dof ``j`` of *every* coarse site —
prolongs to a fine field whose image under ``M``, restricted, is
column ``j`` of ``X + sum_{mu,d} Y[mu, d]`` at every coarse site at
once.  The ``Y[mu, d]`` part of that sum is the restriction of the one
hop term evaluated where it crosses an aggregate boundary, so

    ``Y[mu, d] = R (hop_{mu,d} P)|_boundary``,   ``X = R M P - sum Y``.

All ``2 * Nc_hat`` columns travel as one stack through ``prolong_multi``,
``apply_multi`` and ``restrict_multi`` (many vectors, one operator), the
full operator is applied once rather than term by term, and each hop is
evaluated only on its direction's boundary sites.  This is exact (tested
against ``R M P`` on dense matrices).
"""

from __future__ import annotations

import numpy as np

from ..dirac.stencil import StencilOperator
from ..lattice import NDIM
from ..telemetry.tracer import get_tracer
from ..transfer import Transfer
from .coarse_op import CoarseOperator

#: Prolonged columns held at once.  The stack, its image under ``M`` and
#: one zero-padded hop are live together, so the working set is three
#: times this.  Swept 256 kB to 64 MB on the benchmark configurations:
#: flat from 4 MB up, 2-3x slower at 256 kB (DESIGN.md section 19).
_CHUNK_BYTES = 1 << 24


def coarsen_operator(op: StencilOperator, transfer: Transfer) -> CoarseOperator:
    """Compute the Galerkin coarse operator of ``op`` through ``transfer``."""
    if transfer.fine_lattice != op.lattice:
        raise ValueError("transfer fine lattice does not match operator lattice")
    if transfer.fine_ns != op.ns or transfer.fine_nc != op.nc:
        raise ValueError("transfer dof does not match operator dof")

    blocking = transfer.blocking
    coarse = transfer.coarse_lattice
    ns_c, nc_c = transfer.coarse_ns, transfer.coarse_nc
    n = ns_c * nc_c
    vc = coarse.volume
    vf = op.lattice.volume

    x_blocks = np.empty((vc, n, n), dtype=np.complex128)
    hop_blocks = np.empty((NDIM, 2, vc, n, n), dtype=np.complex128)
    # the fine sites whose (mu, d) hop reads another aggregate
    boundary = [
        (mu, d, sign, np.flatnonzero(crosses(mu)))
        for mu in range(NDIM)
        for d, (sign, crosses) in enumerate(
            ((+1, blocking.crosses_block_fwd), (-1, blocking.crosses_block_bwd))
        )
    ]

    def columns(coarse_stack: np.ndarray) -> np.ndarray:
        """``(K, vc, 2, Nc_hat)`` restricted images as ``(vc, n, K)`` columns."""
        return coarse_stack.reshape(-1, vc, n).transpose(1, 2, 0)

    field_bytes = vf * op.ns * op.nc * np.dtype(np.complex128).itemsize
    chunk = max(1, _CHUNK_BYTES // field_bytes)
    hop_share = sum(len(sites) for *_, sites in boundary) / (2 * NDIM * vf)
    span = get_tracer().current()
    for lo in range(0, n, chunk):
        cols = slice(lo, min(lo + chunk, n))
        k = cols.stop - lo
        units = np.zeros((k, vc, n), dtype=np.complex128)
        units[np.arange(k), :, np.arange(lo, cols.stop)] = 1.0
        basis_fine = transfer.prolong_multi(units.reshape(k, vc, ns_c, nc_c))
        x_blocks[:, :, cols] = columns(
            transfer.restrict_multi(op.apply_multi(basis_fine))
        )
        crossing = np.zeros_like(basis_fine)
        for mu, d, sign, sites in boundary:
            crossing[:, sites] = op.apply_hop_sites(mu, sign, sites, basis_fine)
            link = columns(transfer.restrict_multi(crossing))
            crossing[:, sites] = 0.0
            hop_blocks[mu, d, :, :, cols] = link
            x_blocks[:, :, cols] -= link
        if span is not None:
            # the GEMMs (one prolong, nine restricts), one full apply and
            # the boundary slabs' share of its eight hops
            t_flops, t_bytes = transfer.application_cost_multi(k)
            m_flops, m_bytes = op.application_cost_multi(k)
            applies = 1 + hop_share
            span.attribute(
                flops=10 * t_flops + applies * m_flops,
                bytes=10 * t_bytes + applies * m_bytes,
            )

    return CoarseOperator(coarse, x_blocks, hop_blocks, ns_c, nc_c)


def galerkin_violation(
    fine_op, transfer: Transfer, coarse_op, probes: list[np.ndarray]
) -> float:
    """Max relative deviation of ``coarse_op`` from ``R M P`` over probes.

    The Galerkin condition ``M_hat = P^dag M P`` is exact algebra, so the
    stencil built by :func:`coarsen_operator` must agree with the
    explicit restrict-apply-prolong composition to roundoff on any
    coarse vector.  Probe-based so it scales to every level of a real
    hierarchy (the dense ``R M P`` comparison lives in the test suite).
    """
    worst = 0.0
    for vc in probes:
        ref = transfer.restrict(fine_op.apply(transfer.prolong(vc)))
        got = coarse_op.apply(vc)
        scale = max(np.linalg.norm(ref.ravel()), np.finfo(np.float64).tiny)
        worst = max(worst, float(np.linalg.norm((got - ref).ravel()) / scale))
    return worst
