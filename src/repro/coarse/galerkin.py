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

All ``2 * Nc_hat`` columns travel as one stack: ``P e_j`` is column
``j`` of the basis laid out on the lattice (a scatter, not a GEMM
against the identity), ``M P`` is one ``apply_multi`` and one
``restrict_multi``.  A hop leaves the aggregate from the same in-block
slots in every aggregate — the boundary slab of its direction, a
``1/b_mu`` share of the block — so each hop is evaluated on those sites
only, in aggregate order, and restricted against only the matching rows
of the basis (:meth:`~repro.transfer.Transfer.restrict_slab`): no
zero-padded lattice is built or read.  This is exact (tested against
``R M P`` on dense matrices).
"""

from __future__ import annotations

import time

import numpy as np

from ..dirac.stencil import StencilOperator
from ..lattice import NDIM
from ..telemetry.tracer import get_tracer
from ..transfer import Transfer
from .coarse_op import CoarseOperator

#: Prolonged columns held at once.  The stack and its image under ``M``
#: are live together, next to one boundary slab (a ``1/b_mu`` share of
#: the stack), so the working set is about twice this.  Swept 256 kB to
#: 64 MB on the benchmark configurations: flat from 4 MB up, 2-3x slower
#: at 256 kB (DESIGN.md section 19).
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
    # the in-block slots whose (mu, d) hop reads another aggregate (the
    # same in every aggregate) and those fine sites, aggregate by aggregate
    first = blocking.agg_sites[0]
    boundary = []
    for mu in range(NDIM):
        for d, (sign, crosses) in enumerate(
            ((+1, blocking.crosses_block_fwd), (-1, blocking.crosses_block_bwd))
        ):
            slots = np.flatnonzero(crosses(mu)[first])
            boundary.append((mu, d, sign, slots, blocking.agg_sites[:, slots].ravel()))

    field_bytes = vf * op.ns * op.nc * np.dtype(np.complex128).itemsize
    chunk = max(1, _CHUNK_BYTES // field_bytes)
    slab_share = sum(len(slots) for _, _, _, slots, _ in boundary) / blocking.block_volume
    span = get_tracer().current()
    spent = {"hop_s": 0.0, "restrict_s": 0.0}

    def timed(phase: str, fn, *args):
        """``fn(*args)``, its seconds booked to ``phase`` when traced."""
        if span is None:
            return fn(*args)
        start = time.perf_counter()
        out = fn(*args)
        spent[phase] += time.perf_counter() - start
        return out

    for lo in range(0, n, chunk):
        cols = slice(lo, min(lo + chunk, n))
        k = cols.stop - lo
        basis_fine = transfer.unit_columns(cols)
        image = timed("hop_s", op.apply_multi, basis_fine)
        x_blocks[:, :, cols] = (
            timed("restrict_s", transfer.restrict_multi, image)
            .reshape(k, vc, n)
            .transpose(1, 2, 0)
        )
        del image
        for mu, d, sign, slots, sites in boundary:
            slab = timed("hop_s", op.apply_hop_sites, mu, sign, sites, basis_fine)
            slab = slab.reshape((k, vc, len(slots)) + slab.shape[2:])
            link = timed("restrict_s", transfer.restrict_slab, slab, slots)
            link = link.reshape(vc, n, k)
            hop_blocks[mu, d, :, :, cols] = link
            x_blocks[:, :, cols] -= link
        if span is not None:
            # the GEMMs (one restrict of the image, the slabs' share of
            # one per hop), one full apply and the slabs' share of its
            # eight hops
            t_flops, t_bytes = transfer.application_cost_multi(k)
            m_flops, m_bytes = op.application_cost_multi(k)
            restricts = 1 + slab_share
            applies = 1 + slab_share / (2 * NDIM)
            span.attribute(
                flops=restricts * t_flops + applies * m_flops,
                bytes=restricts * t_bytes + applies * m_bytes,
            )
    if span is not None:
        span.annotate(**spent)
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
