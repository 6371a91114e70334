"""Galerkin construction of the coarse operator, ``M_hat = P^dag M P``.

The fine operator is decomposed into its site-local term ``A`` and eight
hop terms.  A hop leaving an aggregate contributes to the corresponding
coarse link ``Y``; a hop staying inside an aggregate and the site-local
term contribute to the coarse diagonal ``X`` (paper Section 3.4).

A coarse unit vector ``e_j`` — one at dof ``j`` of *every* coarse site —
prolongs to a fine field whose image under a term, restricted, is
column ``j`` of that term's coarse blocks at every coarse site at once.
Only the four forward hops are evaluated, each on every fine site in
aggregate order.  Where the hop crosses an aggregate boundary (the same
in-block slots in every aggregate) its restriction is the forward link,
``Y[mu, +] = R (hop_{mu,+} P)|_crossing``; the rest is added to one
accumulator that starts at ``A P e / 2``, whose restriction is
``Z = R A P / 2 + F`` with ``F`` the forward hops internal to the
aggregates.

The backward half follows from gamma5-hermiticity, ``gamma5 M gamma5 =
M^dag``, and the chirality-preserving transfer (``R gamma5 = G R`` with
``G`` the coarse gamma5): the backward internal hops restrict to
``G F^dag G``, ``A`` to its own image, so

    ``X = Z + G Z^dag G``,   ``Y[mu, -](x) = G Y[mu, +](x - mu)^dag G``,

and the coarse operator is gamma5-hermitian by construction, bit for
bit.  That is the precondition: a gamma5-hermitian operator (checked on
a coarse one) and a chirality-preserving transfer (every ``Transfer``).

``P e_j`` lives in the chirality of ``j``, so each chirality's
``Nc_hat`` columns travel as one chiral stack (the basis laid out on the
lattice, a scatter), and the operator reads only that chirality's half
of its spins or dofs.  The crossing slots and the accumulator are
restricted against only the matching rows of the basis
(:meth:`~repro.transfer.Transfer.restrict_slab`): no zero-padded
lattice is built or read.  This is exact (tested against the
term-by-term construction and ``R M P`` on dense matrices).
"""

from __future__ import annotations

import itertools

import numpy as np

from ..dirac.stencil import StencilOperator
from ..lattice import NDIM
from ..transfer import Transfer
from .coarse_op import CoarseOperator, gamma5_adjoint

#: Prolonged columns held at once.  The stack, the accumulator and one
#: hop's image are live together, so the working set is about three
#: times this.  Swept 256 kB to 64 MB on the benchmark configurations:
#: flat from 4 MB up, 2-3x slower at 256 kB (DESIGN.md section 19).
_CHUNK_BYTES = 1 << 24

#: Largest relative deviation from gamma5-hermiticity a coarse input may
#: show: its backward half is derived, not read.
_HERMITICITY_TOL = 1e-12


def coarsen_operator(op: StencilOperator, transfer: Transfer) -> CoarseOperator:
    """Compute the Galerkin coarse operator of ``op`` through ``transfer``.

    ``op`` must be gamma5-hermitian and ``transfer`` chirality-preserving:
    the backward links and internal hops are derived from the forward
    ones.  A :class:`CoarseOperator` input whose links or ``X`` blocks
    deviate from gamma5-hermiticity by more than 1e-12 relative raises
    ``ValueError``.
    """
    if transfer.fine_lattice != op.lattice:
        raise ValueError("transfer fine lattice does not match operator lattice")
    if transfer.fine_ns != op.ns or transfer.fine_nc != op.nc:
        raise ValueError("transfer dof does not match operator dof")
    if isinstance(op, CoarseOperator):
        _require_gamma5_hermitian(op)
    blocking = transfer.blocking
    coarse = transfer.coarse_lattice
    ns_c, nc_c = transfer.coarse_ns, transfer.coarse_nc
    n = ns_c * nc_c
    vc, bv = coarse.volume, blocking.block_volume

    # X holds Z until the loop is done
    x_blocks = np.empty((vc, n, n), dtype=np.complex128)
    hop_blocks = np.empty((NDIM, 2, vc, n, n), dtype=np.complex128)
    # every fine site, aggregate by aggregate; an aggregate's slots are
    # ordered by local coordinate, x fastest, so a field over them splits
    # into the block axes (b_t, b_z, b_y, b_x) and the slots whose
    # forward mu hop reads another aggregate (the same in every
    # aggregate) are the last index of mu's axis, the rest stay inside
    sites = blocking.agg_sites.ravel()
    block_axes = blocking.block[::-1]
    slot_grid = np.arange(bv).reshape(block_axes)
    slots = []  # per direction: crossing and inside, indexing (K, V_c, *block_axes, ...)
    for mu in range(NDIM):
        lead = (slice(None),) * (2 + NDIM - 1 - mu)
        crossing = lead + (slice(blocking.block[mu] - 1, None),)
        inside = lead + (slice(0, blocking.block[mu] - 1),)
        slots.append((crossing, inside, slot_grid[crossing[2:]].ravel()))

    # P e_j lives in the chirality of j: each chirality's columns travel
    # as a chiral stack, so the operator reads only that chirality's half
    for chi, lo, k in column_chunks(op, transfer):
        cols = slice(chi * nc_c + lo, chi * nc_c + lo + k)
        columns = transfer.unit_columns(chi, slice(lo, lo + k))
        shape = (k, vc) + block_axes + (op.ns, op.nc)
        acc = op.apply_diag_multi(columns, chi)[:, sites].reshape(shape)
        acc *= 0.5
        for mu, (crossing, inside, crossing_slots) in enumerate(slots):
            hop = op.apply_hop_sites(mu, +1, sites, columns, chi).reshape(shape)
            link = transfer.restrict_slab(hop[crossing], crossing_slots)
            hop_blocks[mu, 0, :, :, cols] = link.reshape(vc, n, k)
            acc[inside] += hop[inside]
        z = transfer.restrict_slab(acc, slice(None))
        x_blocks[:, :, cols] = z.reshape(vc, n, k)
    coarse_op = CoarseOperator(coarse, x_blocks, hop_blocks, ns_c, nc_c)
    half = coarse_op.chiral_dof
    x_blocks += gamma5_adjoint(x_blocks, half)
    for mu in range(NDIM):
        gamma5_adjoint(hop_blocks[mu, 0][coarse.bwd[mu]], half, out=hop_blocks[mu, 1])
    return coarse_op


def column_chunks(op: StencilOperator, transfer: Transfer) -> list[tuple[int, int, int]]:
    """The chiral stacks of unit columns :func:`coarsen_operator`
    prolongs, in order, as ``(chirality, first column, columns)``: at
    most :data:`_CHUNK_BYTES` of ``op``'s complex128 fields each."""
    field_bytes = op.lattice.volume * op.ns * op.nc * np.dtype(np.complex128).itemsize
    chunk = max(1, _CHUNK_BYTES // field_bytes)
    nc_c = transfer.coarse_nc
    return [
        (chi, lo, min(chunk, nc_c - lo))
        for chi, lo in itertools.product(range(2), range(0, nc_c, chunk))
    ]


def _require_gamma5_hermitian(op: CoarseOperator) -> None:
    """``ValueError`` unless ``op``'s ``X`` blocks and links are
    gamma5-hermitian to :data:`_HERMITICITY_TOL` relative (a coarse
    operator this module built is, bit for bit)."""
    for name, blocks, expect in op.gamma5_partners():
        if np.array_equal(blocks, expect):
            continue
        scale = max(float(np.abs(expect).max()), np.finfo(np.float64).tiny)
        violation = float(np.abs(blocks - expect).max()) / scale
        if violation > _HERMITICITY_TOL:
            raise ValueError(
                f"coarse operator is not gamma5-hermitian ({name} off by "
                f"{violation:.2e} relative): its Galerkin product would "
                f"derive wrong backward blocks"
            )


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
