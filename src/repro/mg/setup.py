"""Adaptive multigrid setup: near-null-space vector generation.

Paper Section 3.4: iterate the homogeneous system ``M x = 0`` from a
random initial guess; after ``k`` iterations the remaining iterate is
rich in the slow-to-converge (near-null) eigenmodes of ``M``.  We
realize the relaxation with BiCGStab capped at ``null_iters``
iterations — the surviving error is the near-null component.

What is relaxed is the red-black system, the one every level smooths
and solves on (paper Section 7.1; QUDA generates its null vectors with
the preconditioned operator it smooths with).  ``M v = 0`` holds exactly
when ``S v_e = 0`` and ``v_o = -A_oo^{-1} H_oe v_e``, so the even half
of the random start is relaxed on the Schur complement ``S`` — better
conditioned than ``M``, it gives up its fast modes in two thirds of the
iterations — and the odd half is reconstructed: ``M v`` then vanishes on
the odd sites identically and is ``S v_e`` on the even ones (DESIGN.md
section 21).

All vectors of a level relax together, as one ``(n_vectors, V, ns, nc)``
stack through the lockstep BiCGStab (many vectors, one operator: the
links are read once per application for the whole stack,
arXiv:2211.13719).  The fine operator relaxes in the precision the
cycle will run in — QUDA sets up in the preconditioner's precision for
the same reason: the vectors only have to be *rich in* slow modes, and
nothing below that precision's round-off is visible to the cycle.
"""

from __future__ import annotations

import numpy as np

from ..coarse import CoarseOperator
from ..dirac.mrhs import batched_schur_for
from ..precision import COMPLEX128
from ..solvers import bicgstab


def relaxation_floor(dtype) -> float:
    """Relative residual below which a relaxation has nothing left to
    say to a cycle that computes in ``dtype``: ``1e3`` units of its
    round-off, and never below ``1e-10``.

    What a relaxation leaves is the error ``x0_e - y``; once the residual
    of ``S y = S x0_e`` is within a few digits of the round-off, further
    iterations replace the slow modes in that error by solver noise.
    On a coarse level small enough for the capped solve to *converge*
    that noise would be the whole "null vector", so the relaxation
    stops here instead.  The floor follows from the arithmetic, which is
    why it is a property of the dtype and not a parameter.
    """
    return max(1e-10, 1e3 * float(np.finfo(dtype).eps))


def relaxation_dtype(op, dtype) -> np.dtype:
    """The dtype ``op`` relaxes in for a cycle that computes in
    ``dtype``: that one, and complex128 on a Galerkin operator (see
    :func:`generate_null_vectors`)."""
    return COMPLEX128 if isinstance(op, CoarseOperator) else np.dtype(dtype)


def generate_null_vectors(
    op,
    n_vectors: int,
    rng: np.random.Generator,
    null_iters: int = 100,
    ns: int | None = None,
    nc: int | None = None,
    dtype=COMPLEX128,
    schur=None,
) -> list[np.ndarray]:
    """Generate ``n_vectors`` near-null-space vectors of ``op``.

    Each vector starts from an independent Gaussian random field ``x0``
    (drawn real part then imaginary part, vector by vector, on the full
    lattice).  Relaxing ``S x = 0`` from its even half ``x0_e`` is
    algebraically identical to removing from ``x0_e`` the part a
    ``null_iters``-step Krylov solve of ``S y = S x0_e`` can capture;
    the remainder ``v_e = x0_e - y`` with its reconstruction
    ``v_o = -A_oo^{-1} H_oe v_e`` is the slow-mode-rich error the
    aggregates must span.  ``schur`` is the red-black system of ``op``
    when its level already owns one.

    ``dtype`` is the precision of the cycle the vectors are for.  Each
    system relaxes until ``null_iters`` or :func:`relaxation_floor` of
    that dtype.  The stack is relaxed *in* that dtype too, unless ``op``
    is a Galerkin product: a coarse operator is computed data carrying
    the round-off of the level above, and a complex64 relaxation at the
    floor is a tenth to all noise (``eps / |x0 - y|`` times BiCGStab's
    growth), so a 1e-11 change of its input would come out as a
    different null space.  Coarse operators relax in complex128, where
    the same stop leaves a result that moves by 1e-9.  The vectors come
    back complex128 and of unit norm.
    """
    ns = ns if ns is not None else op.ns
    nc = nc if nc is not None else op.nc
    shape = (op.lattice.volume, ns, nc)
    dtype = np.dtype(dtype)
    x0 = np.empty((n_vectors,) + shape, dtype=np.complex128)
    for field in x0:
        field.real = rng.standard_normal(shape)
        field.imag = rng.standard_normal(shape)
    floor = relaxation_floor(dtype)
    relaxed_in = relaxation_dtype(op, dtype)
    schur = schur if schur is not None else batched_schur_for(op)
    x0_e = x0[:, op.lattice.even_sites].astype(relaxed_in, copy=False)
    results = bicgstab.lockstep_bicgstab(
        schur, schur.apply_multi(x0_e), tol=floor, maxiter=null_iters
    )
    v_e = x0_e - np.stack([res.x for res in results])
    # against a zero source: v_o = -A_oo^{-1} H_oe v_e
    vecs = schur.reconstruct_multi(v_e, np.zeros(x0.shape, dtype=relaxed_in))
    if relaxed_in != dtype:
        # not resident beside the tables the cycle streams; a smoother
        # configured to compute here gathers them again on first use
        schur.drop_tables(relaxed_in)
    return [
        vec / np.linalg.norm(vec.ravel())
        for vec in vecs.astype(np.complex128, copy=False)
    ]
