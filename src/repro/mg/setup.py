"""Adaptive multigrid setup: near-null-space vector generation.

Paper Section 3.4: iterate the homogeneous system ``M x = 0`` from a
random initial guess; after ``k`` iterations the remaining iterate is
rich in the slow-to-converge (near-null) eigenmodes of ``M``.  We
realize the relaxation with BiCGStab capped at ``null_iters``
iterations — the surviving error is the near-null component.

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
from ..dirac.stencil import operator_application_cost_multi
from ..precision import COMPLEX128
from ..solvers.base import apply_stack
from ..solvers.bicgstab import lockstep_bicgstab
from ..telemetry.metrics import get_registry
from ..telemetry.tracer import get_tracer


def relaxation_floor(dtype) -> float:
    """Relative residual below which a relaxation has nothing left to
    say to a cycle that computes in ``dtype``: ``1e3`` units of its
    round-off, and never below ``1e-10``.

    What a relaxation leaves is the error ``x0 - y``; once the residual
    of ``M y = M x0`` is within a few digits of the round-off, further
    iterations replace the slow modes in that error by solver noise.
    On a coarse level small enough for the capped solve to *converge*
    that noise would be the whole "null vector", so the relaxation
    stops here instead.  The floor follows from the arithmetic, which is
    why it is a property of the dtype and not a parameter.
    """
    return max(1e-10, 1e3 * float(np.finfo(dtype).eps))


def _book_relaxation(op, results, dtype) -> None:
    """Say on the open span (``null-vectors`` under ``build``) what the
    stacked relaxation did, and book its operator applications: the one
    that formed the right-hand sides there, the solver's on its
    ``solve.bicgstab`` child, where they ran."""
    span = get_tracer().current()
    if span is None:
        return
    k = len(results)
    span.annotate(
        n_rhs=k,
        dtype=dtype.name,
        iterations=max(res.iterations for res in results),
        residual_max=max(res.final_residual for res in results),
    )
    flops, nbytes = operator_application_cost_multi(op, k, dtype)
    span.attribute(flops=flops, bytes=nbytes)
    solve = next((c for c in reversed(span.children) if c.name == "solve.bicgstab"), span)
    applies = results[0].telemetry.attrs["matvec_batches"]
    solve.attribute(flops=applies * flops, bytes=applies * nbytes)


def generate_null_vectors(
    op,
    n_vectors: int,
    rng: np.random.Generator,
    null_iters: int = 100,
    ns: int | None = None,
    nc: int | None = None,
    dtype=COMPLEX128,
) -> list[np.ndarray]:
    """Generate ``n_vectors`` near-null-space vectors of ``op``.

    Each vector starts from an independent Gaussian random field ``x0``
    (drawn real part then imaginary part, vector by vector).  Relaxing
    ``M x = 0`` from ``x0`` is algebraically identical to removing from
    ``x0`` the part a ``null_iters``-step Krylov solve of ``M y = M x0``
    can capture; the remainder ``x0 - y`` is the slow-mode-rich error
    the aggregates must span.

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
    # Booked per call so setup caches can assert a warm hit ran zero
    # generations (the counter stays untouched on reuse).
    get_registry().counter("mg.null_vector_generations").inc(n_vectors)
    x0 = np.empty((n_vectors,) + shape, dtype=np.complex128)
    for field in x0:
        field.real = rng.standard_normal(shape)
        field.imag = rng.standard_normal(shape)
    floor = relaxation_floor(dtype)
    if isinstance(op, CoarseOperator):
        dtype = COMPLEX128
    x0 = x0.astype(dtype, copy=False)
    results = lockstep_bicgstab(op, apply_stack(op, x0), tol=floor, maxiter=null_iters)
    _book_relaxation(op, results, dtype)
    vecs = (x0 - np.stack([res.x for res in results])).astype(np.complex128, copy=False)
    return [vec / np.linalg.norm(vec.ravel()) for vec in vecs]
