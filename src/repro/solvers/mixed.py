"""Mixed-precision solving with reliable updates.

QUDA's mixed-precision strategy (paper Sections 3.3, 4, 7.1): run the
bulk of the iterations in a cheap low precision (single, or the 16-bit
"half" format) and periodically recompute the true residual in double
precision, restarting the inner solver from it.  The outer loop is
classical iterative refinement, which is how reliable updates behave at
the granularity we model; the final accuracy is set purely by the
double-precision outer recursion.

Low precision is real here: the inner operator is applied to complex64
fields by dtype-preserving kernels reading complex64 tables, so a
single-precision stencil moves half the bytes of the double one.
"""

from __future__ import annotations

import numpy as np

from ..dirac.stencil import apply_stack
from ..precision import Precision, dtype_of, half_roundtrip
from ..telemetry.result import SolveTelemetry
from .base import SolveResult, norm


class PrecisionOperator:
    """Apply an operator at a reduced precision for a caller in another.

    The field is cast to the precision's compute dtype (no copy when it
    is already there), the operator runs natively at that dtype, and the
    result returns at the caller's dtype.  ``HALF`` has no native dtype:
    it computes in complex64 and additionally rounds input and output
    through the 16-bit block fixed-point storage, per site — the
    dominant effect of half-precision stencils on Krylov convergence —
    in whatever layout ``op`` computes on (its ``component_axes``).
    """

    def __init__(self, op, precision: Precision):
        self.op = op
        self.precision = precision
        self.ns = getattr(op, "ns", None)
        self.nc = getattr(op, "nc", None)

    def _store(self, fields: np.ndarray) -> np.ndarray:
        """A ``(K, ...)`` stack as the precision stores it, at the compute dtype."""
        fields = fields.astype(dtype_of(self.precision), copy=False)
        if self.precision is Precision.HALF:
            # one norm per site of each system: a native red-black stack
            # names its component axes, a site-major one is (K, V, ...)
            axes = getattr(self.op, "component_axes", None)
            fields = half_roundtrip(fields, axes or tuple(range(2, fields.ndim)))
        return fields

    def _run(self, fn, vs: np.ndarray) -> np.ndarray:
        if self.precision is Precision.DOUBLE:
            return fn(vs)
        return self._store(fn(self._store(vs))).astype(vs.dtype, copy=False)

    def apply(self, v: np.ndarray) -> np.ndarray:
        return self.apply_multi(v[None])[0]

    def apply_multi(self, vs: np.ndarray) -> np.ndarray:
        return self._run(lambda v: apply_stack(self.op, v), vs)

    def solve_multi(self, bs: np.ndarray) -> np.ndarray:
        """The wrapped operator's direct solve of a stack, stored on the
        way in and out like an application."""
        return self._run(self.op.solve_multi, bs)


def reduced_storage(op, precision: Precision):
    """``op`` as a cycle already computing at ``precision`` applies it:
    itself for ``DOUBLE`` and ``SINGLE`` (the data carries the
    precision), wrapped in the 16-bit storage rounding for ``HALF``."""
    return PrecisionOperator(op, precision) if precision is Precision.HALF else op


def mixed_precision_solve(
    op,
    b: np.ndarray,
    inner_solver,
    tol: float = 1e-8,
    inner_tol: float = 1e-2,
    inner_precision: Precision = Precision.HALF,
    max_outer: int = 50,
    inner_kwargs: dict | None = None,
) -> SolveResult:
    """Reliable-update (defect-correction) mixed-precision solve.

    Parameters
    ----------
    op:
        The operator, applied in full (double) precision for the outer
        residual and in ``inner_precision`` inside the inner solver.
    inner_solver:
        A solver function ``(op, b, tol=..., **kw) -> SolveResult``,
        e.g. :func:`repro.solvers.bicgstab.bicgstab`.
    inner_tol:
        Relative residual reduction requested per inner cycle; QUDA's
        reliable-update delta plays the same role.
    """
    inner_kwargs = dict(inner_kwargs or {})
    low_op = PrecisionOperator(op, inner_precision)
    x = np.zeros_like(b)
    bnorm = norm(b)
    if bnorm == 0.0:
        return SolveResult(x, True, 0, 0.0, [0.0], 0)
    r = b.copy()
    history = [1.0]
    total_inner = 0
    matvecs = 0
    for outer in range(1, max_outer + 1):
        inner = inner_solver(low_op, r, tol=inner_tol, **inner_kwargs)
        total_inner += inner.iterations
        matvecs += inner.matvecs
        x += inner.x
        r = b - apply_stack(op, x[None])[0]  # true residual, double precision
        matvecs += 1
        rel = norm(r) / bnorm
        history.append(rel)
        if rel < tol:
            return SolveResult(
                x, True, total_inner, rel, history, matvecs,
                telemetry=SolveTelemetry(attrs={"outer": outer}),
            )
        if len(history) > 2 and history[-1] > 0.9 * history[-2]:
            # inner precision has bottomed out; tighten the inner request
            inner_tol = max(inner_tol * 0.1, 1e-10)
    return SolveResult(
        x, False, total_inner, history[-1], history, matvecs,
        telemetry=SolveTelemetry(attrs={"outer": max_outer}),
    )
