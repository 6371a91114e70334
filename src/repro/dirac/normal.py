"""Normal operators for CGNE / CGNR.

The Wilson-Clover matrix is non-hermitian, so Conjugate Gradients must
run on the normal equations (paper Section 3.3): CGNR solves
``M^dag M x = M^dag b``; CGNE solves ``M M^dag y = b`` with
``x = M^dag y``.  The adjoint is obtained through gamma5-hermiticity,
``M^dag = g5 M g5``, which every operator in this package satisfies.
"""

from __future__ import annotations

import numpy as np


def _g5_factor(op, v: np.ndarray) -> np.ndarray:
    """gamma5 broadcast against ``v``'s spin axis (axis -2), shape-agnostic."""
    g5 = op.gamma5_diag()
    if v.ndim < 2:
        # spinless (e.g. dense test operators): gamma5 is trivial
        return np.ones(1)
    shape = [1] * v.ndim
    shape[-2] = len(g5)
    # signs at the field's own real dtype, so the product keeps it
    return g5.reshape(shape).astype(v.real.dtype)


class AdjointOperator:
    """``M^dag = g5 M g5`` of a gamma5-hermitian operator."""

    def __init__(self, op):
        self.op = op
        self.ns = op.ns
        self.nc = op.nc

    def gamma5_diag(self) -> np.ndarray:
        return self.op.gamma5_diag()

    def apply(self, v: np.ndarray) -> np.ndarray:
        g5 = _g5_factor(self.op, v)
        return g5 * self.op.apply(g5 * v)

    matvec = apply

    def apply_multi(self, vs: np.ndarray) -> np.ndarray:
        # _g5_factor broadcasts at the spin axis (-2), so the batched
        # stack reuses the wrapped operator's batched kernels directly
        g5 = _g5_factor(self.op, vs)
        fn = getattr(self.op, "apply_multi", None)
        if fn is not None:
            return g5 * fn(g5 * vs)
        return g5 * np.stack([self.op.apply(v) for v in g5 * vs])


class NormalOperator:
    """``M^dag M`` (hermitian positive definite for invertible M)."""

    def __init__(self, op):
        self.op = op
        self.adjoint = AdjointOperator(op)
        self.ns = op.ns
        self.nc = op.nc

    def apply(self, v: np.ndarray) -> np.ndarray:
        return self.adjoint.apply(self.op.apply(v))

    matvec = apply

    def apply_multi(self, vs: np.ndarray) -> np.ndarray:
        fn = getattr(self.op, "apply_multi", None)
        if fn is not None:
            return self.adjoint.apply_multi(fn(vs))
        return self.adjoint.apply_multi(np.stack([self.op.apply(v) for v in vs]))


def gamma5_hermiticity_violation(op, v: np.ndarray, w: np.ndarray) -> float:
    """Relative violation of ``<w, g5 M v> = conj(<v, g5 M w>)``.

    Exact gamma5-hermiticity — ``(g5 M)^dag = g5 M``, the property the
    CGNE/CGNR adjoints and the chirality-preserving aggregation rest on
    — makes this ~machine epsilon for any probe pair ``(v, w)``.
    """
    g5mv = op.apply_gamma5(op.apply(v))
    g5mw = op.apply_gamma5(op.apply(w))
    a = np.vdot(w.ravel(), g5mv.ravel())
    b = np.conj(np.vdot(v.ravel(), g5mw.ravel()))
    scale = np.linalg.norm(w.ravel()) * np.linalg.norm(g5mv.ravel())
    return float(abs(a - b) / max(scale, np.finfo(np.float64).tiny))
