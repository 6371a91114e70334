"""Normal operators for CGNE / CGNR.

The Wilson-Clover matrix is non-hermitian, so Conjugate Gradients must
run on the normal equations (paper Section 3.3): CGNR solves
``M^dag M x = M^dag b``; CGNE solves ``M M^dag y = b`` with
``x = M^dag y``.  The adjoint is obtained through gamma5-hermiticity,
``M^dag = g5 M g5``, which every operator in this package satisfies.
"""

from __future__ import annotations

import numpy as np

from .stencil import apply_stack


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
        return self.apply_multi(v[None])[0]

    def apply_multi(self, vs: np.ndarray) -> np.ndarray:
        # gamma5 of one system broadcasts over the stack axis
        g5 = _g5_factor(self.op, vs[0])
        return g5 * apply_stack(self.op, g5 * vs)


class NormalOperator:
    """``M^dag M`` (hermitian positive definite for invertible M)."""

    def __init__(self, op):
        self.op = op
        self.adjoint = AdjointOperator(op)
        self.ns = op.ns
        self.nc = op.nc

    def apply(self, v: np.ndarray) -> np.ndarray:
        return self.apply_multi(v[None])[0]

    def apply_multi(self, vs: np.ndarray) -> np.ndarray:
        return self.adjoint.apply_multi(apply_stack(self.op, vs))


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
