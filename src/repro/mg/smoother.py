"""The multigrid smoother.

:class:`SchurMRSmoother` relaxes the red-black preconditioned (Schur)
system with a fixed number of MR steps and reconstructs the opposite
parity exactly — the "red-black preconditioning on all levels" of paper
Section 7.1, and the only smoother the cycle runs.

It works on a ``(K, V, ns, nc)`` stack of residuals (paper Section 9):
the Schur system is the half-volume site-fastest kernel on the fine
grid and stacked dense-block GEMMs on coarse grids
(:func:`~repro.dirac.mrhs.batched_schur_for`), so its tables are read
once for all K systems; each system's two reductions of a step are
BLAS ``?dotc`` calls on its own row
(:func:`~repro.solvers.base.batch_dot`) and its two updates are
elementwise, so a system's reductions and updates are the same at
every K.  The MR loop runs on the system's
native stack (``schur.native``): site-fastest on the fine grid, entered
once after the source is prepared and left once before the
reconstruction or the held defect — not around every Schur application
(DESIGN.md section 28).  A bare field is a stack of one.

A smoother owns its precision: ``apply`` casts the residual to it on
entry (no copy when the cycle already runs there) and returns the
caller's dtype; everything in between follows the dtype of the data.
The paper smooths in half precision on the finest level.

A cycle smooths twice for one residual ``r`` and stays on the Schur
parity in between (DESIGN.md section 21).  ``apply(r, hold=True)`` stops
before the reconstruction and returns the defect ``r - M z`` of the
``z`` it did not form — zero where the reconstruction is exact, the
Schur residual ``b_hat - S x`` the MR recurrence carries on the Schur
parity (QUDA's ``use_solver_residual``) — beside the :class:`Held`
iterate, both in the native stack.  ``apply(r, resume=(held, e))``
continues from ``z + e``:
``b_hat(r - M (z + e)) = b_hat(r) - S (x + e_e)``, the other parity of
``z + e`` cancels, so one Schur application restarts the recurrence and
the one reconstruction, from ``r``, is that of the final iterate.  The
held iterate is a value handed back in, at the smoother's precision and
on the per-system scale its residual entered with; nothing is parked
here.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ..dirac.mrhs import batched_schur_for
from ..precision import Precision, dtype_of, enter_precision, leave_precision
from ..solvers.base import batch_dot, per_system
from ..solvers.mixed import reduced_storage


class Held(NamedTuple):
    """A smoothing stopped before its reconstruction."""

    source: np.ndarray  # b_hat(r), prepared once, in the system's native stack
    x: np.ndarray  # the Schur-parity iterate, in the system's native stack
    scale: np.ndarray | None  # what ``enter_precision`` divided r by


def _entered(stack: np.ndarray, dtype, scale) -> np.ndarray:
    """``stack`` as a computation that entered its precision on
    ``scale`` holds it."""
    return (stack if scale is None else stack / scale).astype(dtype, copy=False)


class SchurMRSmoother:
    """MR relaxation of the even-parity Schur system with exact odd update.

    ``apply(r)`` returns an approximate solution ``z`` of ``M z = r``
    from a zero initial guess, suitable as a (variable) preconditioner.
    ``schur`` is the red-black system of ``op`` when its level already
    owns one.
    """

    def __init__(
        self,
        op,
        steps: int = 4,
        omega: float = 0.85,
        precision: Precision = Precision.DOUBLE,
        schur=None,
    ):
        self.schur = schur if schur is not None else batched_schur_for(op)
        self.steps = steps
        self.omega = omega
        self.precision = precision

    def apply(self, r: np.ndarray, resume=None, hold: bool = False):
        """Smooth a field ``(V, ns, nc)`` or a stack ``(K, V, ns, nc)``
        by ``steps`` MR steps — from zero, or from ``held`` plus the
        correction ``e`` with ``resume=(held, e)``.  Returns ``z``, or
        ``(r - M z, held)`` with ``hold``."""
        rs = r[None] if r.ndim == 3 else r
        even = self.schur.op.lattice.even_sites
        # the system over the stack it computes on, entered once per
        # smoothing and left once
        native = self.schur.native(dtype_of(self.precision))
        system = reduced_storage(native, self.precision)
        if resume is None:
            rp, scale = enter_precision(rs, self.precision)
            b = native.enter(self.schur.prepare_multi(rp))
            x = np.zeros_like(b)
            res = b.copy()
        else:
            (b, x, scale), e = resume
            rp = _entered(rs, b.dtype, scale)
            x = x + native.enter(_entered(e.reshape(rs.shape)[:, even], b.dtype, scale))
            res = b - system.apply_multi(x)
        for _ in range(self.steps):
            q = system.apply_multi(res)
            qq = np.real(batch_dot(q, q))
            alpha = self.omega * batch_dot(q, res) / np.where(qq > 0, qq, 1.0)
            alpha = np.where(qq > 0, alpha, 0.0)  # a zero system stays put
            x += per_system(alpha, x) * res
            res -= per_system(alpha, res) * q
        if hold:
            # the recurrence residual on the Schur parity, zero on the
            # other, back through the boundary on the scale z would have
            full = np.zeros_like(rp)
            full[:, even] = native.leave(res)
            d = leave_precision(full, rs, scale)
            return (d[0] if r.ndim == 3 else d), Held(b, x, scale)
        z = self.schur.reconstruct_multi(native.leave(x), rp)
        z = leave_precision(z, rs, scale)
        return z[0] if r.ndim == 3 else z

    def apply_multi(self, rs: np.ndarray) -> np.ndarray:
        """The stack protocol of the Krylov drivers: ``apply`` takes one."""
        return self.apply(rs)
