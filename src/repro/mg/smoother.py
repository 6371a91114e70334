"""The multigrid smoother.

:class:`SchurMRSmoother` relaxes the red-black preconditioned (Schur)
system with a fixed number of MR steps and reconstructs the opposite
parity exactly — the "red-black preconditioning on all levels" of paper
Section 7.1, substantially stronger per application than relaxing the
full-lattice system (:class:`~repro.solvers.mr.MRSmoother`).

It works on a ``(K, V, ns, nc)`` stack of residuals (paper Section 9):
the Schur system is the half-volume site-fastest kernel on the fine
grid and stacked dense-block GEMMs on coarse grids
(:func:`~repro.dirac.mrhs.batched_schur_for`), so its tables are read
once for all K systems and the two reductions of a step are fused over
the stack.  A bare field is a stack of one.

A smoother owns its precision: ``apply`` casts the residual to it on
entry (no copy when the cycle already runs there) and returns the
caller's dtype; everything in between follows the dtype of the data.
The paper smooths in half precision on the finest level.

The smoother already holds the defect of what it returns.  With the
opposite parity reconstructed exactly, ``r - M z`` vanishes there, and
on the Schur parity it is the Schur residual ``b_hat - S x`` — the
vector the MR recurrence carries (QUDA's ``use_solver_residual``).
``apply(r, defect=True)`` hands it back beside ``z``, so the cycle does
not spend an operator application recomputing it.  It is the defect of
the residual *as the smoother's precision holds it*: equal to a
recomputed ``r - M z`` to that precision's rounding (and, under
``HALF``, to the storage rounding of the iterates).
"""

from __future__ import annotations

import numpy as np

from ..dirac.mrhs import batched_schur_for
from ..precision import Precision, enter_precision, leave_precision
from ..solvers.base import batch_dot, per_system
from ..solvers.mixed import reduced_storage


class SchurMRSmoother:
    """MR relaxation of the even-parity Schur system with exact odd update.

    ``apply(r)`` returns an approximate solution ``z`` of ``M z = r``
    from a zero initial guess, suitable as a (variable) preconditioner.
    """

    def __init__(
        self,
        op,
        steps: int = 4,
        omega: float = 0.85,
        precision: Precision = Precision.DOUBLE,
    ):
        self.schur = batched_schur_for(op)
        self.steps = steps
        self.omega = omega
        self.precision = precision
        self._solve_op = reduced_storage(self.schur, precision)

    def apply(self, r: np.ndarray, defect: bool = False):
        """Smooth a field ``(V, ns, nc)`` or a stack ``(K, V, ns, nc)``:
        ``z``, or ``(z, r - M z)`` with ``defect``."""
        rs = r[None] if r.ndim == 3 else r
        rp, scale = enter_precision(rs, self.precision)
        b = self.schur.prepare_multi(rp)
        x = np.zeros_like(b)
        res = b.copy()
        for _ in range(self.steps):
            q = self._solve_op.apply_multi(res)
            qq = np.real(batch_dot(q, q))
            alpha = self.omega * batch_dot(q, res) / np.where(qq > 0, qq, 1.0)
            alpha = np.where(qq > 0, alpha, 0.0)  # a zero system stays put
            x += per_system(alpha, x) * res
            res -= per_system(alpha, res) * q
        z = leave_precision(self.schur.reconstruct_multi(x, rp), rs, scale)
        if not defect:
            return z[0] if r.ndim == 3 else z
        # the recurrence residual on the Schur parity, zero on the other,
        # back through the boundary with the same per-system scale as z
        full = np.zeros_like(rp)
        full[:, self.schur.op.lattice.even_sites] = res
        d = leave_precision(full, rs, scale)
        return (z[0], d[0]) if r.ndim == 3 else (z, d)

    def apply_multi(self, rs: np.ndarray) -> np.ndarray:
        """The stack protocol of the Krylov drivers: ``apply`` takes one."""
        return self.apply(rs)
