"""Multigrid smoothers.

Two flavours:

* :class:`MRSmoother` (re-exported from the solvers package) relaxes the
  full-lattice system directly.
* :class:`SchurMRSmoother` relaxes the red-black preconditioned (Schur)
  system and reconstructs the opposite parity exactly — this is the
  "red-black preconditioning on all levels" of paper Section 7.1 and is
  substantially stronger per application.

A smoother owns its precision: ``apply`` casts the residual to it on
entry (no copy when the cycle already runs there) and returns the
caller's dtype; everything in between follows the dtype of the data.
The paper smooths in half precision on the finest level.
"""

from __future__ import annotations

import numpy as np

from ..dirac.even_odd import SchurOperator
from ..precision import Precision, enter_precision, leave_precision
from ..solvers.mixed import reduced_storage
from ..solvers.mr import mr


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
        self.schur = SchurOperator(op, parity=0)
        self.steps = steps
        self.omega = omega
        self.precision = precision
        self._solve_op = reduced_storage(self.schur, precision)

    def apply(self, r: np.ndarray) -> np.ndarray:
        rp, scale = enter_precision(r, self.precision)
        rs = self.schur.prepare_source(rp)
        result = mr(self._solve_op, rs, maxiter=self.steps, omega=self.omega)
        z = self.schur.reconstruct(result.x, rp)
        return leave_precision(z, r, scale)
