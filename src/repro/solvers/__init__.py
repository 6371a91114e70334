"""Krylov solvers: flexible GCR (the multigrid outer and coarse solver,
paper Section 7.1) and BiCGStab with its mixed-precision driver (the
paper's Table 3 baseline).

``repro.solvers.gcr`` and ``repro.solvers.bicgstab`` are the driver
modules; their functions are imported from them
(``from repro.solvers.gcr import gcr``)."""

from .base import (
    OperatorCounter,
    SolveResult,
    norm,
    norm2,
    validate_rhs_stack,
    vdot,
)
from .gcr import batched_gcr
from .mixed import PrecisionOperator, mixed_precision_solve

__all__ = [
    "OperatorCounter",
    "SolveResult",
    "norm",
    "norm2",
    "vdot",
    "batched_gcr",
    "validate_rhs_stack",
    "PrecisionOperator",
    "mixed_precision_solve",
]
