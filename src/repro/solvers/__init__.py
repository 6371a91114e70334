"""Krylov solvers: flexible GCR (the multigrid outer and coarse solver,
paper Section 7.1) and BiCGStab with its mixed-precision driver (the
paper's Table 3 baseline)."""

from .base import (
    OperatorCounter,
    SolveResult,
    norm,
    norm2,
    validate_rhs_stack,
    vdot,
)
from .bicgstab import bicgstab
from .gcr import batched_gcr, gcr
from .mixed import PrecisionOperator, mixed_precision_solve

__all__ = [
    "OperatorCounter",
    "SolveResult",
    "norm",
    "norm2",
    "vdot",
    "bicgstab",
    "batched_gcr",
    "validate_rhs_stack",
    "gcr",
    "PrecisionOperator",
    "mixed_precision_solve",
]
