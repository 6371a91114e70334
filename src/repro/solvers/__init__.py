"""Krylov solvers: CG/CGNE/CGNR, BiCGStab, MR, flexible GCR, mixed precision."""

from .base import (
    ConvergenceError,
    OperatorCounter,
    SolveResult,
    norm,
    norm2,
    validate_rhs_stack,
    vdot,
)
from .bicgstab import bicgstab
from .cg import cg, cgne, cgnr
from .chebyshev import ChebyshevSmoother, estimate_lambda_max
from .gcr import batched_gcr, gcr
from .gmres import ca_gmres, gmres
from .mixed import PrecisionOperator, mixed_precision_solve
from .mr import MRSmoother, mr

__all__ = [
    "ConvergenceError",
    "OperatorCounter",
    "SolveResult",
    "norm",
    "norm2",
    "vdot",
    "bicgstab",
    "cg",
    "cgne",
    "cgnr",
    "batched_gcr",
    "validate_rhs_stack",
    "ChebyshevSmoother",
    "estimate_lambda_max",
    "gcr",
    "ca_gmres",
    "gmres",
    "PrecisionOperator",
    "mixed_precision_solve",
    "MRSmoother",
    "mr",
]
