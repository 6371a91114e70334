"""Adaptive geometric multigrid: setup, hierarchy, K-cycle, solver facade."""

from .hierarchy import MGLevel, MultigridHierarchy
from .kcycle import KCyclePreconditioner, LevelStats, gcr_reductions
from .params import LevelParams, MGParams
from .setup import generate_null_vectors
from .smoother import SchurMRSmoother
from .solver import MultigridSolver

__all__ = [
    "LevelStats",
    "MGLevel",
    "MultigridHierarchy",
    "KCyclePreconditioner",
    "gcr_reductions",
    "LevelParams",
    "MGParams",
    "generate_null_vectors",
    "SchurMRSmoother",
    "MultigridSolver",
]
