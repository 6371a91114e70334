"""repro — a from-scratch reproduction of Clark et al., "Accelerating
Lattice QCD Multigrid on GPUs Using Fine-Grained Parallelization"
(SC 2016, arXiv:1612.07873).

The package provides the full stack the paper builds on: lattice
geometry, synthetic SU(3) gauge ensembles, the Wilson-Clover Dirac
operator (isotropic and anisotropic),
Krylov solvers (GCR, BiCGStab) with mixed precision and lockstep
multi-RHS batching, adaptive geometric multigrid with
chirality-preserving aggregation and Galerkin coarse operators
(K/V/W-cycles, a red-black MR smoother on every level), a domain-decomposed
(simulated-MPI) execution path, and calibrated GPU/cluster performance
models that regenerate the paper's figures and tables.

Quick access to the most used entry points::

    from repro import Lattice, WilsonCloverOperator, MultigridSolver

Everything else lives in the topical subpackages (``repro.lattice``,
``repro.gauge``, ``repro.dirac``, ``repro.solvers``, ``repro.mg``,
``repro.comm``, ``repro.gpu``, ``repro.machine``, ``repro.workloads``,
``repro.telemetry``, ``repro.reporting``).
"""

from .dirac import SchurOperator, WilsonCloverOperator
from .fields import GaugeField, SpinorField
from .lattice import Blocking, Lattice, Partition
from .mg import LevelParams, MGParams, MultigridSolver

__version__ = "1.0.0"

__all__ = [
    "SchurOperator",
    "WilsonCloverOperator",
    "GaugeField",
    "SpinorField",
    "Blocking",
    "Lattice",
    "Partition",
    "LevelParams",
    "MGParams",
    "MultigridSolver",
    "__version__",
]
