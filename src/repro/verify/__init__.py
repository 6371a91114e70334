"""Numerical-invariant verification (`repro.verify`).

Every optimisation this reproduction layers onto the Wilson-clover /
multigrid stack — fine-grained coarse-op parallelism, half-precision
storage, multi-RHS batching — is only trustworthy because the stack
obeys hard algebraic invariants: gamma5-hermiticity of M, P†P = I
orthonormality of the prolongator, the Galerkin condition
M̂ = P†MP, even/odd Schur equivalence, halo-exchange exactness, SU(3)
link unitarity, precision round-trip error bounds.  This package turns
those invariants into a *registry* of named, severity-tagged checks
with two consumption layers:

1. **CLI** — ``repro check <dataset>`` runs the registry against a
   built hierarchy and prints/exports a JSON report
   (:mod:`~repro.verify.runner`);
2. **pytest** — ``tests/test_verify_registry.py`` runs every entry as a
   parametrized tier-1 test, plus hypothesis property tests drawing
   random problems from ``tests/strategies.py``.

:mod:`~repro.verify.golden` adds golden convergence records so perf
refactors cannot silently change solver behaviour.
"""

from .context import VerifyContext
from .golden import compare_golden, golden_record
from .registry import REGISTRY, Invariant, get, invariant, names, run_invariant, run_registry
from .report import SCHEMA, SEVERITIES, InvariantReport, VerificationReport
from .runner import run_check

__all__ = [
    "Invariant",
    "InvariantReport",
    "REGISTRY",
    "SCHEMA",
    "SEVERITIES",
    "VerificationReport",
    "VerifyContext",
    "compare_golden",
    "get",
    "golden_record",
    "invariant",
    "names",
    "run_check",
    "run_invariant",
    "run_registry",
]

# importing the package loads the standard checks into the registry
from . import checks  # noqa: E402,F401
