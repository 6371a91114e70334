"""Multigrid parameter blocks.

The structure follows the paper's Section 7.1 configuration: a K-cycle,
GCR(10) outer and intermediate solvers, MR smoothing, red-black
preconditioning on every level, and loose coarse-grid tolerances.  The
smoothing schedule defaults to a generic four pre/post MR steps per
level; the presets (``repro.workloads.presets.mg_params_for``) smooth
with the schedule measured by ``tools/sweep_smoothing.py``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field

from ..precision import Precision


@dataclass
class LevelParams:
    """Parameters of one coarsening step (from level ``l`` to ``l+1``)."""

    block: tuple[int, int, int, int]
    n_null: int
    null_iters: int = 100  # relaxation iterations per null vector
    smoother_steps: int = 4  # MR pre/post smoothing applications
    smoother_omega: float = 0.85
    coarse_tol: float = 0.25  # K-cycle coarse-solve tolerance
    coarse_maxiter: int = 16  # GCR iterations per coarse solve
    nkrylov: int = 10  # GCR subspace size at this level


@dataclass
class MGParams:
    """Full multigrid configuration: one :class:`LevelParams` per coarsening."""

    levels: list[LevelParams]
    outer_tol: float = 1e-8
    outer_maxiter: int = 200
    outer_nkrylov: int = 10
    cycle_type: str = "K"  # "K" (paper), "V", or "W"
    # The preconditioner is held and computed in single precision under
    # the double outer GCR (paper Section 7.1): ``coarse_precision`` is
    # the precision of the whole cycle body (QUDA's "precondition
    # precision"), ``smoother_precision`` that of the smoothers inside
    # it.  DOUBLE reproduces the all-double arithmetic bit for bit.
    smoother_precision: Precision = Precision.SINGLE
    coarse_precision: Precision = Precision.SINGLE
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.cycle_type not in ("K", "V", "W"):
            raise ValueError(f"cycle_type must be 'K', 'V' or 'W', got {self.cycle_type!r}")

    @property
    def n_levels(self) -> int:
        return len(self.levels) + 1

    def subspace_label(self) -> str:
        """The paper's strategy label, e.g. '24/32'."""
        return "/".join(str(lp.n_null) for lp in self.levels)

    def canonical_dict(self) -> dict:
        """A JSON-safe, order-canonicalized view of every parameter.

        Tuples become lists, enums their string values, and ``extra`` is
        key-sorted, so two :class:`MGParams` describing the same
        configuration canonicalize identically regardless of how they
        were constructed.
        """

        def _clean(obj):
            if isinstance(obj, Precision):
                return obj.value
            if isinstance(obj, dict):
                return {str(k): _clean(obj[k]) for k in sorted(obj, key=str)}
            if isinstance(obj, (list, tuple)):
                return [_clean(x) for x in obj]
            return obj

        return _clean(asdict(self))

    def fingerprint(self) -> str:
        """Deterministic content hash of the full configuration.

        SHA-256 of the canonical JSON encoding — stable across
        processes and field ordering; combined with the gauge-field
        fingerprint it keys MG setup caches.
        """
        payload = json.dumps(
            self.canonical_dict(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(payload.encode()).hexdigest()
