"""Solver presets matching the paper's Table 2 / Section 7.1 parameters."""

from __future__ import annotations

from ..mg.params import LevelParams, MGParams
from ..precision import Precision
from .datasets import ScaledDataset

# the paper's three subspace strategies
PAPER_STRATEGIES = ("24/24", "24/32", "32/32")

#: MR steps per smoothing on the fine level and on every coarser smoothed
#: level: the schedule ``tools/sweep_smoothing.py`` measured and adopted
#: (DESIGN.md section 23).  The fine level smooths longer so that the
#: outer GCR iterates less for about the same level-0 smoother work
FINE_SMOOTHER_STEPS = 10
COARSE_SMOOTHER_STEPS = 2


def strategy_nulls(strategy: str) -> tuple[int, int]:
    """Parse '24/32' into per-level subspace sizes."""
    parts = strategy.split("/")
    if len(parts) != 2:
        raise ValueError(f"bad strategy {strategy!r}; expected 'N1/N2'")
    return int(parts[0]), int(parts[1])


def mg_params_for(
    dataset: ScaledDataset,
    strategy: str = "24/24",
    null_iters: int = 60,
    outer_maxiter: int = 200,
    mixed_precision: bool = False,
) -> MGParams:
    """Paper-style three-level K-cycle parameters for a scaled dataset.

    Subspace sizes are scaled down with the dataset (24 -> 6, 32 -> 8 by
    default) so the aggregate dof stays proportionate on the small
    lattices.  The structure follows Section 7.1 — GCR(10) outer and
    intermediate, MR smoothing, red-black everywhere, and a
    single-precision K-cycle (the :class:`MGParams` default: held and
    computed in complex64) under the double outer solver — and the
    smoothing schedule is the measured one,
    :data:`FINE_SMOOTHER_STEPS` / :data:`COARSE_SMOOTHER_STEPS` pre/post
    MR steps.  ``mixed_precision`` additionally emulates the paper's
    16-bit smoother storage on top of that.
    """
    n1, n2 = strategy_nulls(strategy)
    levels = [
        LevelParams(
            block=dataset.blockings[0],
            n_null=dataset.scaled_null(n1),
            null_iters=null_iters,
            smoother_steps=FINE_SMOOTHER_STEPS,
        ),
        LevelParams(
            block=dataset.blockings[1],
            n_null=dataset.scaled_null(n2),
            null_iters=null_iters,
            smoother_steps=COARSE_SMOOTHER_STEPS,
        ),
    ]
    return MGParams(
        levels=levels,
        outer_tol=dataset.target_residuum,
        outer_maxiter=outer_maxiter,
        outer_nkrylov=10,
        smoother_precision=Precision.HALF if mixed_precision else Precision.SINGLE,
        extra={"paper_strategy": strategy},
    )


def two_level_params(
    dataset: ScaledDataset,
    strategy: str = "24/24",
    null_iters: int = 60,
) -> MGParams:
    """A cheaper two-level variant (used by fast tests and examples)."""
    n1, _ = strategy_nulls(strategy)
    return MGParams(
        levels=[
            LevelParams(
                block=dataset.blockings[0],
                n_null=dataset.scaled_null(n1),
                null_iters=null_iters,
            )
        ],
        outer_tol=dataset.target_residuum,
        extra={"paper_strategy": strategy},
    )
