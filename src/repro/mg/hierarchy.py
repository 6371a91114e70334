"""The multigrid level stack.

Builds the recursive hierarchy of paper Section 3.4: generate near-null
vectors on the current level, aggregate them into a chirality-preserving
prolongator, form the Galerkin coarse operator, and repeat.  The coarse
operator retains the Eq-3 nearest-neighbour form on every level, so one
code path serves all levels — the same property QUDA exploits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..backend import active_backend_name, use_backend
from ..coarse import coarsen_operator
from ..dirac.mrhs import batched_schur_for, solves_directly
from ..dirac.wilson_kernel import WilsonKernel, supports_wilson_kernel
from ..lattice import Blocking
from ..precision import COMPLEX128, dtype_of
from ..telemetry.tracer import get_tracer
from ..transfer import Transfer
from .params import LevelParams, MGParams
from .schwarz import SchwarzMRSmoother
from .setup import generate_null_vectors
from .smoother import SchurMRSmoother

_STAT_FIELDS = (
    "op_applies",
    "smoother_applies",
    "gcr_iters",
    "restricts",
    "prolongs",
    "reductions",
)


@dataclass
class LevelStats:
    """Work counters for one level, reset per outer solve.

    These drive the per-level time breakdown (paper Figure 4): the
    machine model converts them into kernel and reduction times.  The
    counters are deliberately plain attributes (hot-path increments);
    :meth:`as_dict` snapshots them and :meth:`publish` books them into
    a :class:`~repro.telemetry.MetricsRegistry` under ``mg.<counter>``
    with a ``level`` label.
    """

    op_applies: int = 0  # full-stencil applications (residuals, GCR matvecs)
    smoother_applies: int = 0  # Schur/MR smoothing steps (dslash-equivalents)
    gcr_iters: int = 0  # GCR iterations run at this level
    restricts: int = 0
    prolongs: int = 0
    reductions: int = 0  # global inner products / norms

    def reset(self) -> None:
        for name in _STAT_FIELDS:
            setattr(self, name, 0)

    def as_dict(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in _STAT_FIELDS}

    def publish(self, registry, level: int) -> None:
        """Accumulate this snapshot into a metrics registry."""
        for name, value in self.as_dict().items():
            registry.counter(f"mg.{name}", level=level).inc(value)

    def total_stencil_work(self) -> int:
        return self.op_applies + self.smoother_applies


@dataclass
class MGLevel:
    """One level of the hierarchy.

    ``params``/``transfer`` describe the coarsening *from* this level and
    are ``None`` on the coarsest level.  ``schur`` is the one red-black
    system of ``op``: what the setup relaxes, what the smoother sweeps
    and, on the coarsest level, what every cycle over this hierarchy
    solves (``None`` there with ``MGParams.coarsest_schur`` off).
    """

    index: int
    op: object  # StencilOperator (fine WilsonClover or CoarseOperator)
    params: LevelParams | None = None
    transfer: Transfer | None = None
    smoother: SchurMRSmoother | None = None
    schur: object | None = None  # SchurOperator, BatchedCoarseSchur on a Galerkin operator
    null_vectors: list[np.ndarray] = field(default_factory=list)
    stats: LevelStats = field(default_factory=LevelStats)

    @property
    def is_coarsest(self) -> bool:
        return self.transfer is None

    @property
    def solved_directly(self) -> bool:
        """Whether cycles solve ``schur`` with its dense factors instead
        of iterating on it: the coarsest level's, small enough to hold
        (:func:`~repro.dirac.mrhs.solves_directly`) and below a coarse
        level.  Under the fine grid itself — a two-level hierarchy — the
        coarsest solve *is* the fine operator's coarse-grid correction,
        and applied exactly it was the worse stationary iteration on a
        near-critical operator (DESIGN.md section 20); from three levels
        on it made no measurable difference to any cycle type."""
        return self.is_coarsest and self.index > 1 and solves_directly(self.schur)


def _build_smoother(
    op, schur, lp: LevelParams, params: MGParams, rng: np.random.Generator
):
    """Construct the configured smoother for one level, over the
    level's red-black system ``schur``."""
    if params.smoother_type == "schur-mr":
        return SchurMRSmoother(
            op,
            steps=lp.smoother_steps,
            omega=lp.smoother_omega,
            precision=params.smoother_precision,
            schur=schur,
        )
    if params.smoother_type == "chebyshev":
        from ..solvers.chebyshev import ChebyshevSmoother

        return ChebyshevSmoother(op, degree=lp.smoother_steps, rng=rng)
    # "schwarz": cut along the configured process grid where it tiles;
    # levels too coarse for the grid fall back to the Schur-MR smoother
    from ..lattice import Partition

    assert params.schwarz_grid is not None
    try:
        partition = Partition(op.lattice, params.schwarz_grid)
    except ValueError:
        return SchurMRSmoother(
            op, steps=lp.smoother_steps, omega=lp.smoother_omega,
            precision=params.smoother_precision, schur=schur,
        )
    return SchwarzMRSmoother(
        op, partition, steps=lp.smoother_steps, omega=lp.smoother_omega
    )


def _cached_bytes(entry) -> int:
    """Bytes of one per-backend cache entry: an array, a tuple of
    arrays, or a helper object that reports its own ``nbytes``."""
    if isinstance(entry, tuple):
        return sum(_cached_bytes(item) for item in entry)
    return int(getattr(entry, "nbytes", 0))


class MultigridHierarchy:
    """The complete level stack for a fine operator and an :class:`MGParams`."""

    def __init__(self, levels: list[MGLevel], params: MGParams):
        self.levels = levels
        self.params = params

    @classmethod
    def build(
        cls,
        fine_op,
        params: MGParams,
        rng: np.random.Generator,
        verbose: bool = False,
        null_vectors: list[list[np.ndarray]] | None = None,
    ) -> "MultigridHierarchy":
        """Build the level stack, optionally from precomputed null vectors.

        ``null_vectors`` — one list of near-null vectors per coarsening
        (as returned by :meth:`export_null_vectors`) — skips the
        expensive ``generate_null_vectors`` relaxation entirely; the
        transfer, Galerkin coarsening and smoothers are rebuilt from
        them deterministically.  This is the restart path of the solve
        service's persistent setup cache.
        """
        if null_vectors is not None and len(null_vectors) != len(params.levels):
            raise ValueError(
                f"need one null-vector set per coarsening "
                f"({len(params.levels)}), got {len(null_vectors)}"
            )
        tracer = get_tracer()
        levels: list[MGLevel] = []
        current = fine_op
        with use_backend(params.backend), tracer.span(
            "mg.setup",
            n_levels=len(params.levels) + 1,
            backend=active_backend_name() if params.backend is None else params.backend,
        ):
            for index, lp in enumerate(params.levels):
                if verbose:
                    print(
                        f"[mg setup] level {index}: {current.lattice!r} "
                        f"ns={current.ns} nc={current.nc}; generating {lp.n_null} "
                        f"null vectors ({lp.null_iters} relaxation iters each)"
                    )
                with tracer.span("mg.setup.level", level=index):
                    # gathers nothing until a stack arrives
                    schur = batched_schur_for(current)
                    if null_vectors is not None:
                        provided = null_vectors[index]
                        if len(provided) != lp.n_null:
                            raise ValueError(
                                f"level {index} expects {lp.n_null} null "
                                f"vectors, got {len(provided)}"
                            )
                        with tracer.span("null-vectors-reuse", level=index):
                            nulls = [np.asarray(v, dtype=np.complex128) for v in provided]
                    else:
                        with tracer.span("null-vectors", level=index):
                            # relax in the precision the cycle will run in
                            nulls = generate_null_vectors(
                                current, lp.n_null, rng, null_iters=lp.null_iters,
                                dtype=dtype_of(params.coarse_precision), schur=schur,
                            )
                    with tracer.span("transfer-build", level=index):
                        blocking = Blocking(current.lattice, lp.block)
                        transfer = Transfer(blocking, nulls)
                    smoother = _build_smoother(current, schur, lp, params, rng)
                    levels.append(
                        MGLevel(
                            index=index,
                            op=current,
                            params=lp,
                            transfer=transfer,
                            smoother=smoother,
                            schur=schur,
                            null_vectors=nulls,
                        )
                    )
                    with tracer.span("coarsen", level=index):
                        current = coarsen_operator(current, transfer)
            # its tables and dense factors are built by the first solve
            schur = batched_schur_for(current) if params.coarsest_schur else None
            levels.append(MGLevel(index=len(params.levels), op=current, schur=schur))
        if verbose:
            lat = current.lattice
            print(
                f"[mg setup] coarsest level {len(levels) - 1}: {lat!r} "
                f"ns={current.ns} nc={current.nc}"
            )
        hierarchy = cls(levels, params)
        if params.verify_level != "off":
            # opt-in sampled invariant checking of the setup output
            # (prolongator orthonormality, Galerkin consistency,
            # gamma5-hermiticity); emits verify.* telemetry and warns on
            # violation without altering the build.
            from ..verify.runtime import verify_setup

            verify_setup(hierarchy, origin="mg.setup")
        return hierarchy

    @property
    def n_levels(self) -> int:
        return len(self.levels)

    def export_null_vectors(self) -> list[list[np.ndarray]]:
        """The near-null vectors of every coarsening, for persistence.

        Feeding the result back to :meth:`build` (same operator, same
        params) reproduces this hierarchy without any relaxation work.
        """
        return [lev.null_vectors for lev in self.levels if not lev.is_coarsest]

    def setup_memory_bytes(self) -> int:
        """Approximate resident size of the setup: null vectors, every
        ndarray attribute of the level operators (coarse stencils, link
        copies, clover blocks), the fine-grid kernel tables, the
        reduced-precision copies the configured precisions compute on
        (kernel tables, coarse blocks and their inverse, transfer bases),
        the parity-gathered dense-block tables of each coarse level's
        one red-black system at the dtype that streams them — the
        smoother's, on the coarsest level the cycle's with its dense
        LU factors where it is solved directly (in place of that
        operator's own reduced copies, which a red-black coarsest solve
        never casts) — and whatever the array backends have cached on
        the operators.
        Kernel tables, reduced copies, the factors and the inverse site
        blocks of a level that relaxes are built on first use but booked
        at their known size from the start, so a setup restored from
        disk counts the same as one that has already run.
        Drives LRU accounting in setup caches."""
        params = self.params
        cycle_dtype = dtype_of(params.coarse_precision)
        reduced_dtypes = {dtype_of(params.smoother_precision), cycle_dtype} - {COMPLEX128}
        total = 0
        for lev in self.levels:
            for vec in lev.null_vectors:
                total += vec.nbytes
            for value in vars(lev.op).values():
                if isinstance(value, np.ndarray):
                    total += value.nbytes
            if lev.index and not lev.is_coarsest and "_x_inv" not in vars(lev.op):
                # inverted by this level's relaxation; a restored setup
                # leaves it to the first solve
                total += lev.op.x_blocks.nbytes
            if supports_wilson_kernel(lev.op):
                half_volume = lev.op.lattice.half_volume
                for dtype in {COMPLEX128} | reduced_dtypes:
                    total += WilsonKernel.table_bytes(half_volume, dtype)
            # the coarsest level is only reached through its system
            red_black = getattr(lev.schur, "table_bytes", None) if lev.is_coarsest else None
            if red_black is not None:
                total += red_black(cycle_dtype)
                if lev.solved_directly:
                    total += lev.schur.factor_bytes(cycle_dtype)
            for dtype in reduced_dtypes:
                # coarse operators and transfers know the size of their copies
                for owner in (lev.transfer,) if red_black else (lev.op, lev.transfer):
                    book = getattr(owner, "reduced_bytes", None)
                    total += book(dtype) if book is not None else 0
            book = getattr(getattr(lev.smoother, "schur", None), "table_bytes", None)
            if book is not None:
                total += book(dtype_of(params.smoother_precision))
            caches = getattr(lev.op, "_backend_cache", {})
            total += sum(_cached_bytes(entry) for entry in caches.values())
        return total

    def reset_stats(self) -> None:
        for lev in self.levels:
            lev.stats.reset()

    def stats_summary(self) -> dict[int, LevelStats]:
        return {lev.index: lev.stats for lev in self.levels}
