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

from ..coarse import CoarseOperator, coarsen_operator
from ..dirac.mrhs import batched_schur_for, solves_directly
from ..dirac.wilson_kernel import WilsonKernel, supports_wilson_kernel
from ..lattice import NDIM, Blocking
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


def _level(
    index: int, op, lp: LevelParams, params: MGParams, rng: np.random.Generator,
    schur, transfer: Transfer, nulls: list[np.ndarray],
) -> MGLevel:
    """One coarsening level, whether its transfer was just built or
    loaded: the level owns ``schur`` and a smoother over it."""
    smoother = _build_smoother(op, schur, lp, params, rng)
    return MGLevel(
        index=index, op=op, params=lp, transfer=transfer, smoother=smoother,
        schur=schur, null_vectors=nulls,
    )


def _coarsest_level(index: int, op, params: MGParams) -> MGLevel:
    # its tables and dense factors are built by the first solve
    schur = batched_schur_for(op) if params.coarsest_schur else None
    return MGLevel(index=index, op=op, schur=schur)


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
        them deterministically.  A setup cache file of the first format
        (null vectors only) restores through this path once.
        """
        if null_vectors is not None and len(null_vectors) != len(params.levels):
            raise ValueError(
                f"need one null-vector set per coarsening "
                f"({len(params.levels)}), got {len(null_vectors)}"
            )
        tracer = get_tracer()
        levels: list[MGLevel] = []
        current = fine_op
        with tracer.span("mg.setup", n_levels=len(params.levels) + 1):
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
                    levels.append(
                        _level(index, current, lp, params, rng, schur, transfer, nulls)
                    )
                    with tracer.span("coarsen", level=index):
                        current = coarsen_operator(current, transfer)
            levels.append(_coarsest_level(len(params.levels), current, params))
        if verbose:
            lat = current.lattice
            print(
                f"[mg setup] coarsest level {len(levels) - 1}: {lat!r} "
                f"ns={current.ns} nc={current.nc}"
            )
        return cls._verified(levels, params)

    @classmethod
    def from_arrays(
        cls, fine_op, params: MGParams, arrays: dict[str, np.ndarray]
    ) -> "MultigridHierarchy":
        """Assemble the hierarchy whose :meth:`arrays` these are, computing
        nothing: no relaxation, no QR, no Galerkin product, no operator
        apply.  Every array is checked against ``fine_op`` and ``params``
        level by level; a missing one, or one of another shape or dtype,
        raises ``ValueError``.  The restart path of the solve service's
        persistent setup cache."""

        def member(name: str, shape: tuple[int, ...]) -> np.ndarray:
            found = arrays.get(name)
            if found is None or found.shape != shape or found.dtype != np.complex128:
                got = "nothing" if found is None else f"{found.dtype} {found.shape}"
                raise ValueError(f"setup array {name!r}: need complex128 {shape}, got {got}")
            return found

        rng = np.random.default_rng()  # drawn from by a Chebyshev smoother only
        levels: list[MGLevel] = []
        current = fine_op
        for index, lp in enumerate(params.levels):
            volume, ns, nc = current.lattice.volume, current.ns, current.nc
            blocking = Blocking(current.lattice, lp.block)
            vc, n = blocking.coarse.volume, 2 * lp.n_null
            rows = blocking.block_volume * (ns // 2) * nc
            nulls = list(member(f"null{index}", (lp.n_null, volume, ns, nc)))
            basis = member(f"basis{index}", (vc, 2, rows, lp.n_null))
            transfer = Transfer.from_basis(blocking, basis, ns, nc)
            schur = batched_schur_for(current)
            levels.append(_level(index, current, lp, params, rng, schur, transfer, nulls))
            x = member(f"x{index + 1}", (vc, n, n))
            hop = member(f"hop{index + 1}", (NDIM, 2, vc, n, n))
            current = CoarseOperator(blocking.coarse, x, hop, 2, lp.n_null)
        levels.append(_coarsest_level(len(params.levels), current, params))
        return cls._verified(levels, params)

    @classmethod
    def _verified(cls, levels: list[MGLevel], params: MGParams) -> "MultigridHierarchy":
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

    def arrays(self) -> dict[str, np.ndarray]:
        """The setup as named complex128 arrays, for persistence: per
        coarsening ``i`` its null-vector stack ``null{i}`` and transfer
        basis ``basis{i}``, and the Galerkin operator of the level below,
        ``x{i+1}`` / ``hop{i+1}``.  :meth:`from_arrays` (same operator,
        same params) reassembles this hierarchy from them."""
        out: dict[str, np.ndarray] = {}
        for lev in self.levels[:-1]:
            below = self.levels[lev.index + 1].op
            out[f"null{lev.index}"] = np.stack(lev.null_vectors)
            out[f"basis{lev.index}"] = lev.transfer._basis
            out[f"x{lev.index + 1}"] = below.x_blocks
            out[f"hop{lev.index + 1}"] = below.hop_blocks
        return out

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
        never casts).
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
        return total

    def reset_stats(self) -> None:
        for lev in self.levels:
            lev.stats.reset()

    def stats_summary(self) -> dict[int, LevelStats]:
        return {lev.index: lev.stats for lev in self.levels}
