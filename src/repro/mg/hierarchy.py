"""The multigrid level stack.

Builds the recursive hierarchy of paper Section 3.4: generate near-null
vectors on the current level, aggregate them into a chirality-preserving
prolongator, form the Galerkin coarse operator, and repeat.  The coarse
operator retains the Eq-3 nearest-neighbour form on every level, so one
code path serves all levels — the same property QUDA exploits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from ..coarse import CoarseOperator, coarsen_operator
from ..dirac.mrhs import batched_schur_for, solves_directly
from ..dirac.wilson_kernel import WilsonKernel, supports_wilson_kernel
from ..lattice import NDIM, Blocking
from ..precision import COMPLEX128, adopt_reduced, dtype_of, reduced
from ..telemetry.tracer import get_tracer
from ..transfer import Transfer
from .params import LevelParams, MGParams
from .setup import generate_null_vectors
from .smoother import SchurMRSmoother

@dataclass(frozen=True)
class MGLevel:
    """One level of the hierarchy, fixed at construction: a solve reads
    it and counts its work elsewhere.

    ``params``/``transfer`` describe the coarsening *from* this level and
    are ``None`` on the coarsest level.  ``schur`` is the one red-black
    system of ``op``: what the setup relaxes, what the smoother sweeps
    and, on the coarsest level, what every cycle over this hierarchy
    solves.
    """

    index: int
    op: object  # StencilOperator (fine WilsonClover or CoarseOperator)
    params: LevelParams | None = None
    transfer: Transfer | None = None
    smoother: SchurMRSmoother | None = None
    schur: object | None = None  # SchurOperator; BatchedCoarseSchur on a Galerkin operator
    null_vectors: list[np.ndarray] = field(default_factory=list)

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


def _level(
    index: int, op, lp: LevelParams, params: MGParams,
    schur, transfer: Transfer, nulls: list[np.ndarray],
) -> MGLevel:
    """One coarsening level, whether its transfer was just built or
    loaded: the level owns ``schur`` and the MR smoother over it."""
    smoother = SchurMRSmoother(
        op,
        steps=lp.smoother_steps,
        omega=lp.smoother_omega,
        precision=params.smoother_precision,
        schur=schur,
    )
    return MGLevel(
        index=index, op=op, params=lp, transfer=transfer, smoother=smoother,
        schur=schur, null_vectors=nulls,
    )


class _Stream(NamedTuple):
    """One table a solve streams that :meth:`MultigridHierarchy.arrays`
    does not hold, as named parts: ``get`` returns them (building them if
    no solve has), ``layout`` their ``(shape, dtype)`` and ``adopt`` holds
    given ones in their place."""

    name: str
    get: Callable[[], dict]
    layout: Callable[[], dict]
    adopt: Callable[[dict], None]


def _whole(array) -> dict:
    return {"": array}


def _basis_copy(transfer: Transfer, dtype) -> dict[str, np.ndarray]:
    return _whole(reduced(transfer, "_basis", dtype))


def _adopt_basis_copy(transfer: Transfer, dtype, parts: dict[str, np.ndarray]) -> None:
    adopt_reduced(transfer, "_basis", dtype, parts[""])


def _coarsest_level(index: int, op) -> MGLevel:
    # its tables and dense factors are built by the first solve (a
    # restored setup holds them)
    return MGLevel(index=index, op=op, schur=batched_schur_for(op))


def _part_name(name: str, part: str) -> str:
    return f"{name}.{part}" if part else name


def _layout_bytes(layout: dict[str, tuple]) -> int:
    return sum(math.prod(shape) * np.dtype(dtype).itemsize for shape, dtype in layout.values())


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
        them deterministically.  Every array of the setup is built here
        but what the cycle streams (:meth:`streamed_arrays`), which the
        first solve builds.
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
                        _level(index, current, lp, params, schur, transfer, nulls)
                    )
                    with tracer.span("coarsen", level=index):
                        current = coarsen_operator(current, transfer)
            levels.append(_coarsest_level(len(params.levels), current))
        if verbose:
            lat = current.lattice
            print(
                f"[mg setup] coarsest level {len(levels) - 1}: {lat!r} "
                f"ns={current.ns} nc={current.nc}"
            )
        return cls(levels, params)

    @classmethod
    def from_arrays(
        cls,
        fine_op,
        params: MGParams,
        arrays: dict[str, np.ndarray],
    ) -> "MultigridHierarchy":
        """Assemble the hierarchy whose :meth:`arrays` and
        :meth:`streamed_arrays` these are, computing nothing: no
        relaxation, no QR, no Galerkin product, no operator apply, and
        its first solve gathers, inverts, casts and factors nothing
        either — it holds the streamed tables instead of building them.
        Every array is checked against ``fine_op`` and ``params`` level
        by level; a missing one, or one of another shape or dtype, raises
        ``ValueError``.  The restart path of the solve service's
        persistent setup cache."""

        def member(name: str, shape: tuple[int, ...], dtype=COMPLEX128) -> np.ndarray:
            found = arrays.get(name)
            if found is None or found.shape != shape or found.dtype != dtype:
                got = "nothing" if found is None else f"{found.dtype} {found.shape}"
                raise ValueError(
                    f"setup array {name!r}: need {np.dtype(dtype).name} {shape}, got {got}"
                )
            return found

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
            levels.append(_level(index, current, lp, params, schur, transfer, nulls))
            x = member(f"x{index + 1}", (vc, n, n))
            hop = member(f"hop{index + 1}", (NDIM, 2, vc, n, n))
            current = CoarseOperator(blocking.coarse, x, hop, 2, lp.n_null)
        levels.append(_coarsest_level(len(params.levels), current))
        hierarchy = cls(levels, params)
        for stream in hierarchy._streams():
            stream.adopt({
                part: member(_part_name(stream.name, part), shape, dtype)
                for part, (shape, dtype) in stream.layout().items()
            })
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
        same params, with :meth:`streamed_arrays`) reassembles this
        hierarchy from them."""
        return {
            name: np.stack(parts) if name.startswith("null") else parts[0]
            for name, parts in self._unstacked().items()
        }

    def _unstacked(self) -> dict[str, list[np.ndarray]]:
        """:meth:`arrays` before the null vectors are stacked: each
        name's arrays, one per null vector for ``null{i}``."""
        out: dict[str, list[np.ndarray]] = {}
        for lev in self.levels[:-1]:
            below = self.levels[lev.index + 1].op
            out[f"null{lev.index}"] = lev.null_vectors
            out[f"basis{lev.index}"] = [lev.transfer._basis]
            out[f"x{lev.index + 1}"] = [below.x_blocks]
            out[f"hop{lev.index + 1}"] = [below.hop_blocks]
        return out

    def streamed_arrays(self) -> dict[str, np.ndarray]:
        """What a solve streams beyond :meth:`arrays`, at the dtypes the
        configured precisions stream it in — the tables
        :meth:`setup_memory_bytes` books before first use — by name: per
        coarsening ``i`` the reduced copies of its transfer basis
        (``basis{i}.complex64``); per coarse level ``i`` that relaxes, the
        distinct-neighbour table the cycle applies
        (``table{i}.<dtype>.rows`` / ``.idx``) and its red-black system's
        parity tables at the smoother's dtype (``schur{i}.<dtype>.*``,
        ``X_oo^{-1}`` on the odd sites among them); on the coarsest level
        the system's tables at the cycle's dtype and, where it is solved
        directly, its LU factors (``.lu``, in column order) and row order
        (``.perm``).  Whatever no solve has built yet is built here and
        kept, as the first solve would keep it.  :meth:`from_arrays`
        holds them again."""
        return {
            _part_name(stream.name, part): array
            for stream in self._streams()
            for part, array in stream.get().items()
        }

    def _streams(self) -> list[_Stream]:
        """Every table :meth:`streamed_arrays` names; their layouts are
        what :meth:`setup_memory_bytes` books for them."""
        params = self.params
        cycle_dtype = dtype_of(params.coarse_precision)
        smoother_dtype = dtype_of(params.smoother_precision)
        reduced_dtypes = sorted({smoother_dtype, cycle_dtype} - {COMPLEX128}, key=str)
        streams: list[_Stream] = []
        for lev in self.levels:
            i, op = lev.index, lev.op
            for dtype in reduced_dtypes if lev.transfer is not None else ():
                streams.append(_Stream(
                    f"basis{i}.{dtype.name}",
                    partial(_basis_copy, lev.transfer, dtype),
                    partial(_whole, (lev.transfer._basis.shape, dtype)),
                    partial(_adopt_basis_copy, lev.transfer, dtype),
                ))
            if not isinstance(op, CoarseOperator):
                continue
            schur = lev.schur
            if lev.is_coarsest:
                factor = lev.solved_directly
                streams.append(_Stream(
                    f"schur{i}.{cycle_dtype.name}",
                    partial(schur.streamed, cycle_dtype, factor),
                    partial(schur.streamed_layout, cycle_dtype, factor),
                    partial(schur.adopt, cycle_dtype, factor=factor),
                ))
                continue
            streams.append(_Stream(
                f"table{i}.{cycle_dtype.name}",
                partial(op.streamed, cycle_dtype),
                partial(op.streamed_layout, cycle_dtype),
                partial(op.adopt, cycle_dtype),
            ))
            streams.append(_Stream(
                f"schur{i}.{smoother_dtype.name}",
                partial(schur.streamed, smoother_dtype),
                partial(schur.streamed_layout, smoother_dtype),
                partial(schur.adopt, smoother_dtype),
            ))
        return streams

    def setup_memory_bytes(self) -> int:
        """Resident size of the setup, from shapes: the fine operator's
        own arrays and the fine-grid kernel tables at every dtype a solve
        applies it in (the outer solve's complex128 and the cycle's
        reduced ones), :meth:`arrays` (null vectors, transfer bases,
        Galerkin operators) and :meth:`streamed_arrays` (reduced basis
        copies, coarse distinct-neighbour and parity tables, the
        coarsest LU factors).  What the cycle streams is built on first
        use, or held from disk, but booked at its layout from the start,
        so one number holds before and after any solve and for a built,
        persisted or restored setup alike.  Drives LRU accounting in
        setup caches."""
        fine = self.levels[0].op
        total = sum(v.nbytes for v in vars(fine).values() if isinstance(v, np.ndarray))
        if supports_wilson_kernel(fine):
            params = self.params
            dtypes = {COMPLEX128} | {
                dtype_of(params.smoother_precision), dtype_of(params.coarse_precision)
            }
            total += sum(WilsonKernel.table_bytes(fine.lattice.half_volume, d) for d in dtypes)
        total += sum(a.nbytes for parts in self._unstacked().values() for a in parts)
        return total + sum(_layout_bytes(stream.layout()) for stream in self._streams())
