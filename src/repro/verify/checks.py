"""The standard invariant implementations.

Each check is a function over a :class:`~repro.verify.context.VerifyContext`
registered with :func:`~repro.verify.registry.invariant`.  Tolerances
are set for exact algebraic identities evaluated in complex128: the
measured residuals are normalized so that correct code sits at machine
epsilon, and the thresholds leave ~4 orders of magnitude of headroom —
loose enough to survive BLAS reassociation, tight enough that any
genuine convention or construction bug (a wrong dagger, a dropped
boundary phase, a mis-split chirality) fails by many orders.

The registry maps each invariant to the paper structure it protects;
the same table appears in DESIGN.md.
"""

from __future__ import annotations

import numpy as np

from ..coarse.galerkin import galerkin_violation
from ..comm import PartitionedOperator
from ..dirac.even_odd import SchurOperator
from ..gauge.loops import average_plaquette
from ..lattice import NDIM, Partition
from ..precision import Precision, apply_precision, rel_epsilon
from .report import InvariantReport
from .registry import invariant

#: Threshold for identities that are exact in complex128.
EXACT_TOL = 1e-10


def _rel(diff: np.ndarray, ref: np.ndarray) -> float:
    scale = max(np.linalg.norm(ref.ravel()), np.finfo(np.float64).tiny)
    return float(np.linalg.norm(diff.ravel()) / scale)


def gamma5_hermiticity_violation(op, v: np.ndarray, w: np.ndarray) -> float:
    """Relative violation of ``<w, g5 M v> = conj(<v, g5 M w>)``.

    Exact gamma5-hermiticity — ``(g5 M)^dag = g5 M``, the property the
    chirality-preserving aggregation rests on — makes this ~machine
    epsilon for any probe pair ``(v, w)``.
    """
    g5mv = op.apply_gamma5(op.apply(v))
    g5mw = op.apply_gamma5(op.apply(w))
    a = np.vdot(w.ravel(), g5mv.ravel())
    b = np.conj(np.vdot(v.ravel(), g5mw.ravel()))
    scale = np.linalg.norm(w.ravel()) * np.linalg.norm(g5mv.ravel())
    return float(abs(a - b) / max(scale, np.finfo(np.float64).tiny))


# ----------------------------------------------------------------------
# gauge tier
# ----------------------------------------------------------------------
@invariant(
    "gauge.unitarity",
    severity="critical",
    description="Every link is SU(3): U U^dag = I and det U = 1",
    paper_ref="Sec 2 (gauge field definition); enables 12/8-real compression (Sec 4)",
    needs="gauge",
)
def check_gauge_unitarity(ctx) -> InvariantReport:
    u = ctx.gauge
    viol = max(u.unitarity_violation(), u.determinant_violation())
    return InvariantReport.from_residual(
        "gauge.unitarity", viol, 1e-9, lattice=str(u.lattice)
    )


@invariant(
    "gauge.plaquette",
    severity="warning",
    description="Average plaquette is finite and within [-1, 1]",
    paper_ref="Sec 3 (gauge generation workflow); Table 1 ensembles",
    needs="gauge",
)
def check_gauge_plaquette(ctx) -> InvariantReport:
    plaq = average_plaquette(ctx.gauge)
    residual = 0.0 if np.isfinite(plaq) else np.inf
    residual = max(residual, abs(plaq) - 1.0)
    return InvariantReport.from_residual(
        "gauge.plaquette", residual, 1e-9, plaquette=float(plaq)
    )


# ----------------------------------------------------------------------
# operator tier
# ----------------------------------------------------------------------
@invariant(
    "dirac.gamma5_hermiticity",
    severity="critical",
    description="(g5 M)^dag = g5 M for the fine Wilson-clover operator",
    paper_ref="Sec 3.3 (normal equations rest on g5-hermiticity of Eq 2)",
    needs="operator",
)
def check_gamma5_hermiticity(ctx) -> InvariantReport:
    rng = ctx.probe_rng(1)
    worst = max(
        gamma5_hermiticity_violation(
            ctx.op, ctx.probe(ctx.op, rng), ctx.probe(ctx.op, rng)
        )
        for _ in range(ctx.n_probes)
    )
    return InvariantReport.from_residual(
        "dirac.gamma5_hermiticity", worst, EXACT_TOL, n_probes=ctx.n_probes
    )


@invariant(
    "dirac.even_odd_schur",
    severity="critical",
    description="Schur system and reconstruction are exactly equivalent to M",
    paper_ref="Sec 3.3 (red-black Schur complement, applied on all levels per Sec 7.1)",
    needs="operator",
)
def check_even_odd_schur(ctx) -> list[InvariantReport]:
    rng = ctx.probe_rng(2)
    schur = SchurOperator(ctx.op, parity=0)
    worst_sys = 0.0
    worst_rec = 0.0
    for _ in range(ctx.n_probes):
        x = ctx.probe(ctx.op, rng)
        b = ctx.op.apply(x)
        x_e = schur.restrict(x)
        # the Schur matrix applied to the true even part must equal the
        # prepared source of the true right-hand side ...
        lhs = schur.apply(x_e)
        rhs = schur.prepare_source(b)
        worst_sys = max(worst_sys, _rel(lhs - rhs, rhs))
        # ... and reconstruction from the even part must recover x
        worst_rec = max(worst_rec, _rel(schur.reconstruct(x_e, b) - x, x))
    return [
        InvariantReport.from_residual(
            "dirac.even_odd_schur.system", worst_sys, EXACT_TOL, parity=0
        ),
        InvariantReport.from_residual(
            "dirac.even_odd_schur.reconstruct", worst_rec, EXACT_TOL, parity=0
        ),
    ]


@invariant(
    "comm.halo_exchange",
    severity="critical",
    description="Domain-decomposed apply equals the single-rank apply",
    paper_ref="Sec 6.5 (multi-GPU halo packing/exchange)",
    needs="operator",
)
def check_halo_exchange(ctx) -> InvariantReport:
    dims = ctx.op.lattice.dims
    grid = None
    for mu in reversed(range(NDIM)):  # prefer cutting time, QUDA-style
        if dims[mu] % 2 == 0 and dims[mu] >= 4:
            grid = tuple(2 if i == mu else 1 for i in range(NDIM))
            break
    if grid is None:
        return InvariantReport(
            name="comm.halo_exchange",
            passed=True,
            residual=0.0,
            tolerance=0.0,
            context={"skipped": "no partitionable direction"},
        )
    part = PartitionedOperator(ctx.op, Partition(ctx.op.lattice, grid))
    rng = ctx.probe_rng(3)
    worst = max(
        part.consistency_violation(ctx.probe(ctx.op, rng))
        for _ in range(ctx.n_probes)
    )
    return InvariantReport.from_residual(
        "comm.halo_exchange", worst, 1e-12, grid=list(grid)
    )


@invariant(
    "precision.roundtrip",
    severity="warning",
    description="Storage-precision round trips stay within format error bounds",
    paper_ref="Sec 4 (runtime precision; QUDA block-normalized half format)",
    needs="operator",
)
def check_precision_roundtrip(ctx) -> list[InvariantReport]:
    rng = ctx.probe_rng(4)
    v = ctx.probe(ctx.op, rng)
    out = []
    # headroom factor: per-site block normalization spreads the
    # quantization step across the site's dof, so a Gaussian field sits
    # well below eps * sqrt(dof); 8x covers adversarial site profiles.
    for precision in (Precision.SINGLE, Precision.HALF):
        err = _rel(apply_precision(v, precision) - v, v)
        bound = 8.0 * rel_epsilon(precision) * np.sqrt(ctx.op.ns * ctx.op.nc)
        out.append(
            InvariantReport.from_residual(
                f"precision.roundtrip.{precision.value}", err, bound
            )
        )
    # double must be bit-exact
    exact = _rel(apply_precision(v, Precision.DOUBLE) - v, v)
    out.append(
        InvariantReport.from_residual("precision.roundtrip.double", exact, 0.0)
    )
    return out


# ----------------------------------------------------------------------
# hierarchy tier
# ----------------------------------------------------------------------
@invariant(
    "transfer.orthonormality",
    severity="critical",
    description="P^dag P = I per aggregate and chirality on every level",
    paper_ref="Sec 3.4 + footnote 1 (chirality-preserving block orthonormalization)",
    needs="hierarchy",
)
def check_prolongator_orthonormality(ctx) -> list[InvariantReport]:
    out = []
    for lev in ctx.hierarchy.levels:
        if lev.is_coarsest:
            continue
        out.append(
            InvariantReport.from_residual(
                f"transfer.orthonormality.level{lev.index}",
                lev.transfer.orthonormality_violation(),
                EXACT_TOL,
                level=lev.index,
            )
        )
    return out


@invariant(
    "coarse.galerkin",
    severity="critical",
    description="Coarse stencil equals R M P on every coarsening",
    paper_ref="Eq 3 / Sec 3.4 (Galerkin coarse operator construction)",
    needs="hierarchy",
)
def check_galerkin(ctx) -> list[InvariantReport]:
    rng = ctx.probe_rng(5)
    out = []
    levels = ctx.hierarchy.levels
    for lev in levels[:-1]:
        coarse_op = levels[lev.index + 1].op
        probes = [ctx.probe(coarse_op, rng) for _ in range(ctx.n_probes)]
        out.append(
            InvariantReport.from_residual(
                f"coarse.galerkin.level{lev.index}",
                galerkin_violation(lev.op, lev.transfer, coarse_op, probes),
                EXACT_TOL,
                level=lev.index,
            )
        )
    return out


@invariant(
    "coarse.gamma5_hermiticity",
    severity="critical",
    description="Every Galerkin coarse operator inherits g5-hermiticity",
    paper_ref="Sec 3.4 (chirality survives aggregation, coarse g5 = diag(+1,-1))",
    needs="hierarchy",
)
def check_coarse_gamma5(ctx) -> list[InvariantReport]:
    rng = ctx.probe_rng(6)
    out = []
    for lev in ctx.hierarchy.levels[1:]:
        worst = max(
            gamma5_hermiticity_violation(
                lev.op, ctx.probe(lev.op, rng), ctx.probe(lev.op, rng)
            )
            for _ in range(ctx.n_probes)
        )
        out.append(
            InvariantReport.from_residual(
                f"coarse.gamma5_hermiticity.level{lev.index}",
                worst,
                EXACT_TOL,
                level=lev.index,
            )
        )
    return out


# ----------------------------------------------------------------------
# solve tier
# ----------------------------------------------------------------------
@invariant(
    "mg.convergence",
    severity="critical",
    description="The full K-cycle solve converges and reports a truthful residual",
    paper_ref="Sec 7.1 (three-level K-cycle solver configuration)",
    needs="solve",
)
def check_mg_convergence(ctx) -> list[InvariantReport]:
    from ..mg.solver import MultigridSolver

    tol = ctx.solve_tol if ctx.solve_tol is not None else ctx.params.outer_tol
    solver = MultigridSolver.from_hierarchy(ctx.hierarchy, ctx.params)
    b = ctx.probe(ctx.op, ctx.probe_rng(7))
    result = solver.solve(b, tol=tol)
    true_res = _rel(b - ctx.op.apply(result.x), b)
    reported = result.final_residual
    drift = abs(true_res - reported) / max(true_res, reported, 1e-300)
    return [
        InvariantReport.from_residual(
            "mg.convergence",
            true_res,
            tol * 10.0,  # recursive-vs-true residual headroom
            iterations=result.iterations,
            converged=bool(result.converged),
        ),
        # the reported residual must describe the returned solution:
        # recursive and true residuals may drift apart, but only at the
        # level of accumulated roundoff, never by factors.
        InvariantReport.from_residual(
            "mg.residual_truthful",
            drift,
            0.5,
            reported=float(reported),
            recomputed=float(true_res),
        ),
    ]
