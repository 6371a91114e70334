"""Precision is the dtype of the data.

Two rules make ``Precision.SINGLE`` a real single-precision
preconditioner (DESIGN.md section 18), and this file pins both:

* operators, red-black systems and transfers are **dtype-preserving** —
  a complex64 field comes back complex64, computed on complex64 tables,
  within single-precision rounding of the complex128 oracle;
* the components that **own a precision** (smoothers, the K-cycle) cast
  at their own boundary and return the caller's dtype, so a default
  cycle never lets a complex128 field cross an operator, ``DOUBLE`` is
  bit for bit the all-double arithmetic, and a ``SINGLE`` and a
  ``DOUBLE`` preconditioner do the same work on every level.
"""

from __future__ import annotations

import dataclasses
import warnings

import numpy as np
import pytest

from repro import precision as precision_mod
from repro.coarse import coarsen_operator
from repro.dirac import SchurOperator, SchurReference, WilsonCloverOperator
from repro.dirac.mrhs import BatchedCoarseSchur
from repro.dirac.wilson_kernel import SiteFastestSchur
from repro.gauge import disordered_field
from repro.lattice import Blocking, Lattice
from repro.mg import (
    KCyclePreconditioner,
    MultigridHierarchy,
    MultigridSolver,
    SchurMRSmoother,
)
from repro.precision import Precision
from repro.solvers import PrecisionOperator
from repro.transfer import Transfer

C64, C128 = np.dtype(np.complex64), np.dtype(np.complex128)
RTOL_SINGLE = 5e-6  # complex64 result vs the complex128 oracle
K = 3


def _cnormal(rng, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _rel_err(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


def _with_precisions(params, precision: Precision):
    return dataclasses.replace(
        params, smoother_precision=precision, coarse_precision=precision
    )


# ----------------------------------------------------------------------
# (a) every entry point preserves the dtype it is handed
# ----------------------------------------------------------------------
class Kernels:
    """A fine operator, its coarse image and deterministic fields."""

    def __init__(self):
        lat = Lattice((4, 4, 4, 8))
        gauge = disordered_field(lat, np.random.default_rng(31), 0.5)
        self.op = op = WilsonCloverOperator(gauge, mass=-0.2, c_sw=1.0, anisotropy=2.5)
        rng = np.random.default_rng(32)
        fine = (lat.volume, 4, 3)
        self.transfer = Transfer(
            Blocking(lat, (2, 2, 2, 2)), [_cnormal(rng, fine) for _ in range(4)]
        )
        self.coarse = coarsen_operator(op, self.transfer)
        coarse = (self.coarse.lattice.volume, self.coarse.ns, self.coarse.nc)
        self.v, self.vs = _cnormal(rng, fine), _cnormal(rng, (K, *fine))
        self.vc, self.vcs = _cnormal(rng, coarse), _cnormal(rng, (K, *coarse))
        self.schur = SchurOperator(op)
        # the zero-padded oracle, on the fine and the coarse operator
        self.schur_reference = SchurReference(op)
        self.coarse_schur = SchurReference(self.coarse)
        self.batched_coarse_schur = BatchedCoarseSchur(self.coarse)
        self.even, self.coarse_even = lat.even_sites, self.coarse.lattice.even_sites


#: name -> callable(kernels, cast); ``cast`` brings a stored complex128
#: field to the dtype under test.  The production red-black systems take
#: stacks; the single-field red-black entry points are the oracle's
ENTRY_POINTS = {
    "wilson.apply": lambda p, c: p.op.apply(c(p.v)),
    "wilson.apply_multi": lambda p, c: p.op.apply_multi(c(p.vs)),
    "wilson.apply_hopping": lambda p, c: p.op.apply_hopping(c(p.v)),
    "wilson.apply_diag": lambda p, c: p.op.apply_diag(c(p.v)),
    "wilson.apply_diag_inv": lambda p, c: p.op.apply_diag_inv(c(p.v)),
    "wilson.apply_hop": lambda p, c: p.op.apply_hop(2, -1, c(p.v)),
    "coarse.apply": lambda p, c: p.coarse.apply(c(p.vc)),
    "coarse.apply_multi": lambda p, c: p.coarse.apply_multi(c(p.vcs)),
    "coarse.apply_hopping": lambda p, c: p.coarse.apply_hopping(c(p.vc)),
    "coarse.apply_diag": lambda p, c: p.coarse.apply_diag(c(p.vc)),
    "coarse.apply_diag_inv": lambda p, c: p.coarse.apply_diag_inv(c(p.vc)),
    "schur.lift": lambda p, c: p.schur_reference.lift(c(p.v[p.even])),
    "schur.apply": lambda p, c: p.schur_reference.apply(c(p.v[p.even])),
    "schur.apply_multi": lambda p, c: p.schur.apply_multi(c(p.vs[:, p.even])),
    "schur.prepare_source": lambda p, c: p.schur_reference.prepare_source(c(p.v)),
    "schur.prepare_multi": lambda p, c: p.schur.prepare_multi(c(p.vs)),
    "schur.reconstruct": lambda p, c: p.schur_reference.reconstruct(
        c(p.v[p.even]), c(p.v)
    ),
    "schur.reconstruct_multi": lambda p, c: p.schur.reconstruct_multi(
        c(p.vs[:, p.even]), c(p.vs)
    ),
    "coarse_schur.apply": lambda p, c: p.coarse_schur.apply(c(p.vc[p.coarse_even])),
    "coarse_schur.apply_multi": lambda p, c: p.coarse_schur.apply_multi(
        c(p.vcs[:, p.coarse_even])
    ),
    "coarse_schur.prepare_source": lambda p, c: p.coarse_schur.prepare_source(c(p.vc)),
    "coarse_schur.reconstruct": lambda p, c: p.coarse_schur.reconstruct(
        c(p.vc[p.coarse_even]), c(p.vc)
    ),
    "batched_coarse_schur.apply_multi": lambda p, c: p.batched_coarse_schur.apply_multi(
        c(p.vcs[:, p.coarse_even])
    ),
    "batched_coarse_schur.prepare_multi": lambda p, c: (
        p.batched_coarse_schur.prepare_multi(c(p.vcs))
    ),
    "batched_coarse_schur.reconstruct_multi": lambda p, c: (
        p.batched_coarse_schur.reconstruct_multi(c(p.vcs[:, p.coarse_even]), c(p.vcs))
    ),
    "transfer.restrict": lambda p, c: p.transfer.restrict(c(p.v)),
    "transfer.prolong": lambda p, c: p.transfer.prolong(c(p.vc)),
    "transfer.restrict_multi": lambda p, c: p.transfer.restrict_multi(c(p.vs)),
    "transfer.prolong_multi": lambda p, c: p.transfer.prolong_multi(c(p.vcs)),
}


@pytest.fixture(scope="module")
def kernels():
    return Kernels()


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_entry_point_preserves_dtype(kernels, entry):
    fn = ENTRY_POINTS[entry]
    # the oracle sees the same (complex64-representable) input in double
    rounded = lambda field: field.astype(C64).astype(C128)  # noqa: E731
    want = fn(kernels, rounded)
    assert want.dtype == C128
    got = fn(kernels, lambda field: field.astype(C64))
    assert got.dtype == C64
    assert got.shape == want.shape
    assert _rel_err(got, want) <= RTOL_SINGLE


@pytest.mark.parametrize("owned", (Precision.SINGLE, Precision.DOUBLE, Precision.HALF))
@pytest.mark.parametrize("handed", (C64, C128), ids=("complex64", "complex128"))
def test_smoothers_return_the_callers_dtype(kernels, owned, handed):
    """Whatever precision a smoother owns, the caller gets its own dtype
    back; SINGLE/DOUBLE results agree to single-precision rounding."""
    p = kernels
    for op, field, stack in ((p.op, p.v, p.vs), (p.coarse, p.vc, p.vcs)):
        want = SchurMRSmoother(op, precision=Precision.DOUBLE).apply(field)
        got = SchurMRSmoother(op, precision=owned).apply(field.astype(handed))
        assert got.dtype == handed
        many = SchurMRSmoother(op, precision=owned).apply(stack.astype(handed))
        assert many.dtype == handed
        if owned is not Precision.HALF:
            assert _rel_err(got, want) <= RTOL_SINGLE
            assert _rel_err(many[0], SchurMRSmoother(op).apply(stack[0])) <= RTOL_SINGLE


def test_precision_operator_is_a_real_cast(kernels):
    """SINGLE: astype in, native complex64 apply, caller's dtype out."""
    p = kernels
    wrapped = PrecisionOperator(p.op, Precision.SINGLE)
    out = wrapped.apply(p.v)
    assert out.dtype == C128
    assert np.array_equal(out, p.op.apply(p.v.astype(C64)).astype(C128))
    assert wrapped.apply(p.v.astype(C64)).dtype == C64
    many = wrapped.apply_multi(p.vs)
    assert many.dtype == C128
    assert np.array_equal(many, p.op.apply_multi(p.vs.astype(C64)).astype(C128))
    # HALF: the same complex64 compute between two 16-bit storage roundings
    half = PrecisionOperator(p.op, Precision.HALF)
    assert half.apply(p.v).dtype == C128
    assert 1e-6 < _rel_err(half.apply(p.v), p.op.apply(p.v)) < 1e-3
    assert np.array_equal(half.apply_multi(p.vs)[1], half.apply(p.vs[1]))


# ----------------------------------------------------------------------
# one Aniso40-scaled null space under a SINGLE and a DOUBLE preconditioner
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def twins(aniso40_solve):
    """``(ds, single hierarchy, double hierarchy, 8 right-hand sides)``:
    the session's default (single) hierarchy and an all-double one
    rebuilt from the same null vectors."""
    ds, solver, _ = aniso40_solve
    single = solver.hierarchy
    assert single.params.coarse_precision is Precision.SINGLE
    assert single.params.smoother_precision is Precision.SINGLE
    op = WilsonCloverOperator(ds.gauge(), **ds.operator_kwargs())
    double = MultigridHierarchy.build(
        op,
        _with_precisions(single.params, Precision.DOUBLE),
        np.random.default_rng(1),
        null_vectors=single.export_null_vectors(),
    )
    bs = _cnormal(np.random.default_rng(41), (8, op.lattice.volume, 4, 3))
    return ds, single, double, bs


def test_setup_relaxes_in_the_cycle_precision_and_returns_double(twins):
    """The setup reads ``coarse_precision`` (the cycle's) and nothing
    else: the smoothers' precision does not reach it, a ``DOUBLE`` cycle
    gets the all-double setup, and a ``SINGLE`` one relaxes the fine
    grid in complex64 — a different complex128 basis of the same quality,
    within single-precision distance of the double one this early."""
    ds, single, _, _ = twins
    short = [dataclasses.replace(lp, null_iters=8) for lp in single.params.levels]
    op = single.levels[0].op

    def built(smoother: Precision, coarse: Precision) -> MultigridHierarchy:
        params = dataclasses.replace(
            single.params, levels=short, smoother_precision=smoother, coarse_precision=coarse
        )
        # (the 1e-3 below is a property of the draw: it fails on 2 of the
        # seeds 5..14 under the red-black relaxation — 9 and 12 — as it did
        # on 2 under the full-system one — 6 and 10; 11 holds under both)
        return MultigridHierarchy.build(op, params, np.random.default_rng(11))

    double = built(Precision.DOUBLE, Precision.DOUBLE)
    for other in (built(Precision.SINGLE, Precision.DOUBLE), built(Precision.SINGLE, Precision.SINGLE)):
        exact = other.params.coarse_precision is Precision.DOUBLE
        for a, b in zip(other.export_null_vectors(), double.export_null_vectors()):
            for va, vb in zip(a, b):
                assert va.dtype == C128
                assert np.linalg.norm(va) == pytest.approx(1.0, abs=1e-14)
                assert np.array_equal(va, vb) if exact else 0 < _rel_err(va, vb) < 1e-3
        x, y = other.levels[-1].op, double.levels[-1].op
        assert x.x_blocks.dtype == C128
        assert np.array_equal(x.x_blocks, y.x_blocks) == exact
        assert np.array_equal(x.hop_blocks, y.hop_blocks) == exact


def test_single_and_double_do_the_same_work_sequentially(twins):
    """(b) same outer iterations, same counters on every level."""
    ds, single, double, bs = twins
    tol = ds.target_residuum
    for b in bs[:4]:
        got = MultigridSolver.from_hierarchy(single).solve(b, tol=tol)
        want = MultigridSolver.from_hierarchy(double).solve(b, tol=tol)
        assert got.converged and want.converged
        assert got.iterations == want.iterations
        assert got.telemetry.level_stats == want.telemetry.level_stats
        assert got.x.dtype == C128
        assert _rel_err(got.x, want.x) <= 10 * tol


@pytest.mark.parametrize("k", (1, 3, 8))
def test_single_and_double_do_the_same_work_batched(twins, k):
    ds, single, double, bs = twins
    tol = ds.target_residuum
    got = MultigridSolver.from_hierarchy(single).solve_multi(bs[:k], tol=tol)
    want = MultigridSolver.from_hierarchy(double).solve_multi(bs[:k], tol=tol)
    assert [r.iterations for r in got] == [r.iterations for r in want]
    assert all(r.converged for r in got)
    assert got[0].telemetry.level_stats == want[0].telemetry.level_stats
    assert all(r.x.dtype == C128 for r in got)


# ----------------------------------------------------------------------
# (c) no complex128 field inside a default cycle
# ----------------------------------------------------------------------
class DtypeSpy:
    """Records the dtypes entering and leaving wrapped bound methods."""

    def __init__(self, monkeypatch):
        self.monkeypatch = monkeypatch
        self.seen: dict[str, set] = {}

    def watch(self, owner, method: str, label: str) -> None:
        fn = getattr(owner, method)
        seen = self.seen.setdefault(f"{label}.{method}", set())

        def spied(*args, **kwargs):
            out = fn(*args, **kwargs)
            seen.update(a.dtype for a in args if isinstance(a, np.ndarray))
            # ``smoother.apply(r, hold=True)`` returns the defect and
            # the held iterate, a tuple of arrays itself
            flat = [out]
            while any(isinstance(o, tuple) for o in flat):
                flat = [x for o in flat for x in (o if isinstance(o, tuple) else (o,))]
            seen.update(o.dtype for o in flat if isinstance(o, np.ndarray))
            return out

        self.monkeypatch.setattr(owner, method, spied)

    def watch_levels(self, hierarchy) -> None:
        for lev in hierarchy.levels:
            for method in (
                "apply", "apply_multi", "apply_hopping", "apply_diag", "apply_diag_inv"
            ):
                self.watch(lev.op, method, f"L{lev.index}.op")
            if lev.transfer is not None:
                for method in ("restrict", "prolong", "restrict_multi", "prolong_multi"):
                    self.watch(lev.transfer, method, f"L{lev.index}.transfer")


def _fresh_default_hierarchy(twins):
    """The session null space on a new operator: no table of any dtype
    has been built yet — the Galerkin product builds no kernel."""
    ds, single, _, _ = twins
    op = WilsonCloverOperator(ds.gauge(), **ds.operator_kwargs())
    hierarchy = MultigridHierarchy.build(
        op, single.params, np.random.default_rng(1),
        null_vectors=single.export_null_vectors(),
    )
    assert not getattr(op, "_wilson_kernel", None)
    return hierarchy


def test_no_complex128_field_crosses_a_default_cycle(twins, monkeypatch):
    hierarchy = _fresh_default_hierarchy(twins)
    r = twins[3][0]
    spy = DtypeSpy(monkeypatch)
    spy.watch_levels(hierarchy)
    for lev in hierarchy.levels[:-1]:
        spy.watch(lev.smoother, "apply", f"L{lev.index}.smoother")
    z = KCyclePreconditioner(hierarchy, level=0).apply(r)
    assert z.dtype == C128  # the caller's dtype
    used = {name: dtypes for name, dtypes in spy.seen.items() if dtypes}
    assert {"L1.op.apply_multi", "L0.smoother.apply",
            "L1.smoother.apply", "L0.transfer.restrict_multi",
            "L1.transfer.prolong_multi"} <= set(used)
    # a red-black cycle applies no operator of its own: level 1's
    # applications are its GCR's, the fine operator is not touched
    assert "L0.op.apply_multi" not in used
    assert all(dtypes == {C64} for dtypes in used.values()), used
    # the fine-grid red-black system talks to the kernel directly: only
    # the complex64 kernel was ever asked for
    assert set(hierarchy.levels[0].op._wilson_kernel) == {C64}  # noqa: SLF001


def test_no_complex128_field_crosses_a_default_batched_cycle(twins, monkeypatch):
    hierarchy = _fresh_default_hierarchy(twins)
    rs = twins[3][:K]
    pre = KCyclePreconditioner(hierarchy)
    spy = DtypeSpy(monkeypatch)
    spy.watch_levels(hierarchy)
    smoothers = [lev.smoother for lev in hierarchy.levels[:-1]]
    # the fine system is applied on its native (site-fastest) stack
    spy.watch(SiteFastestSchur, "apply_multi", "L0.schur")
    for level, smoother in enumerate(smoothers[1:], start=1):
        spy.watch(smoother.schur, "apply_multi", f"L{level}.schur")
    # the coarsest red-black system belongs to its level and is solved directly
    coarsest = hierarchy.levels[-1].schur
    assert pre._inner._solve_op is coarsest  # noqa: SLF001
    for method in ("prepare_multi", "solve_multi", "reconstruct_multi"):
        spy.watch(coarsest, method, "L2.schur")
    zs = pre.apply(rs)
    assert zs.dtype == C128
    used = {name: dtypes for name, dtypes in spy.seen.items() if dtypes}
    assert {"L1.op.apply_multi", "L0.schur.apply_multi",
            "L1.schur.apply_multi", "L2.schur.prepare_multi", "L2.schur.solve_multi",
            "L2.schur.reconstruct_multi", "L0.transfer.restrict_multi"} <= set(used)
    assert all(dtypes == {C64} for dtypes in used.values()), used
    assert set(hierarchy.levels[0].op._wilson_kernel) == {C64}  # noqa: SLF001
    for smoother in smoothers[1:]:
        assert set(smoother.schur._tables) == {C64}  # noqa: SLF001
    assert set(coarsest._tables) == set(coarsest._factors) == {C64}  # noqa: SLF001


# ----------------------------------------------------------------------
# (d) the outer solver sets the accuracy, (e) the scale of b is irrelevant
# ----------------------------------------------------------------------
def test_tight_outer_tolerance_converges_with_the_single_preconditioner(twins):
    _, single, _, bs = twins
    op, b = single.levels[0].op, bs[5]
    result = MultigridSolver.from_hierarchy(single).solve(b, tol=1e-12)
    assert result.converged
    assert np.linalg.norm(b - op.apply(result.x)) / np.linalg.norm(b) <= 1e-12


@pytest.mark.parametrize("scale", (1e-30, 1e30))
def test_scale_covariance(twins, scale):
    """The level-0 cast-in normalises the residual, so float32 range
    never sees the scale of ``b``: same iterations, same work, no
    overflow or underflow on the way."""
    ds, single, _, bs = twins
    tol = ds.target_residuum
    solver = MultigridSolver.from_hierarchy(single)
    want = solver.solve(bs[6], tol=tol)
    many_want = solver.solve_multi(bs[5:8], tol=tol)
    with warnings.catch_warnings(), np.errstate(over="warn", under="warn"):
        warnings.simplefilter("error")
        got = solver.solve(bs[6] * scale, tol=tol)
        many = solver.solve_multi(bs[5:8] * scale, tol=tol)
    assert got.converged
    assert got.iterations == want.iterations
    assert got.telemetry.level_stats == want.telemetry.level_stats
    assert _rel_err(got.x / scale, want.x) <= 10 * tol
    assert [r.iterations for r in many] == [r.iterations for r in many_want]


# ----------------------------------------------------------------------
# (g) DOUBLE is the all-double arithmetic, untouched
# ----------------------------------------------------------------------
def test_double_params_run_the_all_double_arithmetic(twins, monkeypatch):
    """With ``DOUBLE`` precisions nothing is cast, normalised or copied:
    the boundary hands fields through by identity, no reduced table and
    no complex64 kernel is ever built, and ``x`` is bit for bit the
    solve with the boundary removed (the parent commit's arithmetic;
    DESIGN.md section 18 records the digests checked against it)."""
    ds, single, _, bs = twins
    op = WilsonCloverOperator(ds.gauge(), **ds.operator_kwargs())
    double = MultigridHierarchy.build(
        op,
        _with_precisions(single.params, Precision.DOUBLE),
        np.random.default_rng(1),
        null_vectors=single.export_null_vectors(),
    )
    b, tol = bs[7], ds.target_residuum
    field = bs[0]
    entered, scale = precision_mod.enter_precision(field, Precision.DOUBLE)
    assert entered is field and scale is None
    assert precision_mod.leave_precision(field, field, None) is field

    got = MultigridSolver.from_hierarchy(double).solve(b, tol=tol)
    many = MultigridSolver.from_hierarchy(double).solve_multi(bs[:K], tol=tol)
    owners = [lev.op for lev in double.levels]
    owners += [lev.transfer for lev in double.levels[:-1]]
    assert not any(hasattr(owner, "_reduced") for owner in owners)
    assert set(op._wilson_kernel) == {C128}  # noqa: SLF001

    for module in ("repro.mg.kcycle", "repro.mg.smoother"):
        monkeypatch.setattr(
            f"{module}.enter_precision", lambda stack, precision: (stack, None)
        )
        monkeypatch.setattr(
            f"{module}.leave_precision", lambda result, caller, scale: result
        )
    want = MultigridSolver.from_hierarchy(double).solve(b, tol=tol)
    assert got.iterations == want.iterations
    assert np.array_equal(got.x, want.x)
    many_want = MultigridSolver.from_hierarchy(double).solve_multi(bs[:K], tol=tol)
    for r, w in zip(many, many_want):
        assert np.array_equal(r.x, w.x)


# ----------------------------------------------------------------------
# (h) a setup relaxed in the cycle's precision is as good, and a
# well-conditioned function of its fine-grid null vectors
# ----------------------------------------------------------------------
def _aniso40_build(op, params, precision: Precision, seed: int) -> MultigridHierarchy:
    return MultigridHierarchy.build(
        op, dataclasses.replace(params, coarse_precision=precision),
        np.random.default_rng(seed),
    )


@pytest.mark.parametrize("seed", range(1, 7))
def test_single_relaxed_setup_solves_like_a_double_relaxed_one(twins, seed):
    """Outer iterations within one of the all-double setup's on every
    setup seed, and the setup-output invariants green on both."""
    from repro.verify import VerifyContext, run_registry

    ds, single, _, bs = twins
    op, tol = single.levels[0].op, ds.target_residuum
    invariants = ["transfer.orthonormality", "coarse.galerkin",
                  "coarse.gamma5_hermiticity", "dirac.gamma5_hermiticity"]
    iterations = {}
    for precision in (Precision.SINGLE, Precision.DOUBLE):
        hierarchy = _aniso40_build(op, single.params, precision, seed)
        ctx = VerifyContext(hierarchy=hierarchy, n_probes=1)
        reports = run_registry(ctx, invariants).reports
        for invariant in invariants:
            assert any(rep.name.startswith(invariant) for rep in reports)
        assert all(rep.passed for rep in reports)
        result = MultigridSolver.from_hierarchy(hierarchy).solve(bs[0], tol=tol)
        assert result.converged
        iterations[precision] = result.iterations
    assert abs(iterations[Precision.SINGLE] - iterations[Precision.DOUBLE]) <= 1


def test_fresh_builds_from_one_seed_report_identical_coarsest_counters(twins):
    ds, single, _, bs = twins
    op, tol = single.levels[0].op, ds.target_residuum
    stats = []
    for _ in range(2):
        hierarchy = _aniso40_build(op, single.params, Precision.SINGLE, seed=3)
        result = MultigridSolver.from_hierarchy(hierarchy).solve(bs[1], tol=tol)
        stats.append(result.telemetry.level_stats)
    assert stats[0] == stats[1]
    # the coarsest level is solved directly: what it still counts are the
    # source preparations and reconstructions, one pair per level-1 cycle
    assert stats[0][2]["op_applies"] == 2 * stats[0][1]["restricts"] > 0


def test_coarse_null_vectors_are_a_smooth_function_of_the_fine_ones(twins):
    """A 1e-11 relative change of the level-0 null vectors — what a
    reassociated fine-grid reduction does to them — moves the level-1
    null vectors by less than 1e-6.  (Relaxed to 1e-10, as they were,
    the level-1 solve *converges* on this lattice and its error is
    solver round-off: the same change moved them by 2-15%.)"""
    from repro.mg import generate_null_vectors

    _, single, _, _ = twins
    fine, lp0, lp1 = single.levels[0].op, *single.params.levels
    rng = np.random.default_rng(99)
    nulls = single.levels[0].null_vectors
    nudged = []
    for vec in nulls:
        noise = _cnormal(rng, vec.shape)
        nudged.append(vec + 1e-11 * np.linalg.norm(vec) / np.linalg.norm(noise) * noise)
    relaxed = []
    for vectors in (nulls, nudged):
        coarse = coarsen_operator(fine, Transfer(Blocking(fine.lattice, lp0.block), vectors))
        relaxed.append(
            generate_null_vectors(
                coarse, lp1.n_null, np.random.default_rng(5), lp1.null_iters, dtype=C64
            )
        )
    moved = max(_rel_err(a, b) for a, b in zip(*relaxed))
    assert 0 < moved < 1e-6
    # ... because the relaxation stopped at the floor, well short of the cap
    from repro.mg.setup import relaxation_floor

    assert relaxation_floor(C64) == pytest.approx(1e3 * np.finfo(np.float32).eps)
    assert relaxation_floor(C128) == 1e-10
