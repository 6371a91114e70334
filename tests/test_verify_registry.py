"""Pytest bridge for the numerical-invariant registry.

Every registered invariant runs as its own parametrized test against
the canonical Aniso40-scaled context, so a broken identity names itself
in the test report.  The negative tests then *break* an operator on
purpose (perturbing the prolongator basis) and require the registry to
catch it — a verifier that cannot fail is not verifying anything.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import telemetry
from repro.mg.hierarchy import MultigridHierarchy
from repro.mg.params import LevelParams, MGParams
from repro.verify import VerifyContext, run_invariant, run_registry
from repro.verify import get as get_invariant
from repro.verify import names as invariant_names

pytestmark = pytest.mark.verify


@pytest.fixture(scope="session")
def aniso_ctx(aniso40_solve):
    """A VerifyContext sharing the session's canonical hierarchy."""
    ds, solver, _result = aniso40_solve
    return VerifyContext(
        op=solver.hierarchy.levels[0].op,
        params=solver.params,
        hierarchy=solver.hierarchy,
        subject=ds.label,
        solve_tol=ds.target_residuum,
    )


class TestRegistryOnAniso40:
    @pytest.mark.parametrize("name", invariant_names())
    def test_invariant_passes(self, aniso_ctx, name):
        inv = get_invariant(name)
        reports = run_invariant(inv, aniso_ctx)
        assert reports, f"invariant {name} produced no report"
        for r in reports:
            assert r.passed, (
                f"{r.name}: residual {r.residual:.3e} > tol {r.tolerance:.3e}"
                f" ({r.error or 'no error'})"
            )
            assert r.severity == inv.severity
            assert r.duration_s >= 0.0

    def test_full_report_document(self, aniso_ctx, tmp_path):
        report = run_registry(aniso_ctx)
        assert report.all_passed and report.critical_passed
        assert not report.failures()
        path = tmp_path / "verify.json"
        report.write(path)
        doc = json.loads(path.read_text())
        assert doc["schema"] == "repro.verify/v1"
        assert doc["all_passed"] is True
        assert doc["n_checks"] == len(report.reports) >= 10
        assert doc["meta"]["subject"] == aniso_ctx.subject

    def test_max_needs_caps_expense(self, aniso_ctx):
        report = run_registry(aniso_ctx, max_needs="gauge")
        names = {r.name.split(".", 1)[0] for r in report.reports}
        assert names == {"gauge"}

    def test_unknown_invariant_is_loud(self, aniso_ctx):
        with pytest.raises(KeyError, match="no-such-check"):
            run_registry(aniso_ctx, names_filter=["no-such-check"])


# -- negative: a broken operator must be caught -------------------------

@pytest.fixture(scope="module")
def tiny_hierarchy(wilson448):
    params = MGParams(
        levels=[LevelParams(block=(2, 2, 2, 4), n_null=4, null_iters=10)],
        outer_tol=1e-6,
    )
    return MultigridHierarchy.build(
        wilson448, params, np.random.default_rng(5)
    )


def _ctx_for(hierarchy):
    return VerifyContext(hierarchy=hierarchy, subject="tiny", n_probes=1)


class TestBrokenOperatorIsCaught:
    def test_intact_hierarchy_passes(self, tiny_hierarchy):
        ctx = _ctx_for(tiny_hierarchy)
        for name in ("transfer.orthonormality", "coarse.galerkin"):
            for r in run_invariant(get_invariant(name), ctx):
                assert r.passed

    def test_perturbed_prolongator_fails(self, tiny_hierarchy):
        transfer = tiny_hierarchy.levels[0].transfer
        basis = transfer._basis
        saved = basis.copy()
        try:
            basis += 1e-3 * np.random.default_rng(6).standard_normal(basis.shape)
            ortho = run_invariant(
                get_invariant("transfer.orthonormality"), _ctx_for(tiny_hierarchy)
            )
            galerkin = run_invariant(
                get_invariant("coarse.galerkin"), _ctx_for(tiny_hierarchy)
            )
        finally:
            basis[...] = saved
        assert any(not r.passed for r in ortho), "orthonormality check missed it"
        assert any(not r.passed for r in galerkin), "Galerkin check missed it"

    def test_crashing_check_reports_failure(self, tiny_hierarchy):
        # a context with no operator makes operator-tier checks raise;
        # that must surface as a failed report, not an exception
        ctx = VerifyContext(subject="empty")
        reports = run_invariant(get_invariant("dirac.gamma5_hermiticity"), ctx)
        assert len(reports) == 1
        assert not reports[0].passed
        assert reports[0].error


    def test_every_verdict_is_booked_into_telemetry(self, tiny_hierarchy):
        telemetry.enable()
        telemetry.reset()
        try:
            reports = run_invariant(
                get_invariant("transfer.orthonormality"), _ctx_for(tiny_hierarchy)
            )
            checks = [
                m for m in telemetry.get_registry().collect(kind="counter")
                if m.name == "verify.checks"
            ]
        finally:
            telemetry.disable()
            telemetry.reset()
        assert sum(m.value for m in checks) == len(reports)
