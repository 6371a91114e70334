"""Golden convergence regression for the block-GCR outer solve.

Freezes the per-RHS convergence signature (iteration counts, shared
matvec-batch count, final residuals) of a deterministic K=3 block-GCR
solve on the Aniso40-scaled dataset, preconditioned by the full-depth
K-cycle.  A change to the block solver or any batched level
that moves these numbers beyond the comparator's slack fails here —
regenerate deliberately with ``pytest --regen-golden`` and commit the
diff if the change is intended.
"""

from __future__ import annotations

import pathlib

import numpy as np
import pytest

from repro.solvers import block_gcr
from repro.verify.golden import (
    BLOCK_SCHEMA,
    block_golden_record,
    compare_block_golden,
    load_golden,
    write_golden,
)

pytestmark = [pytest.mark.verify, pytest.mark.mrhs]

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
GOLDEN_PATH = GOLDEN_DIR / "block-gcr-aniso40.json"
TOL = 5e-6
N_RHS = 3


@pytest.fixture(scope="module")
def block_solve(aniso40_solve):
    """Deterministic block-GCR solve sharing the session hierarchy."""
    ds, solver, _ = aniso40_solve
    rng = np.random.default_rng(42)
    shape = (N_RHS, ds.lattice().volume, 4, 3)
    bs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    results = block_gcr(
        solver.hierarchy.levels[0].op,
        bs,
        tol=TOL,
        maxiter=solver.params.outer_maxiter,
        nkrylov=solver.params.outer_nkrylov,
        preconditioner=solver.preconditioner,
    )
    return ds, bs, results


@pytest.fixture()
def fresh_record(block_solve):
    ds, _bs, results = block_solve
    return block_golden_record(results, subject=ds.label, tol=TOL)


def test_block_golden_matches(fresh_record, request):
    if request.config.getoption("--regen-golden"):
        path = write_golden(GOLDEN_PATH, fresh_record)
        pytest.skip(f"block golden record regenerated at {path}")
    assert GOLDEN_PATH.exists(), (
        f"no golden record at {GOLDEN_PATH}; create it with "
        f"`pytest {__file__} --regen-golden`"
    )
    golden = load_golden(GOLDEN_PATH)
    problems = compare_block_golden(fresh_record, golden)
    assert not problems, (
        "block convergence drifted from golden record:\n- "
        + "\n- ".join(problems)
    )


def test_record_shape(fresh_record):
    assert fresh_record["schema"] == BLOCK_SCHEMA
    assert fresh_record["n_rhs"] == N_RHS
    assert fresh_record["all_converged"] is True
    assert len(fresh_record["iterations"]) == N_RHS
    assert all(r <= TOL for r in fresh_record["final_residuals"])
    # the whole point of the block solve: one shared space, so the
    # batch count cannot exceed the worst per-RHS iteration count
    assert fresh_record["matvec_batches"] <= max(fresh_record["iterations"]) + 1


class TestComparator:
    """The block comparator must accept slack and catch real drift."""

    BASE = {
        "schema": BLOCK_SCHEMA,
        "subject": "x",
        "tol": 1e-6,
        "n_rhs": 3,
        "all_converged": True,
        "iterations": [10, 11, 12],
        "matvec_batches": 12,
        "final_residuals": [5e-7, 6e-7, 7e-7],
    }

    def test_identical_records_match(self):
        assert compare_block_golden(dict(self.BASE), dict(self.BASE)) == []

    def test_small_drift_tolerated(self):
        moved = dict(
            self.BASE,
            iterations=[11, 12, 13],
            matvec_batches=13,
            final_residuals=[6e-7, 5e-7, 8e-7],
        )
        assert compare_block_golden(moved, self.BASE) == []

    def test_iteration_blowup_caught(self):
        moved = dict(self.BASE, iterations=[10, 11, 30], matvec_batches=30)
        assert compare_block_golden(moved, self.BASE)

    def test_batch_size_mismatch_caught(self):
        moved = dict(self.BASE, n_rhs=4, iterations=[10, 11, 12, 12],
                     final_residuals=[5e-7] * 4)
        assert compare_block_golden(moved, self.BASE)

    def test_convergence_loss_caught(self):
        moved = dict(self.BASE, all_converged=False)
        assert compare_block_golden(moved, self.BASE)

    def test_residual_blowup_caught(self):
        moved = dict(self.BASE, final_residuals=[5e-7, 6e-7, 9e-6])
        assert compare_block_golden(moved, self.BASE)
