"""Golden convergence regression for the canonical Aniso40-scaled solve.

The committed record in ``tests/golden/`` freezes the convergence
signature (outer iterations, per-level GCR work, final residual) of the
deterministic solve the ``aniso40_solve`` fixture runs.  A perf refactor
that changes these numbers beyond the comparator's slack fails here —
regenerate deliberately with ``pytest --regen-golden`` and commit the
diff if the change is intended.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.telemetry import read_document, write_document
from repro.verify.golden import SCHEMA, compare_golden, golden_record

pytestmark = pytest.mark.verify

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
GOLDEN_PATH = GOLDEN_DIR / "aniso40-scaled.json"
TOL = 5e-6


@pytest.fixture()
def fresh_record(aniso40_solve):
    ds, _solver, result = aniso40_solve
    return golden_record(result, subject=ds.label, tol=TOL)


def test_golden_record_matches(fresh_record, request):
    if request.config.getoption("--regen-golden"):
        path = write_document(GOLDEN_PATH, fresh_record)
        pytest.skip(f"golden record regenerated at {path}")
    assert GOLDEN_PATH.exists(), (
        f"no golden record at {GOLDEN_PATH}; create it with "
        f"`pytest {__file__} --regen-golden`"
    )
    golden = read_document(GOLDEN_PATH)
    problems = compare_golden(fresh_record, golden)
    assert not problems, "convergence drifted from golden record:\n- " + "\n- ".join(
        problems
    )


def test_record_shape(fresh_record):
    assert fresh_record["schema"] == SCHEMA
    assert fresh_record["converged"] is True
    assert set(fresh_record["per_level_gcr_iters"]) == {"0", "1", "2"}
    assert fresh_record["final_residual"] <= TOL


class TestComparator:
    """The comparator itself must both accept slack and catch drift."""

    BASE = {
        "schema": SCHEMA,
        "subject": "x",
        "tol": 1e-6,
        "converged": True,
        "iterations": 10,
        "final_residual": 5e-7,
        "per_level_gcr_iters": {"0": 10, "1": 12, "2": 40},
    }

    def test_identical_records_match(self):
        assert compare_golden(dict(self.BASE), dict(self.BASE)) == []

    def test_small_drift_tolerated(self):
        moved = dict(self.BASE, iterations=11, final_residual=9e-7)
        moved["per_level_gcr_iters"] = {"0": 11, "1": 11, "2": 42}
        assert compare_golden(moved, self.BASE) == []

    def test_iteration_blowup_caught(self):
        worse = dict(self.BASE, iterations=20)
        assert any("iterations" in p for p in compare_golden(worse, self.BASE))

    def test_convergence_loss_caught(self):
        worse = dict(self.BASE, converged=False, final_residual=1e-3)
        problems = compare_golden(worse, self.BASE)
        assert any("converged" in p for p in problems)
        assert any("residual" in p for p in problems)

    def test_level_structure_change_caught(self):
        worse = dict(self.BASE, per_level_gcr_iters={"0": 10, "1": 12})
        assert any("levels" in p for p in compare_golden(worse, self.BASE))
