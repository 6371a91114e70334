"""The committed golden record against the canonical solve.

The golden record freezes the canonical Aniso40-scaled solve's
convergence signature.  Here it must exist where the regression suite
looks for it, and the canonical solve of this session — the one the
shared ``aniso40_solve`` fixture runs for the golden-regression and
verify-registry tests — must still reproduce it.
"""

from __future__ import annotations

import json
import pathlib

from repro.verify.golden import compare_golden, golden_record

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "aniso40-scaled.json"
TOL = 5e-6


def test_golden_exists():
    assert GOLDEN_PATH.exists(), (
        f"no golden record at {GOLDEN_PATH}; create it with "
        f"`pytest tests/test_golden_regression.py --regen-golden`"
    )


def test_golden_record_is_baseline(aniso40_solve):
    """The committed record itself matches what the canonical solve
    just did."""
    ds, _solver, result = aniso40_solve
    golden = json.loads(GOLDEN_PATH.read_text())
    record = golden_record(result, subject=ds.label, tol=TOL)
    assert not compare_golden(record, golden)
