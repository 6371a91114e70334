"""The traced tree of the canonical Aniso40-scaled problem, pinned.

``tests/golden/span-table-aniso40-scaled.json`` holds the span table
(:func:`repro.telemetry.span_table`: ``(level, name)`` -> count, flops,
bytes; no seconds) of one traced build of the ``aniso40_solve``
problem (24/24, setup seed 1) and of a K=1 and a K=3 solve on it.
Counts must match exactly and costs to 1e-12 relative: moving where a
span is opened, or what it books, shows here.  The record was made by
the code that opened its spans inside the numerics; the only rows it
lacks are :data:`SPLIT_CHILDREN`, what that code timed with a stopwatch
inside its parent span (``coarsen``'s ``hop_s`` / ``restrict_s``, the
coarsest factorisation's ``assemble_s`` / ``factor_s``) and a trace now
shows as child spans, costless.  Regenerate deliberately with
``pytest tests/test_span_table_golden.py --regen-golden``.
"""

from __future__ import annotations

import json
import pathlib

import numpy as np
import pytest

from repro import telemetry
from repro.dirac import WilsonCloverOperator
from repro.fields import SpinorField
from repro.mg import MultigridSolver
from repro.telemetry import get_tracer, span_table
from repro.workloads import SCALED_FOR_PAPER, mg_params_for

pytestmark = pytest.mark.telemetry

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "span-table-aniso40-scaled.json"
TOL = 5e-6

#: child spans in place of the in-body stopwatches the record predates
SPLIT_CHILDREN = {"coarsen.hop", "coarsen.restrict", "mg.coarsest.assemble", "mg.coarsest.lu"}


def _table() -> list[dict]:
    """The span table of everything traced since the last reset, as rows."""
    spans = [root.to_dict() for root in get_tracer().roots]
    telemetry.reset()
    return [
        {"level": level, "name": name, "count": row["count"],
         "flops": row["flops"], "bytes": row["bytes"]}
        for (level, name), row in span_table(spans).items()
    ]


def traced_tables() -> dict[str, list[dict]]:
    """One traced build, then a K=1 and a K=3 solve on it."""
    ds = SCALED_FOR_PAPER["Aniso40"]
    op = WilsonCloverOperator(ds.gauge(), **ds.operator_kwargs())
    params = mg_params_for(ds, "24/24")
    rhs = [
        SpinorField.random(ds.lattice(), rng=np.random.default_rng(seed)).data
        for seed in range(3)
    ]
    telemetry.reset()
    telemetry.enable()
    try:
        solver = MultigridSolver(op, params, np.random.default_rng(1))
        tables = {"build": _table()}
        solver.solve_multi(np.stack(rhs[:1]), tol=TOL)
        tables["solve_k1"] = _table()
        solver.solve_multi(np.stack(rhs), tol=TOL)
        tables["solve_k3"] = _table()
    finally:
        telemetry.disable()
        telemetry.reset()
    return tables


def _keyed(rows: list[dict]) -> dict[tuple[int, str], dict]:
    return {(row["level"], row["name"]): row for row in rows}


def test_traced_tree_matches_the_golden_span_table(request):
    fresh = traced_tables()
    if request.config.getoption("--regen-golden"):
        GOLDEN_PATH.write_text(json.dumps(fresh, indent=1) + "\n")
        pytest.skip(f"span table regenerated at {GOLDEN_PATH}")
    golden = json.loads(GOLDEN_PATH.read_text())
    assert set(fresh) == set(golden)
    for phase, rows in golden.items():
        want, got = _keyed(rows), _keyed(fresh[phase])
        for keyed in (want, got):
            split = [keyed.pop(key) for key in list(keyed) if key[1] in SPLIT_CHILDREN]
            assert all(row["flops"] == row["bytes"] == 0 for row in split), phase
        assert set(got) == set(want), phase
        for key, row in want.items():
            assert got[key]["count"] == row["count"], (phase, key)
            for cost in ("flops", "bytes"):
                assert got[key][cost] == pytest.approx(row[cost], rel=1e-12, abs=0), (
                    phase, key, cost,
                )
