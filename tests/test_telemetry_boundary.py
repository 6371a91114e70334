"""The boundary between the numerics and telemetry.

The numerics core imports no tracer, registry or recorder; every span
it shows comes from the boundary table (``repro.telemetry.boundary``),
installed by ``telemetry.enable()`` and removed by ``disable()``.
"""

from __future__ import annotations

import ast
import inspect
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from repro import telemetry
from repro.dirac import WilsonCloverOperator
from repro.gauge import disordered_field
from repro.lattice import Lattice
from repro.mg import LevelParams, MGParams, MultigridSolver
from repro.telemetry import boundary, get_tracer, span_table
from repro.telemetry.tracer import Tracer
from tests.conftest import random_spinor

pytestmark = pytest.mark.telemetry

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
CORE = ("dirac", "mg", "solvers", "coarse", "transfer", "precision")
ALLOWED = "repro.telemetry.result"


def _telemetry_imports(path: pathlib.Path, root: pathlib.Path = SRC) -> list[str]:
    """Every ``repro.telemetry`` module ``path`` (under ``root``) imports
    but the result type."""
    package = ".".join(path.relative_to(root).with_suffix("").parts[:-1])
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.split(".")[: len(package.split(".")) - node.level + 1]
                base = ".".join(anchor + ([base] if base else []))
            names = [base] + [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        touched = [n for n in names if n == "repro.telemetry" or n.startswith("repro.telemetry.")]
        if touched and ALLOWED not in touched:
            found.append(touched[-1])
    return found


def test_the_numerics_import_only_the_result_type_of_telemetry():
    files = [p for part in CORE for p in sorted((SRC / "repro" / part).rglob("*.py"))]
    assert files
    offenders = {str(p.relative_to(SRC)): _telemetry_imports(p) for p in files}
    assert {p: found for p, found in offenders.items() if found} == {}


def test_the_import_check_catches_an_offender(tmp_path):
    """The check above sees the three spellings of a forbidden import."""
    module = tmp_path / "repro" / "mg" / "fake.py"
    module.parent.mkdir(parents=True)
    for line in (
        "from ..telemetry.tracer import get_tracer",
        "from .. import telemetry",
        "import repro.telemetry.metrics",
    ):
        module.write_text(line + "\n")
        assert _telemetry_imports(module, tmp_path), line
    module.write_text("from ..telemetry.result import SolveTelemetry\n")
    assert _telemetry_imports(module, tmp_path) == []


@pytest.fixture(scope="module")
def solver():
    """4x4x4x8 -> 2x2x2x4 -> 2^4: a direct coarsest solve, factored once
    (untraced) before any test traces it."""
    lat = Lattice((4, 4, 4, 8))
    u = disordered_field(lat, np.random.default_rng(41), 0.5, smear_steps=1)
    op = WilsonCloverOperator(u, mass=-0.3, c_sw=1.0)
    params = MGParams(
        levels=[
            LevelParams(block=(2, 2, 2, 2), n_null=4, null_iters=10),
            LevelParams(block=(1, 1, 1, 2), n_null=4, null_iters=10),
        ],
        outer_tol=1e-8,
    )
    solver = MultigridSolver(op, params, np.random.default_rng(42))
    solver.solve(random_spinor(lat, seed=43))
    return solver


def _rhs(solver, k: int) -> np.ndarray:
    lat = solver.hierarchy.levels[0].op.lattice
    return np.stack([random_spinor(lat, seed=44 + i) for i in range(k)])


@pytest.mark.parametrize("row", boundary.ROWS, ids=lambda row: f"{row.name}:{row.attr}")
def test_disable_puts_every_original_back(row):
    original = vars(row.owner)[row.attr]
    telemetry.enable()
    try:
        assert vars(row.owner)[row.attr] is not original
    finally:
        telemetry.disable()
    assert vars(row.owner)[row.attr] is original


def test_an_untraced_solve_opens_no_span(solver, monkeypatch):
    def refuse(self, name, **attrs):
        raise AssertionError(f"span {name!r} opened with tracing off")

    monkeypatch.setattr(Tracer, "span", refuse)
    assert not telemetry.enabled()
    res = solver.solve_multi(_rhs(solver, 2))
    assert all(r.converged for r in res)


def test_enable_imports_what_the_wrappers_call():
    """Nothing is imported inside the first traced solve: the residual
    streams' module is loaded by the switch itself."""
    script = (
        "import sys\n"
        "import repro.mg\n"
        "from repro import telemetry\n"
        "assert 'repro.obs.convergence' not in sys.modules\n"
        "telemetry.enable()\n"
        "print('repro.obs.convergence' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert out.stdout.strip() == "True"


def _traced_rows(solver, bs) -> dict:
    telemetry.reset()
    solver.solve_multi(bs)
    spans = [root.to_dict() for root in get_tracer().roots]
    telemetry.reset()
    return {key: row["count"] for key, row in span_table(spans).items()}


def test_the_first_traced_solve_is_the_second(solver):
    bs = _rhs(solver, 2)
    telemetry.enable()
    try:
        first, second = _traced_rows(solver, bs), _traced_rows(solver, bs)
    finally:
        telemetry.disable()
        telemetry.reset()
    assert first == second
    assert (0, "mg.solve") in first and (1, "kcycle") in first
    assert (2, "coarse-solve") in first
    # the outer and the level-1 GCR both run the wrapped driver
    assert (0, "solve.gcr") in first and (1, "solve.gcr") in first


def test_every_caller_holds_the_driver_module_the_table_wraps():
    """``import repro.solvers.gcr as m`` is the module (the package binds
    no function over it), and the module is what every caller calls the
    lockstep driver through, so the row that wraps it there sees them all."""
    import repro.solvers.bicgstab as bicgstab_module
    import repro.solvers.gcr as gcr_module
    from repro.mg import kcycle, setup
    from repro.mg import solver as mg_solver

    assert inspect.ismodule(gcr_module) and inspect.ismodule(bicgstab_module)
    assert kcycle.gcr is mg_solver.gcr is boundary.gcr is gcr_module
    assert setup.bicgstab is boundary.bicgstab is bicgstab_module
