"""Golden convergence records: serialize and compare solver behaviour.

A *golden record* freezes the convergence signature of one canonical
solve — outer iteration count, per-level GCR iterations, final
residual — so that performance refactors cannot silently change the
numerics.  The comparator is tolerance-aware: iteration counts may
drift by a small slack (different BLAS builds reassociate reductions),
residuals by a bounded factor, but anything structural (level count,
convergence flag) must match exactly.
"""

from __future__ import annotations

import json
import pathlib

SCHEMA = "repro.golden/v1"


def golden_record(result, subject: str, tol: float) -> dict:
    """The JSON-safe convergence signature of one finished solve.

    ``result`` must carry per-level stats in ``result.telemetry
    .level_stats`` (as every :class:`~repro.mg.solver.MultigridSolver`
    solve does).
    """
    level_stats = result.telemetry.level_stats or {}
    return {
        "schema": SCHEMA,
        "subject": subject,
        "tol": float(tol),
        "converged": bool(result.converged),
        "iterations": int(result.iterations),
        "final_residual": float(result.final_residual),
        "per_level_gcr_iters": {
            str(level): int(stats["gcr_iters"])
            for level, stats in sorted(level_stats.items())
        },
    }


def compare_golden(
    actual: dict,
    golden: dict,
    iter_slack: int = 2,
    residual_factor: float = 3.0,
) -> list[str]:
    """Mismatches between a fresh record and the golden one (empty = OK).

    * ``converged`` and the set of levels must match exactly;
    * every iteration count may move by at most ``iter_slack``;
    * the final residual may move by at most ``residual_factor`` in
      either direction and must still satisfy the recorded tolerance.
    """
    problems: list[str] = []
    if actual.get("schema") != golden.get("schema"):
        problems.append(
            f"schema {actual.get('schema')!r} != golden {golden.get('schema')!r}"
        )
    if bool(actual["converged"]) != bool(golden["converged"]):
        problems.append(
            f"converged {actual['converged']} != golden {golden['converged']}"
        )
    di = abs(int(actual["iterations"]) - int(golden["iterations"]))
    if di > iter_slack:
        problems.append(
            f"outer iterations {actual['iterations']} vs golden "
            f"{golden['iterations']} (slack {iter_slack})"
        )
    a_levels = actual["per_level_gcr_iters"]
    g_levels = golden["per_level_gcr_iters"]
    if set(a_levels) != set(g_levels):
        problems.append(
            f"levels {sorted(a_levels)} != golden {sorted(g_levels)}"
        )
    else:
        for level, g_iters in g_levels.items():
            if abs(int(a_levels[level]) - int(g_iters)) > iter_slack:
                problems.append(
                    f"level {level} gcr_iters {a_levels[level]} vs golden "
                    f"{g_iters} (slack {iter_slack})"
                )
    g_res = float(golden["final_residual"])
    a_res = float(actual["final_residual"])
    lo, hi = g_res / residual_factor, g_res * residual_factor
    if not (lo <= a_res <= hi):
        problems.append(
            f"final residual {a_res:.3e} outside [{lo:.3e}, {hi:.3e}] "
            f"around golden {g_res:.3e}"
        )
    if bool(golden["converged"]) and a_res > float(golden["tol"]) * 10.0:
        problems.append(
            f"final residual {a_res:.3e} no longer satisfies recorded "
            f"tol {golden['tol']:.1e}"
        )
    return problems


BLOCK_SCHEMA = "repro.golden-block/v1"


def block_golden_record(results, subject: str, tol: float) -> dict:
    """The convergence signature of one finished *block* solve.

    ``results`` is the per-system :class:`SolveResult` list a stack
    solver (:func:`~repro.solvers.block.block_gcr`,
    :meth:`~repro.mg.solver.MultigridSolver.solve_multi`) returns; the
    record freezes the
    per-RHS iteration counts and final residuals plus the shared
    matvec-batch count.
    """
    return {
        "schema": BLOCK_SCHEMA,
        "subject": subject,
        "tol": float(tol),
        "n_rhs": len(results),
        "all_converged": all(bool(r.converged) for r in results),
        "iterations": [int(r.iterations) for r in results],
        "matvec_batches": int(
            results[0].telemetry.attrs.get("matvec_batches", results[0].matvecs)
        ),
        "final_residuals": [float(r.final_residual) for r in results],
    }


def compare_block_golden(
    actual: dict,
    golden: dict,
    iter_slack: int = 2,
    residual_factor: float = 3.0,
) -> list[str]:
    """Mismatches between a fresh block record and the golden one.

    Same tolerance philosophy as :func:`compare_golden`, applied per
    right-hand side: batch size and convergence must match exactly,
    per-RHS iteration counts and the shared matvec-batch count may
    drift by ``iter_slack``, residuals by ``residual_factor`` while
    still satisfying the recorded tolerance.
    """
    problems: list[str] = []
    if actual.get("schema") != golden.get("schema"):
        problems.append(
            f"schema {actual.get('schema')!r} != golden {golden.get('schema')!r}"
        )
        return problems
    if int(actual["n_rhs"]) != int(golden["n_rhs"]):
        problems.append(f"n_rhs {actual['n_rhs']} != golden {golden['n_rhs']}")
        return problems
    if bool(actual["all_converged"]) != bool(golden["all_converged"]):
        problems.append(
            f"all_converged {actual['all_converged']} != golden "
            f"{golden['all_converged']}"
        )
    db = abs(int(actual["matvec_batches"]) - int(golden["matvec_batches"]))
    if db > iter_slack:
        problems.append(
            f"matvec_batches {actual['matvec_batches']} vs golden "
            f"{golden['matvec_batches']} (slack {iter_slack})"
        )
    for j, (a_it, g_it) in enumerate(
        zip(actual["iterations"], golden["iterations"])
    ):
        if abs(int(a_it) - int(g_it)) > iter_slack:
            problems.append(
                f"rhs {j} iterations {a_it} vs golden {g_it} "
                f"(slack {iter_slack})"
            )
    for j, (a_res, g_res) in enumerate(
        zip(actual["final_residuals"], golden["final_residuals"])
    ):
        a_res, g_res = float(a_res), float(g_res)
        lo, hi = g_res / residual_factor, g_res * residual_factor
        if not (lo <= a_res <= hi):
            problems.append(
                f"rhs {j} final residual {a_res:.3e} outside "
                f"[{lo:.3e}, {hi:.3e}] around golden {g_res:.3e}"
            )
        if bool(golden["all_converged"]) and a_res > float(golden["tol"]) * 10.0:
            problems.append(
                f"rhs {j} final residual {a_res:.3e} no longer satisfies "
                f"recorded tol {golden['tol']:.1e}"
            )
    return problems


def load_golden(path) -> dict:
    return json.loads(pathlib.Path(path).read_text())


def write_golden(path, record: dict) -> pathlib.Path:
    out = pathlib.Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return out
