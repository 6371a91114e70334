"""Golden convergence records: serialize and compare solver behaviour.

A *golden record* freezes the convergence signature of one canonical
solve — outer iteration count, per-level GCR iterations, final
residual — so that performance refactors cannot silently change the
numerics.  The comparator is tolerance-aware: iteration counts may
drift by a small slack (different BLAS builds reassociate reductions),
residuals by a bounded factor, but anything structural (level count,
convergence flag) must match exactly.  Records are read and written
with :func:`repro.telemetry.read_document` / :func:`~repro.telemetry.write_document`.
"""

from __future__ import annotations

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
