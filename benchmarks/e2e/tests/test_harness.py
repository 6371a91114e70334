"""Smoke runs of every workload, failure accounting, and the empty checkout."""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import workloads as wl
from conftest import E2E, REPO

RUN = os.path.join(E2E, "run.py")


def contract():
    with open(os.path.join(REPO, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run(*args, cwd=REPO):
    return subprocess.run(
        [sys.executable, RUN, *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("workload", list(wl.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_emits_exactly_the_declared_metrics(workload, trace, tmp_path):
    out = tmp_path / "doc.json"
    proc = run("--workload", workload, "--seed", "3", "--seconds", "1",
               "--trace", str(trace), "--smoke", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = contract()["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    units = {m["name"]: m["unit"] for m in declared}
    for name, entry in result["metrics"].items():
        assert set(entry) == {"value", "unit"} and entry["unit"] == units[name]
        assert isinstance(entry["value"], float) and np.isfinite(entry["value"])
    if not trace:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())
    doc = json.loads(out.read_text())
    assert doc["failed_share"] == 0 and doc["env"]["seed"] == 3
    assert doc["env"]["threads"]["OMP_NUM_THREADS"] == "1"
    if trace:
        assert doc["untraced"] == [] and doc["spans"]
    # every metric is also printed by name with its unit
    for name, unit in units.items():
        assert any(line.startswith(f"{name} ") and f" {unit}" in line
                   for line in proc.stdout.splitlines()), name
    # nothing is left behind in the checkout
    assert not [d for d in os.listdir(REPO) if d.startswith(".e2e-work-")]


def test_bad_solve_is_counted_not_dropped():
    problem = wl.make_problem(wl.WORKLOADS["warm_single_rhs"], seed=0, smoke=True)
    serving = wl.Serving(problem)
    try:
        serving.register()
        serving.attach()
        outcome = wl.Outcome()
        b = problem.rhs()
        outcome.check(problem.op, b, serving.solver.solve(b, tol=1e-10, maxiter=1), 1e-10)
        assert (outcome.attempted, outcome.failed) == (1, 1)
        assert outcome.worst_residual_over_tol > wl.RESIDUAL_SLACK
        # converged flag set but the recomputed residual says otherwise
        result = serving.solver.solve(b, tol=1e-2)
        assert result.converged
        result.x = result.x * 0.5
        outcome.check(problem.op, b, result, 1e-2)
        assert (outcome.attempted, outcome.failed) == (2, 2)
        good = serving.solver.solve(b, tol=1e-2)
        outcome.check(problem.op, b, good, 1e-2)
        assert (outcome.attempted, outcome.failed) == (3, 2)
    finally:
        serving.close()


def test_raising_operation_fails_every_request_it_carried():
    outcome = wl.Outcome()

    def refuse():
        raise RuntimeError("queue full")

    assert outcome.attempt(wl.K_BATCH, refuse) is None
    assert (outcome.attempted, outcome.failed) == (wl.K_BATCH, wl.K_BATCH)
    assert outcome.failed_share == 1.0 and "queue full" in outcome.errors[0]


def test_failed_run_exits_nonzero_with_correct_false(tmp_path, monkeypatch):
    """``--smoke`` with an unreachable tolerance: every solve fails its check."""
    import run as runner

    monkeypatch.setattr(wl, "RESIDUAL_SLACK", 1e-9)
    monkeypatch.chdir(tmp_path)
    code = runner.main(["--workload", "warm_single_rhs", "--smoke", "--seconds", "1"])
    assert code == 1


def test_exits_nonzero_without_the_program(tmp_path):
    """In a directory with only BENCHMARK.json and the benchmark's files."""
    shutil.copy(os.path.join(REPO, "BENCHMARK.json"), tmp_path)
    shutil.copytree(E2E, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "warm_single_rhs",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout


def test_vanished_unit_target_reads_zero_and_is_listed(tmp_path, monkeypatch):
    """The twin-collapse refactor may delete ``BatchedSmoother``."""
    import repro.mg
    import run as runner

    monkeypatch.delattr(repro.mg, "BatchedSmoother")
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "doc.json"
    code = runner.main(["--workload", "warm_single_rhs", "--smoke", "--trace", "1",
                        "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    gone = {"mg.smoother.L0.apply_multi_k8_us", "mg.smoother.L1.apply_multi_k8_us"}
    assert gone <= set(doc["untraced"])
    assert all(doc["per_layer"][name] == 0.0 for name in gone)
