"""Injected faults through the solve service: every request the service
accepts ends in exactly one counted outcome, and no waiter hangs.

Each case runs with one and with two workers, reads every future with a
timeout (a hang is a failure, not a stuck job) and closes with the
ledger check: ``submitted == completed + failed + timeouts + cancelled``
and nothing in flight.  ``level_stats`` under two workers on one entry
is pinned in ``tests/test_solve_counters.py``; solutions and counters
are asserted here.  Run the group with ``pytest -q -m chaos``.
"""

from __future__ import annotations

import sys
import threading
import time

import numpy as np
import pytest

from repro.mg.params import LevelParams, MGParams
from repro.obs.blackbox import get_recorder
from repro.precision import Precision
from repro.serve import (
    Counters,
    ServeConfig,
    ServiceClosedError,
    ServiceOverloadedError,
    SetupCache,
    SolveService,
    SolveTimeoutError,
)
from repro.serve.cache import setup_cache_key
from tests.conftest import busy_workers, random_spinor

pytestmark = pytest.mark.chaos

WAIT = 60  # seconds a future may take before the test calls it hung
N_WORKERS = pytest.mark.parametrize("n_workers", [1, 2])


@pytest.fixture(scope="module")
def params():
    # an all-double cycle: "the same x alone and coalesced" is then a
    # 1e-10 statement instead of a solve-tolerance one
    return MGParams(
        levels=[LevelParams(block=(2, 2, 2, 4), n_null=4, null_iters=10)],
        outer_tol=1e-8,
        smoother_precision=Precision.DOUBLE,
        coarse_precision=Precision.DOUBLE,
    )


@pytest.fixture(scope="module")
def cache():
    return SetupCache()  # one setup for the whole module


@pytest.fixture(scope="module")
def sources(lat448):
    return [random_spinor(lat448, seed=40 + i) for i in range(8)]


@pytest.fixture()
def service(wilson448, params, cache):
    made = []

    def make(**cfg_kwargs) -> SolveService:
        svc = SolveService(ServeConfig(**cfg_kwargs), cache=cache)
        svc.register("wc", wilson448, params, rng=np.random.default_rng(3))
        made.append(svc)
        return svc

    yield make
    for svc in made:
        svc.close()


def ledger(svc: SolveService) -> dict:
    """Close ``svc`` and check that its books balance."""
    svc.close()
    s = svc.stats.snapshot()
    assert s["submitted"] == (
        s["completed"] + s["failed"] + s["timeouts"] + s["cancelled"]
    ), s
    assert svc.in_flight() == 0 and svc.queue_depth() == 0
    return s


def outcome(future):
    """A future's result or the exception it carries, within WAIT."""
    try:
        return future.result(timeout=WAIT)
    except TimeoutError as exc:
        if isinstance(exc, SolveTimeoutError):
            return exc
        raise AssertionError("a waiter hung") from exc
    except BaseException as exc:  # SystemExit rides a future in one case
        return exc


@N_WORKERS
class TestFailures:
    def test_solver_raising_fails_the_whole_batch_and_only_it(
        self, service, sources, n_workers
    ):
        svc = service(n_workers=n_workers, max_batch=4)
        solver = svc._ops["wc"].solver
        real = solver.solve_multi

        def boom(bs, **kwargs):
            raise FloatingPointError("injected mid-batch")

        solver.solve_multi = boom
        futures = svc.submit_many("wc", sources[:3])
        errors = [outcome(f) for f in futures]
        assert all(isinstance(e, FloatingPointError) for e in errors)
        assert svc.stats["failed"] == 3
        solver.solve_multi = real
        assert svc.solve("wc", sources[3], timeout_s=WAIT).converged
        s = ledger(svc)
        assert (s["failed"], s["completed"]) == (3, 1)

    @pytest.mark.parametrize("sink", ["_check_stall", "log_event", "slo"])
    def test_a_raising_sink_costs_no_one_their_result(
        self, service, sources, n_workers, sink
    ):
        # at the parent commit the exception is swallowed by the executor:
        # the future never resolves and in_flight stays 1 for good
        from repro import telemetry
        from repro.obs.slo import SLOSpec
        from repro.serve.slog import log_request_event

        spec = SLOSpec("latency-p99", "latency_p99", threshold=60.0)
        svc = service(n_workers=n_workers, max_batch=4, slo_specs=(spec,))
        target = {
            "_check_stall": svc._check_stall,
            "log_event": log_request_event,
            "slo": svc._observe_slo,
        }[sink]

        def broken(event):
            if event.kind == "completed":
                raise RuntimeError(f"injected {sink} failure")
            target(event)

        svc._subscribers = [
            (kinds, broken if fn == target else fn)
            for kinds, fn in svc._subscribers
        ]
        telemetry.enable()
        telemetry.reset()
        try:
            results = [outcome(f) for f in svc.submit_many("wc", sources[:2])]
            assert all(r.converged for r in results)
            assert svc.solve("wc", sources[2], timeout_s=WAIT).converged
            s = ledger(svc)
            # the other sinks still booked both batches
            completed = telemetry.get_registry().value("serve.completed", op="wc")
        finally:
            telemetry.disable()
        assert (s["completed"], s["failed"]) == (3, 0)
        assert completed == 3
        if sink != "slo":
            (status,) = svc.slo_monitor.evaluate()
            assert status.n == 3
        failed_sinks = [
            e for e in get_recorder().snapshot() if e["kind"] == "sink_failed"
        ]
        assert any(f"injected {sink}" in e["error"] for e in failed_sinks)

    # the thread's death is the injected fault, not a finding
    @pytest.mark.filterwarnings(
        "ignore::pytest.PytestUnhandledThreadExceptionWarning"
    )
    def test_a_dying_worker_takes_no_request_with_it(
        self, service, sources, n_workers
    ):
        svc = service(n_workers=n_workers, max_batch=1)

        def die(bs, **kwargs):
            raise SystemExit("injected worker death")

        svc._ops["wc"].solver.solve_multi = die
        futures = [svc.submit("wc", b) for b in sources[:3]]
        for worker in svc._workers:
            worker.join(WAIT)
            assert not worker.is_alive()
        s = ledger(svc)  # close() fails what no worker is left to take
        kinds = sorted(type(outcome(f)).__name__ for f in futures)
        dead = ["SystemExit"] * n_workers
        assert kinds == ["ServiceClosedError"] * (3 - n_workers) + dead
        assert (s["failed"], s["cancelled"]) == (n_workers, 3 - n_workers)


@N_WORKERS
class TestRightHandSides:
    """A request's outcome does not depend on what it was batched with."""

    @pytest.mark.parametrize("kind", ["float64", "int64", "complex64", "zero"])
    def test_same_outcome_alone_and_coalesced(
        self, service, sources, n_workers, kind
    ):
        b = {
            "float64": sources[0].real.copy(),
            "int64": np.rint(4 * sources[0].real).astype(np.int64),
            "complex64": sources[0].astype(np.complex64),
            "zero": np.zeros_like(sources[0]),
        }[kind]
        neighbours = sources[1:3]
        svc = service(n_workers=n_workers, max_batch=4)
        alone = svc.solve("wc", b, timeout_s=WAIT)
        unbatched = [svc.solve("wc", n, timeout_s=WAIT) for n in neighbours]
        futures = svc.submit_many("wc", [neighbours[0], b, neighbours[1]])
        first, coalesced, second = (outcome(f) for f in futures)
        assert coalesced.telemetry.attrs["serve"]["batch_size"] == 3
        assert alone.telemetry.attrs["serve"]["batch_size"] == 1

        assert alone.converged and coalesced.converged
        assert alone.iterations == coalesced.iterations
        assert alone.x.dtype == coalesced.x.dtype == np.complex128
        scale = max(np.abs(alone.x).max(), 1e-300)
        assert np.abs(alone.x - coalesced.x).max() / scale < 1e-10
        if kind == "zero":
            assert alone.iterations == 0 and not alone.x.any()
            assert not coalesced.x.any()
        for lone, rode in zip(unbatched, (first, second)):
            assert lone.iterations == rode.iterations
            assert np.abs(lone.x - rode.x).max() / np.abs(lone.x).max() < 1e-10
        ledger(svc)

    def test_non_numeric_is_refused_alone_and_in_a_burst(
        self, service, sources, n_workers
    ):
        svc = service(n_workers=n_workers)
        bad = sources[0].astype(object)
        with pytest.raises(ValueError, match="non-numeric dtype"):
            svc.submit("wc", bad)
        with pytest.raises(ValueError, match="non-numeric dtype"):
            svc.submit_many("wc", [sources[1], bad, sources[2]])
        assert svc.queue_depth() == 0  # a refused burst enqueues none of it
        assert ledger(svc)["submitted"] == 0


@N_WORKERS
class TestQueue:
    def test_overflowing_burst_enqueues_nothing(self, service, sources, n_workers):
        svc = service(n_workers=n_workers, max_batch=4, queue_capacity=4)
        with busy_workers(svc, "wc", sources[0]) as blockers:
            kept = svc.submit_many("wc", sources[1:3])
            with pytest.raises(ServiceOverloadedError) as refused:
                svc.submit_many("wc", sources[3:6])  # 2 pending + 3 > 4
            assert refused.value.queue_depth == 2
            assert svc.queue_depth() == 2 and svc.stats["rejected"] == 3
        assert all(outcome(f).converged for f in blockers + kept)
        s = ledger(svc)
        assert s["submitted"] == s["completed"] == n_workers + 2

    def test_cancelled_while_pending(self, service, sources, n_workers):
        svc = service(n_workers=n_workers, max_batch=4)
        with busy_workers(svc, "wc", sources[0]):
            doomed, kept = svc.submit_many("wc", sources[1:3])
            assert doomed.cancel()
        assert outcome(kept).converged
        assert kept.result().telemetry.attrs["serve"]["batch_size"] == 1
        s = ledger(svc)
        assert (s["cancelled"], s["completed"]) == (1, n_workers + 1)

    def test_timeout_expires_behind_busy_workers(self, service, sources, n_workers):
        svc = service(n_workers=n_workers, max_batch=4)
        with busy_workers(svc, "wc", sources[0]):
            doomed = svc.submit("wc", sources[1], timeout_s=0.01)
            kept = svc.submit("wc", sources[2])
            time.sleep(0.05)
        assert isinstance(outcome(doomed), SolveTimeoutError)
        assert outcome(kept).converged
        s = ledger(svc)
        assert (s["timeouts"], s["completed"]) == (1, n_workers + 1)

    def test_close_without_drain_races_concurrent_submitters(
        self, service, sources, n_workers
    ):
        svc = service(n_workers=n_workers, max_batch=8, queue_capacity=32)
        futures, refused = [], []
        start = threading.Barrier(5)

        def submitter(seed: int) -> None:
            start.wait(WAIT)
            for i in range(50):
                try:
                    futures.append(svc.submit("wc", sources[(seed + i) % 8]))
                except (ServiceClosedError, ServiceOverloadedError) as exc:
                    refused.append(exc)

        threads = [threading.Thread(target=submitter, args=(t,)) for t in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with busy_workers(svc, "wc", sources[0]) as blockers:
                for t in threads:
                    t.start()
                start.wait(WAIT)
                time.sleep(0.002)  # close lands among the submits
                closer = threading.Thread(target=svc.close, kwargs={"drain": False})
                closer.start()
            for t in threads + [closer]:
                t.join(WAIT)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert len(futures) + len(refused) == 200
        outcomes = [outcome(f) for f in blockers + futures]
        served = [o for o in outcomes if not isinstance(o, BaseException)]
        assert all(o.converged for o in served)
        assert all(
            isinstance(o, ServiceClosedError)
            for o in outcomes
            if isinstance(o, BaseException)
        )
        s = ledger(svc)
        assert s["submitted"] == len(futures) + n_workers
        assert s["completed"] == len(served)
        assert s["cancelled"] == len(outcomes) - len(served)
        overloaded = [e for e in refused if isinstance(e, ServiceOverloadedError)]
        assert s["rejected"] == len(overloaded)


@N_WORKERS
def test_truncated_cache_file_is_rebuilt_and_repaired_by_register(
    tmp_path, wilson448, params, sources, n_workers
):
    SetupCache(disk_dir=str(tmp_path)).get_or_build(
        wilson448, params, np.random.default_rng(3)
    )
    path = tmp_path / f"mgsetup-{setup_cache_key(wilson448, params)}.npz"
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])

    disk = SetupCache(disk_dir=str(tmp_path))
    svc = SolveService(ServeConfig(n_workers=n_workers), cache=disk)
    try:
        svc.register("wc", wilson448, params, rng=np.random.default_rng(3))
        assert svc.solve("wc", sources[0], timeout_s=WAIT).converged
    finally:
        ledger(svc)
    assert (disk.stats["disk_hits"], disk.stats["misses"]) == (0, 1)
    repaired = SetupCache(disk_dir=str(tmp_path))
    repaired.get_or_build(wilson448, params)
    assert repaired.stats["disk_hits"] == 1


def test_counters_lose_no_update_under_contention():
    counters = Counters(("hits",), seconds=("busy_s",))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)

    def hammer() -> None:
        for _ in range(2000):
            counters.bump("hits")
            counters.add_seconds(busy_s=0.5)

    threads = [threading.Thread(target=hammer) for _ in range(8)]
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(WAIT)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert counters.snapshot() == {"hits": 16000, "busy_s": 8000.0}
    assert dict(counters) == counters.snapshot() and len(counters) == 2
    with pytest.raises(KeyError):
        counters.bump("typo")
    with pytest.raises(TypeError):
        counters["hits"] = 0  # read-only to everyone but bump/add_seconds
