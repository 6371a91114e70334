"""The solve service: batching, setup cache, backpressure, timeouts."""

from __future__ import annotations

import gc
import threading
import time
import weakref

import numpy as np
import pytest

from repro import telemetry
from repro.dirac import WilsonCloverOperator
from repro.gauge import disordered_field
from repro.lattice import Lattice
from repro.mg import LevelParams, MGParams
from repro.serve import (
    ServeConfig,
    ServiceClosedError,
    ServiceOverloadedError,
    SetupCache,
    SolveService,
    SolveTimeoutError,
    operator_fingerprint,
    setup_cache_key,
)
from repro.telemetry.metrics import get_registry
from repro.workloads import run_propagator
from tests.conftest import busy_workers

pytestmark = pytest.mark.serve

TOL = 1e-7


@pytest.fixture(scope="module")
def lattice():
    return Lattice((4, 4, 4, 8))


@pytest.fixture(scope="module")
def gauge(lattice):
    return disordered_field(
        lattice, np.random.default_rng(11), 0.55, smear_steps=1
    )


@pytest.fixture(scope="module")
def op(gauge):
    return WilsonCloverOperator(gauge, mass=-1.406 + 0.03, c_sw=1.0)


@pytest.fixture(scope="module")
def params():
    return MGParams(
        levels=[LevelParams(block=(2, 2, 2, 4), n_null=6, null_iters=40)],
        outer_tol=TOL,
    )


@pytest.fixture(scope="module")
def sources(lattice):
    rng = np.random.default_rng(3)
    shape = (6, lattice.volume, 4, 3)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def make_service(op, params, **cfg_kwargs) -> SolveService:
    svc = SolveService(ServeConfig(**cfg_kwargs))
    svc.register("wc", op, params, rng=np.random.default_rng(5))
    return svc


class TestBatchedEquivalence:
    def test_burst_is_coalesced_and_matches_sequential(self, op, params, sources):
        with make_service(op, params, max_batch=8) as svc:
            futures = [svc.submit("wc", b) for b in sources]
            batched = [f.result() for f in futures]
        with make_service(op, params, max_batch=1) as svc:
            sequential = [svc.solve("wc", b) for b in sources]

        for rb, rs, b in zip(batched, sequential, sources):
            assert rb.converged and rs.converged
            bnorm = np.linalg.norm(b.ravel())
            res_b = np.linalg.norm((b - op.apply(rb.x)).ravel()) / bnorm
            res_s = np.linalg.norm((b - op.apply(rs.x)).ravel()) / bnorm
            assert res_b < TOL and res_s < TOL
            dev = np.abs(rb.x - rs.x).max() / np.abs(rs.x).max()
            assert dev < 1e-4  # both tol-1e-7 solutions of the same system

    def test_burst_actually_batched(self, op, params, sources):
        with make_service(op, params, max_batch=8) as svc:
            futures = [svc.submit("wc", b) for b in sources]
            results = [f.result() for f in futures]
        assert svc.stats["batches"] < len(sources)
        assert any(r.telemetry.attrs.get("n_rhs", 1) > 1 for r in results)

    def test_a_burst_is_one_batch(self, op, params, sources):
        with make_service(op, params, max_batch=8) as svc:
            results = svc.solve_many("wc", sources)
        assert svc.stats["batches"] == 1
        assert svc.stats["batched_systems"] == len(sources)
        for r in results:
            assert r.telemetry.attrs["serve"]["batch_size"] == len(sources)
            assert r.telemetry.attrs["serve"]["solve_s"] > 0

    @pytest.mark.parametrize(
        "cfg", [{}, {"max_wait_s": 5.0}], ids=["default", "max_wait_s-is-discarded"]
    )
    def test_a_lone_request_costs_its_solve(self, op, params, sources, cfg):
        # work-conserving: an idle worker takes a lone request at once.
        # Before, the batch head waited max_wait_s (0.05 s by default)
        # for stragglers with the worker idle.
        with make_service(op, params, **cfg) as svc:
            svc.solve("wc", sources[0])  # first-use construction
            overheads, waits = [], []
            for b in sources[1:4]:
                busy = svc.stats["solve_s_total"]
                t0 = time.perf_counter()
                res = svc.solve("wc", b)
                wall = time.perf_counter() - t0
                overheads.append(wall - (svc.stats["solve_s_total"] - busy))
                waits.append(res.telemetry.attrs.get("serve", {}).get("queue_wait_s"))
        assert min(overheads) <= 0.02
        assert min(waits) <= 0.02  # the request's own record says the same

    def test_mixed_tolerances_do_not_coalesce(self, op, params, sources):
        with make_service(op, params, max_batch=8) as svc:
            f1 = svc.submit("wc", sources[0], tol=1e-5)
            f2 = svc.submit("wc", sources[1], tol=1e-7)
            r1, r2 = f1.result(), f2.result()
        assert r1.telemetry.attrs.get("n_rhs", 1) == 1
        assert r2.telemetry.attrs.get("n_rhs", 1) == 1

    def test_unknown_operator_rejected(self, op, params, sources):
        with make_service(op, params) as svc:
            with pytest.raises(KeyError):
                svc.submit("nope", sources[0])


class TestSetupCache:
    def test_memory_hit_on_second_registration(self, op, params):
        cache = SetupCache()
        h1 = cache.get_or_build(op, params, np.random.default_rng(5))
        h2 = cache.get_or_build(op, params, np.random.default_rng(99))
        assert h1 is h2
        assert cache.stats["hits"] == 1
        assert cache.stats["misses"] == 1

    def test_key_distinguishes_params_and_operator(self, op, gauge, params):
        other_params = MGParams(
            levels=[LevelParams(block=(2, 2, 2, 4), n_null=4, null_iters=40)],
            outer_tol=TOL,
        )
        other_op = WilsonCloverOperator(gauge, mass=-1.0, c_sw=1.0)
        k = setup_cache_key(op, params)
        assert k != setup_cache_key(op, other_params)
        assert k != setup_cache_key(other_op, params)
        assert operator_fingerprint(op) != operator_fingerprint(other_op)

    def test_lru_eviction_by_memory(self, op, gauge, params):
        cache = SetupCache(max_bytes=1)  # everything oversizes this
        cache.get_or_build(op, params, np.random.default_rng(5))
        other_op = WilsonCloverOperator(gauge, mass=-1.0, c_sw=1.0)
        cache.get_or_build(other_op, params, np.random.default_rng(5))
        assert cache.stats["evictions"] == 1
        assert len(cache) == 1  # only the most recent survives
        # the evicted entry rebuilds as a miss
        cache.get_or_build(op, params, np.random.default_rng(5))
        assert cache.stats["misses"] == 3

    def test_disk_roundtrip_skips_null_generation(self, tmp_path, op, params):
        telemetry.enable()
        telemetry.reset()
        try:
            registry = get_registry()
            cache1 = SetupCache(disk_dir=str(tmp_path))
            h1 = cache1.get_or_build(op, params, np.random.default_rng(5))
            generated = registry.value("mg.null_vector_generations")
            assert generated == params.levels[0].n_null

            # fresh cache = restarted service: restores from disk,
            # generates zero null vectors
            cache2 = SetupCache(disk_dir=str(tmp_path))
            h2 = cache2.get_or_build(op, params, np.random.default_rng(777))
            assert registry.value("mg.null_vector_generations") == generated
            assert cache2.stats["disk_hits"] == 1
            assert cache2.stats["misses"] == 0
        finally:
            telemetry.disable()
        for v1, v2 in zip(h1.export_null_vectors()[0], h2.export_null_vectors()[0]):
            assert np.array_equal(v1, v2)

    def test_stale_disk_entry_revalidated(self, tmp_path, op, gauge, params):
        cache1 = SetupCache(disk_dir=str(tmp_path))
        cache1.get_or_build(op, params, np.random.default_rng(5))
        # corrupt the persisted fingerprint by renaming another op's key
        import os

        other_op = WilsonCloverOperator(gauge, mass=-1.0, c_sw=1.0)
        src = cache1._path(setup_cache_key(op, params))  # noqa: SLF001
        dst = cache1._path(setup_cache_key(other_op, params))  # noqa: SLF001
        os.rename(src, dst)
        cache2 = SetupCache(disk_dir=str(tmp_path))
        cache2.get_or_build(other_op, params, np.random.default_rng(5))
        assert cache2.stats["invalid"] == 1
        assert cache2.stats["misses"] == 1

    def test_service_warm_restart_counter(self, tmp_path, op, params, sources):
        """The acceptance scenario: second service run against the same
        gauge config reports a cache hit and zero generations."""
        telemetry.enable()
        telemetry.reset()
        try:
            registry = get_registry()
            cache = SetupCache(disk_dir=str(tmp_path))
            with SolveService(ServeConfig(max_batch=4), cache=cache) as svc:
                svc.register("wc", op, params, rng=np.random.default_rng(5))
                svc.solve("wc", sources[0])
            first_gen = registry.value("mg.null_vector_generations")
            assert first_gen > 0

            cache2 = SetupCache(disk_dir=str(tmp_path))
            with SolveService(ServeConfig(max_batch=4), cache=cache2) as svc:
                svc.register("wc", op, params, rng=np.random.default_rng(5))
                svc.solve("wc", sources[0])
            assert registry.value("mg.null_vector_generations") == first_gen
            assert (
                registry.value("serve.setup_cache.disk_hits", tier="disk") > 0
            )
        finally:
            telemetry.disable()


class TestBackpressureAndTimeouts:
    def test_overload_rejected(self, op, params, sources):
        with make_service(op, params, max_batch=1, queue_capacity=2) as svc:
            # the single worker is busy with the first request; the
            # bounded pending queue behind it fills and rejects
            blocker = svc.submit("wc", sources[0])
            time.sleep(0.1)  # let the worker pick up the blocker
            with pytest.raises(ServiceOverloadedError):
                for b in sources:
                    svc.submit("wc", b)
            assert svc.stats["rejected"] >= 1
            blocker.result()

    def test_queued_timeout_fails_fast(self, op, params, sources):
        with make_service(op, params, max_batch=1) as svc:
            first = svc.submit("wc", sources[0])
            doomed = svc.submit("wc", sources[1], timeout_s=1e-9)
            with pytest.raises(SolveTimeoutError):
                doomed.result()
            assert first.result().converged
            assert svc.stats["timeouts"] == 1

    def test_closed_service_rejects(self, op, params, sources):
        svc = make_service(op, params)
        svc.close()
        with pytest.raises(ServiceClosedError):
            svc.submit("wc", sources[0])

    @pytest.mark.parametrize("slo", [False, True])
    def test_a_closed_service_goes_with_its_last_reference(
        self, op, params, sources, slo
    ):
        # a service holds its hierarchies: left to the cycle collector,
        # a closed one would free them inside some later, unrelated call
        from repro.obs.slo import DEFAULT_SLOS

        svc = make_service(op, params, slo_specs=DEFAULT_SLOS if slo else ())
        assert svc.solve("wc", sources[0]).converged
        svc.close()
        gc.disable()
        try:
            ref = weakref.ref(svc)
            del svc
            assert ref() is None
        finally:
            gc.enable()

    def test_close_drains_pending(self, op, params, sources):
        svc = make_service(op, params, max_batch=4)
        futures = [svc.submit("wc", b) for b in sources[:3]]
        svc.close(drain=True)
        assert all(f.result().converged for f in futures)

    def test_close_without_drain_fails_pending(self, op, params, sources):
        svc = make_service(op, params, max_batch=1)
        futures = [svc.submit("wc", b) for b in sources]
        svc.close(drain=False)
        outcomes = []
        for f in futures:
            try:
                outcomes.append(f.result())
            except ServiceClosedError:
                outcomes.append(None)
        assert any(o is None for o in outcomes)


class TestBadRightHandSides:
    """A malformed right-hand side is refused to its submitter at
    ``submit``; it never reaches a batch, so it cannot fail (or be
    answered on behalf of) the well-formed requests around it."""

    @pytest.mark.parametrize("defect", ["wrong-shape", "nan", "inf"])
    def test_refused_at_submit_and_neighbours_complete(
        self, op, params, sources, defect
    ):
        bad = sources[1].copy()
        if defect == "wrong-shape":
            bad = bad[:-1]
        else:
            bad[3, 1, 2] = np.nan if defect == "nan" else np.inf
        with make_service(op, params, max_batch=4) as svc:
            # behind a busy worker the two good requests are one batch —
            # the batch the bad one would have been coalesced into
            with busy_workers(svc, "wc", sources[3]) as (blocker,):
                first = svc.submit("wc", sources[0])
                with pytest.raises(ValueError, match="does not match|non-finite"):
                    svc.submit("wc", bad)  # no future ever exists for it
                second = svc.submit("wc", sources[2])
            blocker.result(timeout=60)
            results = [first.result(timeout=60), second.result(timeout=60)]
        assert all(r.converged for r in results)
        assert all(r.telemetry.attrs["serve"]["batch_size"] == 2 for r in results)
        stats = svc.stats  # the blocker is one more request and one more batch
        assert stats["submitted"] - 1 == 2 and stats["batches"] - 1 == 1
        assert stats["submitted"] == (
            stats["completed"] + stats["failed"] + stats["timeouts"]
        )
        assert stats["failed"] == 0


class TestServicePropagator:
    def test_propagator_routes_through_batcher(self, lattice, op, params):
        with make_service(op, params, max_batch=12) as svc:
            result = run_propagator(
                None,
                lattice,
                op,
                n_components=4,
                service=svc,
                operator_name="wc",
            )
        assert len(result.iterations) == 4
        assert len(result.error_over_residual) == 4
        # coalesced: far fewer batches than 2x4 individual solves
        assert svc.stats["batches"] <= 4
        assert all(np.isfinite(e) and e > 0 for e in result.error_over_residual)

    def test_direct_flag_bypasses_service(self, lattice, op, params):
        from repro.mg import MultigridSolver

        solver = MultigridSolver(op, params, rng=np.random.default_rng(5))

        def solve(b, tol_override=None):
            return solver.solve(b, tol=tol_override)

        with make_service(op, params, max_batch=12) as svc:
            before = svc.stats["submitted"]
            result = run_propagator(
                solve,
                lattice,
                op,
                n_components=2,
                service=svc,
                operator_name="wc",
                direct=True,
            )
            assert svc.stats["submitted"] == before
        assert len(result.iterations) == 2


class TestMeanLevelStatsHardening:
    def test_heterogeneous_level_keys(self):
        from repro.workloads import PropagatorResult

        r = PropagatorResult()
        r.level_stats = [
            {0: {"op_applies": 2, "restricts": 1}, 1: {"op_applies": 4}},
            {0: {"op_applies": 4}},  # missing level 1, missing restricts
            {2: {"gcr_iters": 7}},  # level the others never saw
        ]
        out = r.mean_level_stats()
        assert out[0]["op_applies"] == pytest.approx(3.0)
        assert out[0]["restricts"] == pytest.approx(1.0)
        assert out[1]["op_applies"] == pytest.approx(4.0)
        assert out[2]["gcr_iters"] == pytest.approx(7.0)

    def test_empty(self):
        from repro.workloads import PropagatorResult

        assert PropagatorResult().mean_level_stats() == {}


@pytest.mark.telemetry
class TestServeTelemetry:
    def test_spans_and_histograms_published(self, op, params, sources):
        telemetry.enable()
        telemetry.reset()
        try:
            registry = get_registry()
            with make_service(op, params, max_batch=4) as svc:
                futures = [svc.submit("wc", b) for b in sources[:4]]
                [f.result() for f in futures]
            sizes = registry.histogram("serve.batch_size", op="wc")
            assert sizes.count >= 1
            assert registry.value("serve.requests", op="wc") == 4
            assert registry.value("serve.completed", op="wc") == 4
            waits = registry.histogram("serve.queue_wait_s")
            assert waits.count == 4
            spans = [s["name"] for s in telemetry.trace_document()["spans"]]
            assert "serve.batch" in spans
        finally:
            telemetry.disable()

