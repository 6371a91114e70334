"""End-to-end observability through the solve service.

The acceptance path of the observability layer: a trace_id minted at
submit() ingress must come back on the result, thread every slog
record, and — when a request times out, a solve fails, or a stall is
detected — land in a ``repro.blackbox/v1`` dump whose span forest
carries the per-iteration convergence events.  Run the group with
``pytest -q -m obs``.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro import telemetry
from repro.dirac import WilsonCloverOperator
from repro.gauge import disordered_field
from repro.lattice import Lattice
from repro.mg import LevelParams, MGParams
from repro.obs.blackbox import validate_blackbox
from repro.obs.slo import DEFAULT_SLOS, SLOSpec
from repro.serve import ServeConfig, SetupCache, SolveService
from repro.serve.bench import render_table
from repro.solvers.base import SolveResult
from repro.telemetry import TraceContext, activate, new_trace_id

pytestmark = pytest.mark.obs

TOL = 1e-7


@pytest.fixture(scope="module")
def lattice():
    return Lattice((4, 4, 4, 8))


@pytest.fixture(scope="module")
def op(lattice):
    gauge = disordered_field(
        lattice, np.random.default_rng(11), 0.55, smear_steps=1
    )
    return WilsonCloverOperator(gauge, mass=-1.406 + 0.03, c_sw=1.0)


@pytest.fixture(scope="module")
def params():
    return MGParams(
        levels=[LevelParams(block=(2, 2, 2, 4), n_null=6, null_iters=40)],
        outer_tol=TOL,
    )


@pytest.fixture(scope="module")
def cache():
    # one shared setup across every service in the module: the adaptive
    # setup runs once, each test only pays its solves
    return SetupCache()


@pytest.fixture(scope="module")
def sources(lattice):
    rng = np.random.default_rng(3)
    shape = (3, lattice.volume, 4, 3)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def make_service(op, params, cache, **cfg_kwargs) -> SolveService:
    svc = SolveService(ServeConfig(**cfg_kwargs), cache=cache)
    svc.register("wc", op, params, rng=np.random.default_rng(5))
    return svc


def _iteration_events(span: dict) -> list[dict]:
    events = [e for e in span.get("events", []) if e["name"] == "iteration"]
    for child in span.get("children", []):
        events.extend(_iteration_events(child))
    return events


def _wait_for(predicate, timeout_s: float = 10.0) -> None:
    deadline = time.perf_counter() + timeout_s
    while time.perf_counter() < deadline:
        if predicate():
            return
        time.sleep(0.01)
    raise AssertionError("condition not met within timeout")


class TestTracePropagation:
    def test_batched_round_trip_carries_trace_ids(
        self, op, params, cache, sources
    ):
        telemetry.enable()
        telemetry.reset()
        try:
            with make_service(op, params, cache, max_batch=4) as svc:
                # a burst is enqueued atomically: one batch, whatever
                # the thread timing
                futures = svc.submit_many("wc", sources)
                results = [f.result(timeout=60) for f in futures]
        finally:
            telemetry.disable()

        trace_ids = [r.telemetry.attrs["trace_id"] for r in results]
        assert all(len(t) == 32 for t in trace_ids)
        assert len(set(trace_ids)) == len(results)  # one trace per request
        # coalesced requests also know the batch they rode in
        head_tid = trace_ids[0]
        for r in results[1:]:
            assert r.telemetry.attrs["batch_trace_id"] == head_tid
        # the solve's span tree carries per-iteration convergence events
        # for every system in the batch, under the outer GCR's span
        spans = results[0].telemetry.spans
        assert spans and spans[0]["name"] == "mg.solve"
        assert spans[0]["attrs"]["n_rhs"] == len(results)
        assert spans[0]["trace_id"] == head_tid
        (outer,) = [c for c in spans[0]["children"] if c["name"] == "solve.gcr"]
        per_rhs = [c for c in outer["children"] if c["name"] == "solve.gcr.rhs"]
        assert len(per_rhs) == len(results)
        for child in per_rhs:
            events = _iteration_events(child)
            assert events
            assert events[0]["attrs"]["residual"] == 1.0

    def test_callers_active_context_is_inherited(
        self, op, params, cache, sources
    ):
        tid = new_trace_id()
        with make_service(op, params, cache, max_batch=1) as svc:
            with activate(TraceContext(trace_id=tid)):
                future = svc.submit("wc", sources[0])
            res = future.result()
        assert res.telemetry.attrs["trace_id"] == tid


class TestForensicsServe:
    def test_ragged_batches_preserve_per_request_traces(
        self, op, params, cache, lattice
    ):
        # 7 submissions against max_batch=4 coalesce into a full batch
        # and a ragged remainder (4+3); every request keeps its own
        # trace_id and every serve.batch span names all of its riders
        rng = np.random.default_rng(21)
        shape = (7, lattice.volume, 4, 3)
        rhs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        telemetry.enable()
        telemetry.reset()
        try:
            with make_service(op, params, cache, max_batch=4) as svc:
                futures = svc.submit_many("wc", rhs)
                results = [f.result(timeout=60) for f in futures]
            doc = telemetry.trace_document()
        finally:
            telemetry.disable()

        trace_ids = {r.telemetry.attrs["trace_id"] for r in results}
        assert len(trace_ids) == 7
        batches = [s for s in doc["spans"] if s["name"] == "serve.batch"]
        sizes = sorted(s["attrs"]["size"] for s in batches)
        assert sum(sizes) == 7
        assert max(sizes) <= 4 and len(sizes) >= 2  # ragged, not one batch
        riders = {t for s in batches for t in s["attrs"]["trace_ids"]}
        assert riders == trace_ids
        for r in results:
            # batch heads carry their own trace as the batch trace;
            # riders get an explicit batch_trace_id link
            attrs = r.telemetry.attrs
            batch_tid = attrs.get("batch_trace_id", attrs["trace_id"])
            assert batch_tid in trace_ids

    def test_serve_batch_span_carries_shard_label(
        self, op, params, cache, sources
    ):
        from repro.obs.forensics import perfetto_document

        telemetry.enable()
        telemetry.reset()
        try:
            with make_service(
                op, params, cache, max_batch=1, label="node-x"
            ) as svc:
                svc.solve("wc", sources[0])
            doc = telemetry.trace_document()
        finally:
            telemetry.disable()

        batch = next(s for s in doc["spans"] if s["name"] == "serve.batch")
        assert batch["attrs"]["shard"] == "node-x"
        # the label becomes the Perfetto process track
        p = perfetto_document(doc)
        names = {
            e["args"]["name"]
            for e in p["traceEvents"]
            if e.get("name") == "process_name"
        }
        assert "shard node-x" in names

    def test_otlp_export_carries_iteration_events(
        self, op, params, cache, sources
    ):
        from repro.telemetry import otlp_document

        telemetry.enable()
        telemetry.reset()
        try:
            with make_service(op, params, cache, max_batch=1) as svc:
                svc.solve("wc", sources[0])
            doc = telemetry.trace_document()
        finally:
            telemetry.disable()

        otlp = otlp_document(doc)
        spans = otlp["resourceSpans"][0]["scopeSpans"][0]["spans"]
        events = [e for s in spans for e in s.get("events", [])]
        iteration = [e for e in events if e["name"] == "iteration"]
        assert iteration  # per-iteration residual stream survives export
        keys = {a["key"] for a in iteration[0]["attributes"]}
        assert {"severity", "residual"} <= keys
        assert all(int(e["timeUnixNano"]) > 0 for e in iteration)

    def test_perfetto_round_trip_from_service_trace(
        self, op, params, cache, sources, tmp_path
    ):
        import json

        from repro.obs.forensics import write_perfetto

        telemetry.enable()
        telemetry.reset()
        try:
            with make_service(op, params, cache, max_batch=4) as svc:
                svc.solve("wc", sources[0])
            doc = telemetry.trace_document()
        finally:
            telemetry.disable()

        out = write_perfetto(tmp_path / "solve.perfetto.json", doc)
        loaded = json.loads(out.read_text())  # must be valid JSON
        timed = [e for e in loaded["traceEvents"] if e["ph"] in ("X", "i")]
        assert timed
        ts = [e["ts"] for e in timed]
        assert ts == sorted(ts)  # monotone timeline
        # nesting preserved: serve.batch encloses the solve it dispatched
        x = [e for e in timed if e["ph"] == "X"]
        batch = next(e for e in x if e["name"] == "serve.batch")
        solves = [e for e in x if e["name"].startswith("mg.")]
        assert solves
        for s in solves:
            assert batch["ts"] <= s["ts"]
            assert s["ts"] + s["dur"] <= batch["ts"] + batch["dur"]


class TestBlackboxDumps:
    def test_timeout_produces_matching_dump(
        self, op, params, cache, sources, tmp_path
    ):
        telemetry.enable()
        telemetry.reset()
        tid = new_trace_id()
        try:
            with make_service(
                op,
                params,
                cache,
                max_batch=4,
                blackbox_dir=str(tmp_path),
            ) as svc:
                # a healthy solve first, so the recorder and tracer hold
                # the history a postmortem should see
                svc.solve("wc", sources[0])
                with activate(TraceContext(trace_id=tid)):
                    future = svc.submit("wc", sources[1], timeout_s=0.0)
                with pytest.raises(TimeoutError):
                    future.result(timeout=10)
                _wait_for(lambda: svc.stats["blackbox_dumps"] >= 1)
                doc = svc.last_blackbox
        finally:
            telemetry.disable()

        validate_blackbox(doc)
        assert doc["reason"] == "timeout"
        # the dump names the timed-out request's trace, and that trace
        # threads the request's own slog lifecycle events
        assert doc["trace_id"] == tid
        kinds = {
            e["kind"] for e in doc["events"] if e.get("trace_id") == tid
        }
        assert {"enqueued", "timeout"} <= kinds
        assert doc["meta"]["timeout_s"] == 0.0
        # the span forest includes the per-iteration convergence events
        # of the preceding solve
        assert any(_iteration_events(root) for root in doc["spans"])
        # and the same dump is on disk for `repro blackbox`
        files = list(tmp_path.glob("blackbox-*timeout*.json"))
        assert len(files) == 1

    def test_solver_failure_produces_dump(self, op, params, cache, sources):
        with make_service(op, params, cache, max_batch=1) as svc:
            def boom(*args, **kwargs):
                raise RuntimeError("injected solver failure")

            svc._ops["wc"].solver.solve_multi = boom
            future = svc.submit("wc", sources[0])
            with pytest.raises(RuntimeError, match="injected"):
                future.result(timeout=10)
            _wait_for(lambda: svc.stats["blackbox_dumps"] >= 1)
            doc = svc.last_blackbox
        validate_blackbox(doc)
        assert doc["reason"] == "failure"
        assert "injected solver failure" in doc["meta"]["error"]
        assert svc.stats["failed"] == 1

    def test_stall_detection_dumps_and_counts(self, op, params, cache):
        from repro.serve.service import _Request

        with make_service(op, params, cache, max_batch=1) as svc:
            req = _Request(
                op_name="wc",
                rhs=np.zeros(1),
                tol=TOL,
                timeout_s=None,
                id=77,
                trace_id="a" * 32,
            )
            stalled = SolveResult(
                x=np.zeros(1),
                converged=False,
                iterations=12,
                final_residual=0.5,
                residual_history=[1.0, 0.5] + [0.5] * 10,
            )
            svc._check_stall(req, stalled)
            healthy = SolveResult(
                x=np.zeros(1),
                converged=True,
                iterations=5,
                final_residual=1e-8,
                residual_history=[10.0**-i for i in range(9)],
            )
            svc._check_stall(req, healthy)  # must not double-count
        assert svc.stats["stalls_detected"] == 1
        assert svc.stats["blackbox_dumps"] == 1
        doc = svc.last_blackbox
        assert doc["reason"] == "stall"
        assert doc["trace_id"] == "a" * 32
        assert doc["meta"]["verdicts"][0]["kind"] == "stall"


class TestServeSLOs:
    def test_monitor_fed_by_completions_and_timeouts(
        self, op, params, cache, sources
    ):
        specs = (
            SLOSpec("latency-p99", "latency_p99", threshold=60.0),
            SLOSpec("timeouts", "timeout_rate", threshold=0.4),
        )
        with make_service(
            op, params, cache, max_batch=4, slo_specs=specs
        ) as svc:
            svc.solve("wc", sources[0])
            future = svc.submit("wc", sources[1], timeout_s=0.0)
            with pytest.raises(TimeoutError):
                future.result(timeout=10)
            _wait_for(lambda: svc.stats["timeouts"] >= 1)
        # read after close(): the request is settled before it is reported
        statuses = {s.spec.name: s for s in svc.slo_monitor.evaluate()}
        assert statuses["latency-p99"].n == 2
        assert statuses["timeouts"].bad == 1
        assert statuses["timeouts"].measured == pytest.approx(0.5)
        assert not statuses["timeouts"].compliant

    def test_bench_table_renders_slo_section(self):
        # pure renderer: a synthetic serve-bench document with SLO rows
        status = {
            "spec": {
                "name": "latency-p99",
                "objective": "latency_p99",
                "threshold": 30.0,
                "window_s": 600.0,
            },
            "n": 8,
            "bad": 0,
            "measured": 1.5,
            "compliant": True,
            "burn_rate": 0.0,
        }
        doc = {
            "schema": "repro.serve-bench/v1",
            "dataset": "test",
            "n_requests": 8,
            "tol": 1e-7,
            "rows": [
                {
                    "max_batch": 1,
                    "throughput_rps": 2.0,
                    "p50_s": 0.5,
                    "p95_s": 0.8,
                    "p99_s": 0.9,
                    "max_dev_vs_batch1": 0.0,
                    "slo": [status],
                    "slo_compliant": True,
                }
            ],
            "speedups_vs_batch1": {"1": 1.0},
            "setup_cache": {"hits": 0, "misses": 1, "evictions": 0},
            "slo_compliant": True,
        }
        text = render_table(doc)
        assert "SLO compliance" in text and "PASS" in text
        assert "latency-p99" in text
