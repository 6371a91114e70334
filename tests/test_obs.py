"""The observability layer: trace context, span events, OTLP export,
histogram reservoirs, the convergence detector, the flight recorder,
and SLO window math.

Unit-level and fast; the serve-integration half (trace propagation
through a real batched round-trip, timeout-triggered blackbox dumps)
lives in ``test_obs_serve.py``.  Run the group with ``pytest -q -m obs``.
"""

from __future__ import annotations

import io
import json
import logging
from types import SimpleNamespace

import pytest

from repro.obs.blackbox import (
    FlightRecorder,
    blackbox_document,
    get_recorder,
    is_blackbox,
    iso_ts,
    render_blackbox,
    write_blackbox,
)
from repro.obs.convergence import (
    DetectorConfig,
    collect_convergence_series,
    convergence_report,
    detect_anomalies,
    record_convergence,
    subsample_history,
)
from repro.obs.slo import (
    DEFAULT_SLOS,
    SLOMonitor,
    SLOSpec,
    render_slo_table,
)
from repro.serve.slog import RequestEvent
from repro import telemetry
from repro.telemetry import (
    MetricsRegistry,
    TraceContext,
    Tracer,
    activate,
    current_trace_id,
    new_span_id,
    new_trace_id,
    otlp_document,
    trace_document,
)
from repro.telemetry.metrics import Histogram
from repro.telemetry.tracer import Span

pytestmark = pytest.mark.obs


# ----------------------------------------------------------------------
# trace context + span identity
# ----------------------------------------------------------------------
class TestTraceContext:
    def test_id_shapes(self):
        tid, sid = new_trace_id(), new_span_id()
        assert len(tid) == 32 and int(tid, 16) >= 0
        assert len(sid) == 16 and int(sid, 16) >= 0
        assert new_trace_id() != tid

    def test_activation_nesting_restores(self):
        assert current_trace_id() is None
        with activate(TraceContext(trace_id="a" * 32)):
            assert current_trace_id() == "a" * 32
            with activate(TraceContext(trace_id="b" * 32)):
                assert current_trace_id() == "b" * 32
            assert current_trace_id() == "a" * 32
        assert current_trace_id() is None

    def test_root_span_adopts_active_context(self):
        tr = Tracer(enabled=True)
        with activate(TraceContext(trace_id="c" * 32)):
            with tr.span("root") as sp:
                with tr.span("child") as ch:
                    pass
        assert sp.trace_id == "c" * 32
        assert ch.trace_id == "c" * 32
        assert ch.parent_id == sp.span_id
        assert sp.parent_id is None
        assert sp.span_id != ch.span_id

    def test_root_span_without_context_gets_fresh_trace(self):
        tr = Tracer(enabled=True)
        with tr.span("a") as sa:
            pass
        with tr.span("b") as sb:
            pass
        assert len(sa.trace_id) == 32
        assert sa.trace_id != sb.trace_id

    def test_span_serialization_carries_identity(self):
        tr = Tracer(enabled=True)
        with tr.span("root") as sp:
            with tr.span("child"):
                pass
        d = sp.to_dict()
        assert d["trace_id"] == sp.trace_id
        assert d["span_id"] == sp.span_id
        assert d["children"][0]["parent_id"] == sp.span_id


class TestSpanEvents:
    def test_events_recorded_with_attrs(self):
        tr = Tracer(enabled=True)
        with tr.span("s") as sp:
            sp.event("iteration", iteration=0, residual=1.0)
            sp.event("stall", severity="error", ratio=1.0)
        d = sp.to_dict()
        assert [e["name"] for e in d["events"]] == ["iteration", "stall"]
        assert d["events"][0]["attrs"]["residual"] == 1.0
        assert d["events"][1]["severity"] == "error"
        assert all(e["t_s"] >= 0.0 for e in d["events"])

    def test_event_budget_is_bounded(self):
        tr = Tracer(enabled=True)
        with tr.span("s") as sp:
            for i in range(Span.MAX_EVENTS + 10):
                sp.event("iteration", iteration=i)
        assert len(sp.events) == Span.MAX_EVENTS
        assert sp.dropped_events == 10
        assert sp.to_dict()["dropped_events"] == 10

    def test_null_span_swallows_events(self):
        tr = Tracer(enabled=False)
        with tr.span("s") as sp:
            sp.event("iteration", iteration=0)  # must not raise


# ----------------------------------------------------------------------
# OTLP export
# ----------------------------------------------------------------------
class TestOTLPExport:
    def _trace_doc(self):
        from repro.telemetry.export import trace_document

        tr = Tracer(enabled=True)
        reg = MetricsRegistry(enabled=True)
        with tr.span("mg.solve", level=0) as sp:
            sp.event("iteration", iteration=0, residual=1.0)
            with tr.span("kcycle", level=0):
                pass
        return trace_document(tracer=tr, registry=reg, meta={"kind": "test"})

    def test_otlp_shape_and_flattening(self):
        doc = self._trace_doc()
        otlp = otlp_document(doc)
        spans = otlp["resourceSpans"][0]["scopeSpans"][0]["spans"]
        assert len(spans) == 2  # tree flattened
        byname = {s["name"]: s for s in spans}
        root, child = byname["mg.solve"], byname["kcycle"]
        assert child["parentSpanId"] == root["spanId"]
        assert root["traceId"] == child["traceId"]
        # OTLP times are unix-nano strings
        assert int(root["endTimeUnixNano"]) >= int(root["startTimeUnixNano"])
        assert root["events"][0]["name"] == "iteration"
        res_attrs = {
            a["key"]: a["value"]
            for a in otlp["resourceSpans"][0]["resource"]["attributes"]
        }
        assert res_attrs["service.name"] == {"stringValue": "repro"}

    def test_write_otlp_round_trips(self, tmp_path):
        from repro.telemetry import write_otlp

        doc = self._trace_doc()
        path = tmp_path / "trace.otlp.json"
        write_otlp(path, doc)
        loaded = json.loads(path.read_text())
        assert "resourceSpans" in loaded

    def test_rejects_non_trace_documents(self):
        with pytest.raises(ValueError):
            otlp_document({"schema": "something-else"})


# ----------------------------------------------------------------------
# histogram reservoir
# ----------------------------------------------------------------------
class TestHistogramReservoir:
    def test_exact_below_cap(self):
        h = Histogram("h", (), cap=100)
        for v in range(50):
            h.observe(float(v))
        assert h.count == 50 and h.kept == 50
        assert h.percentile(0) == 0.0 and h.percentile(100) == 49.0
        assert h.sum == sum(range(50))

    def test_reservoir_bounds_storage_keeps_aggregates_exact(self):
        n, cap = 10_000, 256
        h = Histogram("h", (), cap=cap)
        for v in range(n):
            h.observe(float(v))
        assert h.count == n  # running count, not reservoir size
        assert h.kept == cap  # storage is bounded
        assert h.sum == float(sum(range(n)))  # running aggregate, exact
        assert h.percentile(0) == 0.0  # running min, exact
        assert h.percentile(100) == float(n - 1)  # running max, exact
        # the reservoir is a uniform sample: its median must land near
        # the true median (binomial bound, ~10 sigma of slack)
        assert abs(h.percentile(50) - n / 2) < 0.2 * n

    def test_snapshot_shape_reports_cap(self):
        h = Histogram("h", (), cap=4)
        for v in range(10):
            h.observe(float(v))
        d = h.to_dict()
        assert d["count"] == 10
        assert d["sample_cap"] == 4
        assert d["samples_kept"] == 4

    def test_exemplar_capture_and_exposition(self):
        reg = MetricsRegistry(enabled=True)
        reg.histogram("serve.request_latency_s", op="w").observe(
            0.25, trace_id="f" * 32
        )
        plain = reg.expose_text()
        assert "trace_id" not in plain  # exemplars are opt-in
        rich = reg.expose_text(exemplars=True)
        assert '# {trace_id="' + "f" * 32 + '"}' in rich
        hist = reg.histogram("serve.request_latency_s", op="w")
        assert hist.to_dict()["exemplar"]["trace_id"] == "f" * 32


# ----------------------------------------------------------------------
# convergence detector
# ----------------------------------------------------------------------
class TestConvergenceDetector:
    def test_healthy_history_is_clean(self):
        history = [0.5**i for i in range(20)]
        assert detect_anomalies(history) == []

    def test_stall_positive(self):
        history = [1.0, 0.5] + [0.5] * 10
        kinds = [v.kind for v in detect_anomalies(history)]
        assert kinds == ["stall"]
        (v,) = detect_anomalies(history)
        assert v.severity == "error" and v.ratio >= 0.999

    def test_plateau_warns_before_stall_fires(self):
        history = [0.99**i for i in range(20)]
        (v,) = detect_anomalies(history)
        assert v.kind == "plateau" and v.severity == "warning"

    def test_divergence_positive(self):
        history = [1.0, 0.1, 0.05, 5.0]
        verdicts = detect_anomalies(history)
        assert verdicts[0].kind == "divergence"
        assert verdicts[0].severity == "error"
        assert verdicts[0].iteration == 3

    def test_short_history_negative(self):
        assert detect_anomalies([1.0]) == []
        assert detect_anomalies([]) == []

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DetectorConfig(window=1)
        with pytest.raises(ValueError):
            DetectorConfig(divergence_factor=0.5)

    def test_subsample_keeps_endpoints(self):
        history = list(range(1000))
        points = subsample_history(history, 16)
        assert len(points) <= 17
        assert points[0] == (0, 0.0)
        assert points[-1] == (999, 999.0)
        history = [1.0, 0.5]
        assert subsample_history(history, 16) == [(0, 1.0), (1, 0.5)]

    def test_record_convergence_emits_bounded_events(self):
        tr = Tracer(enabled=True)
        history = [0.9**i for i in range(200)] + [1.0] * 9  # ends diverging
        with tr.span("solve.gcr") as sp:
            verdicts = record_convergence(sp, history, max_points=32)
        events = sp.to_dict()["events"]
        iterations = [e for e in events if e["name"] == "iteration"]
        assert len(iterations) <= 33
        assert iterations[0]["attrs"]["iteration"] == 0
        assert iterations[-1]["attrs"]["iteration"] == len(history) - 1
        assert {v.kind for v in verdicts} & {"divergence", "stall"}
        assert any(e["name"] in ("divergence", "stall") for e in events)


class TestConvergenceReport:
    def _forest(self):
        tr = Tracer(enabled=True)
        with tr.span("mg.solve", level=0) as root:
            with tr.span("solve.gcr") as sp:
                record_convergence(sp, [0.5**i for i in range(12)])
            with tr.span("coarse-solve", level=1):
                with tr.span("solve.gcr") as sp2:
                    record_convergence(sp2, [0.8**i for i in range(6)])
        return [root.to_dict()]

    def test_series_extraction_inherits_levels(self):
        series = collect_convergence_series(self._forest())
        assert {s["level"] for s in series} == {0, 1}
        s0 = next(s for s in series if s["level"] == 0)
        assert s0["points"][0] == (0, 1.0)
        assert s0["anomalies"] == []

    def test_report_renders_per_level_tables(self):
        text = convergence_report(self._forest())
        assert "level 0 residual history" in text
        assert "level 1 residual history" in text
        assert "solve.gcr" in text

    def test_report_without_events(self):
        assert "no convergence events" in convergence_report([])


# ----------------------------------------------------------------------
# flight recorder + blackbox dumps
# ----------------------------------------------------------------------
class TestFlightRecorder:
    def test_ring_is_bounded_and_counts_all(self):
        rec = FlightRecorder(capacity=8)
        for i in range(20):
            rec.record("event", i=i)
        events = rec.snapshot()
        assert len(events) == 8
        assert rec.recorded == 20
        assert [e["i"] for e in events] == list(range(12, 20))
        assert [e["i"] for e in rec.snapshot(last=3)] == [17, 18, 19]

    def test_global_recorder_is_always_on(self):
        rec = get_recorder()
        before = rec.recorded
        rec.record("probe")
        assert rec.recorded == before + 1

    def test_iso_ts_format(self):
        assert iso_ts(0.0) == "1970-01-01T00:00:00Z"
        assert iso_ts(0.5).endswith("00.500000Z")

    def test_dump_round_trip(self, tmp_path):
        rec = FlightRecorder(capacity=4)
        rec.record("enqueued", request_id=1, trace_id="d" * 32)
        rec.record("timeout", request_id=1, trace_id="d" * 32)
        doc = blackbox_document(
            "timeout",
            trace_id="d" * 32,
            recorder=rec,
            registry=MetricsRegistry(enabled=True),
            tracer=Tracer(enabled=True),
            meta={"request_id": 1},
        )
        assert doc["schema"] == telemetry.SCHEMA
        telemetry.validate_trace(doc)
        path = write_blackbox(tmp_path, doc)
        assert path.name.startswith("blackbox-") and "timeout" in path.name
        loaded = telemetry.load_trace(path)
        assert is_blackbox(loaded)
        assert loaded["meta"]["trace_id"] == "d" * 32
        assert [e["kind"] for e in loaded["events"]] == ["enqueued", "timeout"]
        assert loaded["meta"]["request_id"] == 1
        assert loaded["meta"]["events_recorded"] == 2
        text = render_blackbox(loaded)
        assert "reason: timeout" in text and "d" * 32 in text
        assert "meta: request_id=1" in text

    def test_validate_rejects_foreign_documents(self):
        with pytest.raises(ValueError):
            telemetry.validate_trace({"schema": "other/v1"})
        with pytest.raises(ValueError):
            telemetry.validate_trace({"schema": telemetry.SCHEMA, "version": 99})
        # a plain trace validates but is not a dump
        assert not is_blackbox(trace_document(tracer=Tracer(enabled=True)))


# ----------------------------------------------------------------------
# SLO window math
# ----------------------------------------------------------------------
def settled(latency_s, kind="completed", converged=True, ts=0.0):
    """One request's outcome event as the serve tier emits it."""
    results = (SimpleNamespace(converged=converged),) if kind == "completed" else ()
    return RequestEvent(kind, "op", waits_s=(latency_s,), results=results, ts=ts)


class TestSLOWindowMath:
    def test_spec_validation_and_budgets(self):
        spec = SLOSpec("p99", "latency_p99", threshold=30.0)
        assert spec.budget_fraction == pytest.approx(0.01)
        spec = SLOSpec("err", "error_rate", threshold=0.05)
        assert spec.budget_fraction == 0.05
        with pytest.raises(ValueError):
            SLOSpec("bad", "latency_p42", threshold=1.0)
        with pytest.raises(ValueError):
            SLOSpec("bad", "error_rate", threshold=1.5)

    def test_sliding_window_prunes_old_outcomes(self):
        spec = SLOSpec("err", "error_rate", threshold=0.5, window_s=10.0)
        mon = SLOMonitor((spec,), alert=lambda *a, **k: None)
        mon.observe(settled(1.0, "failed", ts=100.0))  # will age out
        mon.observe(settled(1.0, ts=108.0))
        mon.observe(settled(1.0, ts=109.0))
        (status,) = mon.evaluate(now=115.0)  # window covers [105, 115]
        assert status.n == 2 and status.bad == 0
        assert status.compliant and status.measured == 0.0

    def test_latency_quantile_compliance(self):
        spec = SLOSpec("p99", "latency_p99", threshold=1.0, window_s=60.0)
        mon = SLOMonitor((spec,), alert=lambda *a, **k: None)
        for _ in range(98):
            mon.observe(settled(0.1, ts=10.0))
        mon.observe(settled(50.0, ts=10.0))  # two outliers: the interpolated p99
        mon.observe(settled(50.0, ts=10.0))  # lands inside them
        (status,) = mon.evaluate(now=11.0)
        assert status.n == 100 and status.bad == 2
        assert status.measured > 1.0
        assert not status.compliant
        assert status.burn_rate == pytest.approx((2 / 100) / 0.01)

    def test_convergence_failure_rate(self):
        spec = SLOSpec(
            "conv", "convergence_failure_rate", threshold=0.25, window_s=60.0
        )
        mon = SLOMonitor((spec,), alert=lambda *a, **k: None)
        for ok in (True, True, True, False):
            mon.observe(settled(0.5, converged=ok, ts=5.0))
        (status,) = mon.evaluate(now=6.0)
        assert status.measured == pytest.approx(0.25)
        assert status.compliant  # at budget, not over
        mon.observe(settled(0.5, converged=False, ts=5.5))
        (status,) = mon.evaluate(now=6.0)
        assert not status.compliant

    def test_alerts_are_edge_triggered(self):
        fired: list[tuple[str, dict]] = []
        spec = SLOSpec("err", "error_rate", threshold=0.1, window_s=5.0)
        mon = SLOMonitor(
            (spec,), alert=lambda event, **f: fired.append((event, f))
        )
        mon.observe(settled(1.0, "failed", ts=100.0))
        mon.evaluate(now=100.5)
        mon.evaluate(now=100.6)  # still breached: no duplicate alert
        assert [e for e, _ in fired] == ["slo_alert"]
        assert fired[0][1]["slo"] == "err"
        mon.observe(settled(1.0, ts=109.9))  # breach ages out of the window
        mon.evaluate(now=110.0)
        assert [e for e, _ in fired] == ["slo_alert", "slo_recovered"]

    def test_render_table(self):
        mon = SLOMonitor(DEFAULT_SLOS, alert=lambda *a, **k: None)
        mon.observe(settled(0.2, ts=100.0))
        text = render_slo_table(mon.evaluate(now=101.0))
        assert "latency-p99" in text and "verdict" in text
        assert "ok" in text and "BREACH" not in text

    def test_render_table_empty_window_says_no_data(self):
        mon = SLOMonitor(DEFAULT_SLOS, alert=lambda *a, **k: None)
        text = render_slo_table(mon.evaluate(now=100.0))
        assert "no data" in text
        assert "ok" not in text.splitlines()[-1]
        assert "BREACH" not in text


# ----------------------------------------------------------------------
# slog ISO timestamps + trace attachment
# ----------------------------------------------------------------------
class TestSlogRecords:
    def test_ts_iso_and_trace_id_on_records(self):
        from repro.serve import slog

        stream = io.StringIO()
        slog.configure(stream=stream, level=logging.INFO)
        try:
            with activate(TraceContext(trace_id="e" * 32)):
                slog.log_event("enqueued", request_id=1)
            slog.log_event("completed", request_id=1, trace_id="f" * 32)
        finally:
            slog.disable()
        records = [json.loads(line) for line in stream.getvalue().splitlines()]
        assert records[0]["trace_id"] == "e" * 32  # picked up from context
        assert records[1]["trace_id"] == "f" * 32  # explicit wins
        for rec in records:
            assert rec["ts_iso"] == iso_ts(rec["ts"])

    def test_every_event_lands_in_the_flight_recorder(self):
        from repro.serve import slog

        rec = get_recorder()
        before = rec.recorded
        slog.log_event("probe", request_id=99)  # logger unconfigured
        assert rec.recorded == before + 1
        assert rec.snapshot(last=1)[0]["kind"] == "probe"
