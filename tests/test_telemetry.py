"""The telemetry subsystem: tracer, metrics, export, and solver wiring.

The whole module is marker-gated (``pytest -q -m telemetry`` runs just
this fast group).
"""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest
from hypothesis import given

from repro import telemetry
from repro.solvers.base import SolveResult
from repro.telemetry import (
    MetricsRegistry,
    SolveTelemetry,
    Tracer,
    level_breakdown_table,
    load_trace,
    read_document,
    span_table,
    trace_document,
    validate_trace,
    write_document,
    write_trace,
)
from repro.telemetry.export import iter_span_dicts
from repro.telemetry.metrics import percentile
from repro.telemetry.tracer import _NULL_SPAN
from strategies import span_forests

pytestmark = pytest.mark.telemetry


class TestTracer:
    def test_nesting_follows_call_order(self):
        tr = Tracer(enabled=True)
        with tr.span("outer", level=0):
            with tr.span("inner-a", level=1):
                pass
            with tr.span("inner-b", level=1):
                with tr.span("leaf"):
                    pass
        assert len(tr.roots) == 1
        root = tr.roots[0]
        assert root.name == "outer"
        assert [c.name for c in root.children] == ["inner-a", "inner-b"]
        assert [c.name for c in root.children[1].children] == ["leaf"]

    def test_durations_are_consistent(self):
        tr = Tracer(enabled=True)
        with tr.span("outer"):
            with tr.span("inner"):
                pass
        root = tr.roots[0]
        assert root.duration_s >= root.children[0].duration_s >= 0.0
        assert root.self_time_s() >= 0.0

    def test_annotate_and_walk(self):
        tr = Tracer(enabled=True)
        with tr.span("a") as sp:
            sp.annotate(iterations=7)
            with tr.span("b"):
                pass
        assert tr.roots[0].attrs["iterations"] == 7
        assert [s.name for s in tr.roots[0].walk()] == ["a", "b"]
        assert tr.total_s("b") <= tr.total_s("a")

    def test_sibling_roots_ordered(self):
        tr = Tracer(enabled=True)
        for name in ("first", "second", "third"):
            with tr.span(name):
                pass
        assert [r.name for r in tr.roots] == ["first", "second", "third"]

    def test_attribute_accumulates_costs(self):
        tr = Tracer(enabled=True)
        with tr.span("kernel") as sp:
            assert sp.attribute(flops=100.0, bytes=200.0) is sp
            sp.attribute(flops=50.0)
        assert tr.roots[0].attrs["flops"] == 150.0
        assert tr.roots[0].attrs["bytes"] == 200.0

    def test_attribute_on_null_span_is_noop(self):
        tr = Tracer(enabled=False)
        sp = tr.span("hot")
        assert sp.attribute(flops=1e9, bytes=1e9) is sp

    def test_disabled_returns_shared_null_span(self):
        tr = Tracer(enabled=False)
        s1 = tr.span("hot", level=3)
        s2 = tr.span("other")
        assert s1 is s2 is _NULL_SPAN  # no allocation on the disabled path
        with s1 as inner:
            assert inner is _NULL_SPAN
            inner.annotate(anything=1)
        assert tr.roots == []

    def test_reset_drops_roots(self):
        tr = Tracer(enabled=True)
        with tr.span("x"):
            pass
        tr.reset()
        assert tr.roots == []

    def test_threads_trace_independent_trees(self):
        tr = Tracer(enabled=True)

        def work(tag):
            with tr.span("root", tag=tag):
                with tr.span("child", tag=tag):
                    pass

        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(tr.roots) == 4
        for root in tr.roots:
            assert [c.name for c in root.children] == ["child"]
            assert root.children[0].attrs["tag"] == root.attrs["tag"]


class TestMetrics:
    def test_counter_and_gauge(self):
        reg = MetricsRegistry()
        reg.counter("matvecs", level=0).inc()
        reg.counter("matvecs", level=0).inc(2)
        reg.counter("matvecs", level=1).inc(5)
        reg.gauge("n_levels").set(3)
        assert reg.value("matvecs", level=0) == 3
        assert reg.value("matvecs", level=1) == 5
        assert reg.value("n_levels") == 3

    def test_labels_separate_series(self):
        reg = MetricsRegistry()
        a = reg.counter("bytes", mu=0)
        b = reg.counter("bytes", mu=1)
        assert a is not b
        assert a is reg.counter("bytes", mu=0)

    def test_histogram_percentiles(self):
        reg = MetricsRegistry()
        h = reg.histogram("latency")
        for v in range(1, 101):
            h.observe(float(v))
        assert h.count == 100
        assert h.sum == pytest.approx(5050.0)
        assert h.mean == pytest.approx(50.5)
        assert h.percentile(0) == 1.0
        assert h.percentile(100) == 100.0
        assert h.percentile(50) == pytest.approx(50.5)
        assert h.percentile(90) == pytest.approx(90.1)
        with pytest.raises(ValueError):
            h.percentile(101)

    def test_histogram_empty_edge_cases(self):
        reg = MetricsRegistry()
        h = reg.histogram("empty")
        assert h.count == 0
        assert h.sum == 0.0
        assert h.mean == 0.0  # not NaN, not ZeroDivisionError
        assert h.percentile(0) == 0.0
        assert h.percentile(50) == 0.0
        assert h.percentile(100) == 0.0
        # invalid p raises even when empty
        with pytest.raises(ValueError):
            h.percentile(-0.1)
        with pytest.raises(ValueError):
            h.percentile(100.1)

    def test_histogram_single_sample(self):
        reg = MetricsRegistry()
        h = reg.histogram("one")
        h.observe(42.0)
        for p in (0, 25, 50, 99, 100):
            assert h.percentile(p) == 42.0
        assert h.mean == 42.0

    def test_histogram_p0_p100_are_min_max(self):
        reg = MetricsRegistry()
        h = reg.histogram("bounds")
        for v in (7.0, 3.0, 9.0, 5.0):
            h.observe(v)
        assert h.percentile(0) == 3.0
        assert h.percentile(100) == 9.0

    @pytest.mark.parametrize("n", [1, 4, 6, 24])
    def test_percentile_is_numpys_linear_rule(self, n):
        # serve-bench and fleet-bench report p50/p95/p99 of their request
        # latencies through this function
        latencies = list(np.random.default_rng(n).exponential(0.05, n))
        for p in (50, 95, 99):
            assert percentile(latencies, p) == pytest.approx(
                np.percentile(latencies, p), rel=1e-12, abs=0.0
            )

    def test_disabled_registry_hands_out_null_metric(self):
        reg = MetricsRegistry(enabled=False)
        m = reg.counter("anything", level=2)
        m.inc(100)
        m.observe(1.0)
        m.set(5.0)
        assert reg.collect() == []
        assert reg.value("anything", level=2) == 0.0

    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.counter("c", level=0).inc()
        reg.gauge("g").set(2)
        reg.histogram("h").observe(1.0)
        snap = reg.snapshot()
        assert snap["counter"]["c"][0] == {"labels": {"level": 0}, "value": 1.0}
        assert snap["gauge"]["g"][0]["value"] == 2.0
        assert snap["histogram"]["h"][0]["count"] == 1


class TestSolveResultTelemetry:
    def _result(self, **kw):
        return SolveResult(np.zeros(4), True, 3, 1e-9, [1.0, 1e-9], 5, **kw)

    def test_constructor_takes_telemetry_attrs(self):
        r = self._result(telemetry=SolveTelemetry(attrs={"reductions": 12}))
        assert r.telemetry.attrs["reductions"] == 12

    def test_to_dict_round_trips_through_json(self):
        r = self._result()
        r.telemetry.level_stats = {0: {"op_applies": 2.0}}
        r.telemetry.metrics["outer_iterations"] = 3.0
        d = json.loads(json.dumps(r.to_dict()))
        assert d["iterations"] == 3
        assert d["converged"] is True
        tele = SolveTelemetry.from_dict(d["telemetry"])
        assert tele.level_stats == {0: {"op_applies": 2.0}}
        assert tele.metrics["outer_iterations"] == 3.0


class TestExport:
    def _populated(self):
        tr = Tracer(enabled=True)
        reg = MetricsRegistry()
        with tr.span("mg.solve", level=0):
            with tr.span("smoother", level=0):
                pass
            with tr.span("coarse-solve", level=1):
                pass
        reg.counter("mg.op_applies", level=0).inc(4)
        reg.histogram("solver.iterations_per_solve", solver="gcr").observe(7)
        return tr, reg

    def test_schema_round_trip(self, tmp_path):
        tr, reg = self._populated()
        path = write_trace(tmp_path / "t.json", tr, reg, meta={"dataset": "x"})
        doc = load_trace(path)
        assert doc["schema"] == telemetry.SCHEMA
        assert doc["meta"]["dataset"] == "x"
        assert doc["spans"][0]["name"] == "mg.solve"
        names = {c["name"] for c in doc["spans"][0]["children"]}
        assert names == {"smoother", "coarse-solve"}
        assert doc["metrics"]["counter"]["mg.op_applies"][0]["value"] == 4.0

    def test_validate_rejects_bad_documents(self):
        with pytest.raises(ValueError):
            validate_trace({"schema": "something/else"})
        tr, reg = self._populated()
        doc = trace_document(tr, reg)
        del doc["spans"][0]["children"]
        with pytest.raises(ValueError):
            validate_trace(doc)

    def test_one_reader_for_every_document(self, tmp_path):
        path = tmp_path / "doc.json"
        for bad in ("[1, 2]", '{"rows": []}'):
            path.write_text(bad)
            with pytest.raises(ValueError, match="no 'schema'"):
                read_document(path)
        # other schemas pass through; traces are validated on the way in
        report = {"schema": "repro.verify/v1", "reports": []}
        assert read_document(write_document(path, report)) == report
        tr, reg = self._populated()
        doc = trace_document(tr, reg)
        del doc["spans"][0]["children"]
        with pytest.raises(ValueError, match="span missing"):
            read_document(write_document(path, doc))
        # what JSON cannot encode is written as its str
        odd = {"schema": "x/v1", "obj": object}
        assert read_document(write_document(path, odd))["obj"] == str(object)

    def test_run_trace_round_trip(self, tmp_path, capsys):
        from repro.cli import run_trace

        doc = run_trace("Aniso40", verbose=False)
        assert not telemetry.enabled()
        path = write_document(tmp_path / "sub" / "trace.json", doc)
        # what JSON holds: tuples read back as lists, int keys as strings
        assert read_document(path) == json.loads(json.dumps(doc))
        assert load_trace(path)["meta"]["kind"] == "trace"

    def test_span_table_partitions_total(self):
        tr, reg = self._populated()
        doc = trace_document(tr, reg)
        table = span_table(doc["spans"])
        assert {level for level, _ in table} == {0, 1}
        total = sum(row["self_s"] for row in table.values())
        root_total = sum(s["duration_s"] for s in doc["spans"])
        assert total == pytest.approx(root_total, rel=1e-9, abs=1e-12)

    @given(forest=span_forests())
    def test_span_table_partitions_random_forests(self, forest):
        table = span_table(forest)
        spans = list(iter_span_dicts(forest))
        rows = table.values()
        root_total = sum(s["duration_s"] for s in forest)
        assert sum(r["self_s"] for r in rows) == pytest.approx(
            root_total, rel=1e-9, abs=1e-12
        )
        assert sum(r["count"] for r in rows) == len(spans)
        for cost in ("flops", "bytes"):
            booked = sum(s["attrs"].get(cost, 0.0) for s in spans)
            assert sum(r[cost] for r in rows) == pytest.approx(booked)

        # every span lands in the row of its nearest level-carrying
        # ancestor (itself included; level 0 when none carries one)
        expected: dict[tuple[int, str], int] = {}

        def visit(span, ancestors):
            path = ancestors + [span]
            level = next(
                (a["attrs"]["level"] for a in reversed(path) if "level" in a["attrs"]),
                0,
            )
            key = (level, span["name"])
            expected[key] = expected.get(key, 0) + 1
            for child in span["children"]:
                visit(child, path)

        for root in forest:
            visit(root, [])
        assert {key: r["count"] for key, r in table.items()} == expected

    def test_breakdown_table_renders_all_levels(self):
        table = level_breakdown_table(
            {
                (0, "smoother"): {"self_s": 1.5},
                (0, "restrict"): {"self_s": 0.5},
                (1, "coarse-solve"): {"self_s": 2.0},
            }
        )
        assert "level" in table and "smoother" in table and "coarse-solve" in table
        assert "1.5" in table and "2" in table


class TestGlobalToggle:
    def test_enable_disable_cycle(self):
        assert not telemetry.enabled()
        telemetry.enable()
        try:
            assert telemetry.enabled()
            with telemetry.span("probe"):
                pass
            assert telemetry.get_tracer().find("probe")
        finally:
            telemetry.disable()
            telemetry.reset()
        assert not telemetry.enabled()
        assert telemetry.get_tracer().roots == []


    def test_prometheus_snapshot_switches_off_when_the_block_raises(
        self, tmp_path
    ):
        out = tmp_path / "metrics.prom"
        with pytest.raises(RuntimeError):
            with telemetry.prometheus_snapshot(out):
                assert telemetry.enabled()
                raise RuntimeError("boom")
        assert not telemetry.enabled()
        assert not out.exists()
        with telemetry.prometheus_snapshot(out):
            telemetry.get_registry().counter("probe.count").inc()
        assert not telemetry.enabled()
        assert "probe" in out.read_text()
        telemetry.reset()


class TestSolverIntegration:
    @pytest.fixture()
    def enabled_telemetry(self):
        telemetry.enable()
        telemetry.reset()
        yield
        telemetry.disable()
        telemetry.reset()

    def _mg_solver(self):
        from repro.dirac import WilsonCloverOperator
        from repro.gauge import disordered_field
        from repro.lattice import Lattice
        from repro.mg import LevelParams, MGParams, MultigridSolver

        lat = Lattice((4, 4, 4, 4))
        u = disordered_field(lat, np.random.default_rng(3), 0.4)
        op = WilsonCloverOperator(u, mass=-0.2, c_sw=1.0)
        params = MGParams(
            levels=[LevelParams(block=(2, 2, 2, 2), n_null=3, null_iters=10)],
            outer_tol=1e-6,
            outer_maxiter=40,
        )
        return MultigridSolver(op, params, np.random.default_rng(4))

    def test_mg_solve_produces_consistent_per_level_spans(self, enabled_telemetry):
        from tests.conftest import random_spinor
        from repro.lattice import Lattice

        mg = self._mg_solver()
        res = mg.solve(random_spinor(Lattice((4, 4, 4, 4)), seed=5))

        tracer = telemetry.get_tracer()
        names = {s.name for s in tracer.iter_spans()}
        for required in (
            "mg.setup",
            "mg.solve",
            "smoother",
            "restrict",
            "prolong",
            "coarse-solve",
            "solve.gcr",
        ):
            assert required in names, f"missing span {required}"

        # span tree and typed result agree
        assert res.telemetry.spans and res.telemetry.spans[0]["name"] == "mg.solve"
        assert set(res.telemetry.level_stats) == {0, 1}
        assert res.telemetry.level_stats[0]["smoother_applies"] > 0

        # exclusive per-level seconds partition the traced total exactly
        doc = trace_document()
        total = sum(row["self_s"] for row in span_table(doc["spans"]).values())
        root_total = sum(s["duration_s"] for s in doc["spans"])
        assert total == pytest.approx(root_total, rel=1e-6)

        # metrics registry absorbed the LevelStats accounting
        reg = telemetry.get_registry()
        assert reg.value("mg.solves", subspace="12/12") >= 0  # label may differ
        assert sum(
            e["value"]
            for e in reg.snapshot()["counter"].get("mg.op_applies", [])
        ) > 0

    def test_measured_solve_round_trips_through_disk(
        self, enabled_telemetry, tmp_path
    ):
        """telemetry/v1 survives write→load→validate on a *real* solve.

        The synthetic round-trip in ``TestExport`` checks the envelope;
        this one checks that everything a measured MG solve produces —
        nested spans, perf attribution, metric families — lands intact
        after a trip through the JSON file format.
        """
        from tests.conftest import random_spinor
        from repro.lattice import Lattice

        mg = self._mg_solver()
        mg.solve(random_spinor(Lattice((4, 4, 4, 4)), seed=7))

        from repro.perf.attribution import attribute_trace

        attributed = attribute_trace(trace_document(meta={"dataset": "unit-4^4"}))
        path = tmp_path / "measured.json"
        path.write_text(json.dumps(attributed, sort_keys=True))
        doc = load_trace(path)
        validate_trace(doc)

        assert doc["meta"]["dataset"] == "unit-4^4"
        flat: list[dict] = []

        def walk(spans):
            for s in spans:
                flat.append(s)
                walk(s["children"])

        walk(doc["spans"])
        names = {s["name"] for s in flat}
        assert {"mg.setup", "mg.solve", "smoother", "coarse-solve"} <= names
        costed = [s for s in flat if "flops" in s.get("attrs", {})]
        assert costed, "no span carried perf attribution through the disk trip"
        for s in costed:
            for key in ("gflops", "gbs", "arithmetic_intensity", "roofline_fraction"):
                assert key in s["attrs"], f"{s['name']} lost {key}"
        assert any(
            e["value"] > 0
            for e in doc["metrics"]["counter"].get("mg.op_applies", [])
        )
        # durations survive as floats, not strings
        assert all(isinstance(s["duration_s"], float) for s in flat)

        # and the loader rejects the same document once mangled
        bad = load_trace(path)
        bad["schema"] = "repro.telemetry/v0"
        with pytest.raises(ValueError):
            validate_trace(bad)
        bad2 = load_trace(path)
        bad2["spans"][0].pop("duration_s")
        with pytest.raises(ValueError):
            validate_trace(bad2)

    def test_disabled_telemetry_records_nothing_during_solve(self):
        telemetry.disable()
        telemetry.reset()
        mg = self._mg_solver()
        from tests.conftest import random_spinor
        from repro.lattice import Lattice

        res = mg.solve(random_spinor(Lattice((4, 4, 4, 4)), seed=6))
        assert telemetry.get_tracer().roots == []
        assert telemetry.get_registry().collect() == []
        assert res.telemetry.spans == []
        # the typed per-level profile is still populated (it is cheap)
        assert res.telemetry.level_stats[0]["op_applies"] > 0
