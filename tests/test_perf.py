"""Performance-observability layer: attribution, ledger, diff, CLI.

Marker-gated (``pytest -q -m perf``).  The measured-trace tests reuse
the fast 4^4 multigrid problem the telemetry tests run, so the whole
group stays in CI-smoke territory.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import telemetry
from repro.perf import (
    Roofline,
    aggregate_level_costs,
    attribute_trace,
    bench_document,
    compare_documents,
    entry_digest,
    median_mad,
    resolve_roofline,
    roofline_table,
)
from repro.perf.attribution import DERIVED_ATTRS, self_seconds
from repro.perf.diff import MIN_GATED_SECONDS
from repro.perf.ledger import append_entry
from repro.telemetry import read_document

pytestmark = pytest.mark.perf


# ----------------------------------------------------------------------
# roofline model
# ----------------------------------------------------------------------
class TestRoofline:
    def test_two_ceilings(self):
        roof = Roofline("toy", peak_gflops=1000.0, stream_gbs=100.0)
        assert roof.ridge_intensity == pytest.approx(10.0)
        # memory-bound side: attainable scales with intensity
        assert roof.attainable_gflops(1.0) == pytest.approx(100.0)
        # compute-bound side: clamped at peak
        assert roof.attainable_gflops(50.0) == pytest.approx(1000.0)
        assert roof.attainable_gflops(0.0) == 0.0

    def test_fraction(self):
        roof = Roofline("toy", peak_gflops=1000.0, stream_gbs=100.0)
        # 80 GFLOPS at 1 flop/byte = 80% of the bandwidth roof (Figure 2)
        assert roof.fraction(80.0, 1.0) == pytest.approx(0.8)
        assert roof.fraction(10.0, 0.0) == 0.0

    def test_resolve_forms(self):
        default = resolve_roofline(None)
        assert default.name == "Tesla K20X"
        assert resolve_roofline(default) is default
        by_name = resolve_roofline("Tesla K20X")
        assert by_name == default
        with pytest.raises(KeyError):
            resolve_roofline("no-such-gpu")
        with pytest.raises(TypeError):
            resolve_roofline(3.14)


# ----------------------------------------------------------------------
# trace attribution on a real measured solve
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def measured_trace():
    """Trace document of one real (tiny) MG solve, telemetry on."""
    from repro.dirac import WilsonCloverOperator
    from repro.gauge import disordered_field
    from repro.lattice import Lattice
    from repro.mg import LevelParams, MGParams, MultigridSolver
    from tests.conftest import random_spinor

    telemetry.enable()
    telemetry.reset()
    try:
        lat = Lattice((4, 4, 4, 4))
        u = disordered_field(lat, np.random.default_rng(3), 0.4)
        op = WilsonCloverOperator(u, mass=-0.2, c_sw=1.0)
        params = MGParams(
            levels=[LevelParams(block=(2, 2, 2, 2), n_null=3, null_iters=10)],
            outer_tol=1e-6,
            outer_maxiter=40,
        )
        mg = MultigridSolver(op, params, np.random.default_rng(4))
        res = mg.solve(random_spinor(lat, seed=5))
        assert res.converged
        doc = telemetry.trace_document(meta={"kind": "test"})
    finally:
        telemetry.disable()
        telemetry.reset()
    return doc


class TestAttribution:
    def test_solve_spans_carry_costs(self, measured_trace):
        from repro.telemetry.export import iter_span_dicts

        costed = [
            s
            for s in iter_span_dicts(measured_trace["spans"])
            if s.get("attrs", {}).get("flops")
        ]
        assert costed, "no span booked any flops"
        names = {s["name"] for s in costed}
        # the K-cycle hot phases all book work
        for required in ("smoother", "restrict", "prolong"):
            assert required in names
        # a red-black cycle recomputes no defect (DESIGN.md section 21)
        assert "residual" not in {s["name"] for s in iter_span_dicts(measured_trace["spans"])}

    def test_cycle_spans_book_bytes_at_the_streamed_itemsize(self, measured_trace):
        """The default K-cycle streams complex64, the outer GCR
        complex128: same flops per application, half the bytes."""
        from repro.telemetry.export import iter_span_dicts

        def intensity(span):
            return span["attrs"]["flops"] / span["attrs"]["bytes"]

        spans = list(iter_span_dicts(measured_trace["spans"]))
        (solve,) = [s for s in spans if s["name"] == "mg.solve"]
        # the fine operator on complex128, booked on the outer GCR's span
        (outer,) = [c for c in solve["children"] if c["name"] == "solve.gcr"]
        cycle = [
            s for s in spans
            if s["name"] == "smoother" and s["attrs"]["level"] == 0
        ]
        assert cycle
        for span in cycle:
            assert intensity(span) == pytest.approx(2 * intensity(outer))

    def test_attribute_trace_adds_derived_attrs(self, measured_trace):
        doc = attribute_trace(json.loads(json.dumps(measured_trace)))
        from repro.telemetry.export import iter_span_dicts

        seen = 0
        for span in iter_span_dicts(doc["spans"]):
            attrs = span.get("attrs", {})
            if attrs.get("flops") or attrs.get("bytes"):
                for key in DERIVED_ATTRS:
                    assert key in attrs, (span["name"], key)
                seen += 1
                if self_seconds(span) > 0 and attrs.get("flops"):
                    assert attrs["gflops"] == pytest.approx(
                        attrs["flops"] / self_seconds(span) / 1e9
                    )
                    assert 0.0 <= attrs["roofline_fraction"]
        assert seen > 0
        assert doc["meta"]["perf"]["roofline"]["name"] == "Tesla K20X"
        # still a valid telemetry/v1 document after annotation
        telemetry.validate_trace(doc)

    def test_aggregate_level_costs_partitions_seconds(self, measured_trace):
        costs = aggregate_level_costs(measured_trace["spans"])
        from repro.telemetry import span_table

        table = span_table(measured_trace["spans"])
        assert set(costs) == set(table)
        for key, row in costs.items():
            assert row["self_s"] == pytest.approx(table[key]["self_s"])
        table = roofline_table(costs)
        assert "roofline attribution" in table
        assert "roof%" in table

    def test_attribution_math_is_exact_on_synthetic_span(self):
        doc = {
            "schema": telemetry.SCHEMA,
            "meta": {},
            "spans": [
                {
                    "name": "kernel",
                    "duration_s": 2.0,
                    "attrs": {"flops": 4e9, "bytes": 8e9},
                    "children": [
                        {
                            "name": "child",
                            "duration_s": 1.0,
                            "attrs": {},
                            "children": [],
                        }
                    ],
                }
            ],
            "metrics": [],
        }
        roof = Roofline("toy", peak_gflops=100.0, stream_gbs=10.0)
        attribute_trace(doc, device=roof)
        attrs = doc["spans"][0]["attrs"]
        # self time = 2 - 1 = 1 s → 4 GFLOPS, 8 GB/s, AI 0.5
        assert attrs["gflops"] == pytest.approx(4.0)
        assert attrs["gbs"] == pytest.approx(8.0)
        assert attrs["arithmetic_intensity"] == pytest.approx(0.5)
        # attainable at AI 0.5 is 5 GFLOPS → 80% of roof
        assert attrs["roofline_fraction"] == pytest.approx(0.8)


# ----------------------------------------------------------------------
# ledger
# ----------------------------------------------------------------------
def _fake_entry(name: str, scale: float = 1.0) -> dict:
    rows = [
        {
            "benchmark": "kernel.a",
            "metric": "seconds",
            "samples": [scale * s for s in (0.010, 0.011, 0.0105)],
        },
        {
            "benchmark": "kernel.b",
            "metric": "seconds",
            "samples": [scale * s for s in (0.020, 0.021, 0.0195)],
        },
    ]
    doc = bench_document(name, rows, meta={"suite": name})
    for row in doc["rows"]:
        med, mad = median_mad(row["samples"])
        row["median"], row["mad"] = med, mad
    return doc


class TestLedger:
    def test_envelope_shape(self):
        doc = _fake_entry("quick")
        assert doc["schema"] == "repro.bench/v1"
        assert doc["name"] == "quick"
        assert "python" in doc["host"] and "platform" in doc["host"]

    def test_digest_is_content_addressed(self):
        a1, a2 = _fake_entry("quick"), _fake_entry("quick")
        assert entry_digest(a1) == entry_digest(a2)
        assert entry_digest(a1) != entry_digest(_fake_entry("quick", 2.0))

    def test_append_and_load_round_trip(self, tmp_path):
        doc = _fake_entry("quick")
        archive, trajectory = append_entry(
            doc,
            ledger_dir=tmp_path / "ledger",
            trajectory_root=tmp_path,
        )
        assert archive.name == f"{entry_digest(doc)[:12]}.json"
        assert trajectory == tmp_path / "BENCH_quick.json"
        assert read_document(archive) == doc
        assert read_document(trajectory) == doc
        # the baseline is the one in-tree record: no history file beside it
        assert {p.name for p in tmp_path.iterdir()} == {"BENCH_quick.json", "ledger"}

    def test_append_without_trajectory(self, tmp_path):
        archive, trajectory = append_entry(
            _fake_entry("quick"),
            ledger_dir=tmp_path / "ledger",
            trajectory_root=None,
        )
        assert archive.exists()
        assert trajectory is None

    def test_load_rejects_non_entries(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"rows": []}')
        with pytest.raises(ValueError):
            read_document(bad)

    def test_median_mad(self):
        med, mad = median_mad([1.0, 2.0, 3.0, 4.0, 100.0])
        assert med == 3.0
        assert mad == 1.0  # robust to the outlier


# ----------------------------------------------------------------------
# perf diff: the regression gate
# ----------------------------------------------------------------------
class TestPerfDiff:
    def test_identical_entries_are_clean(self):
        doc = _fake_entry("quick")
        diff = compare_documents(doc, doc)
        assert diff.exit_code == 0
        assert not diff.regressions
        assert "OK" in diff.render()

    def test_injected_2x_slowdown_gates(self):
        base = _fake_entry("quick")
        slow = _fake_entry("quick", scale=2.0)
        diff = compare_documents(base, slow)
        assert diff.exit_code == 1
        assert {r.key for r in diff.regressions} == {"kernel.a", "kernel.b"}
        assert "REGRESSED" in diff.render()

    def test_2x_speedup_is_improvement_not_regression(self):
        base = _fake_entry("quick", scale=2.0)
        fast = _fake_entry("quick")
        diff = compare_documents(base, fast)
        assert diff.exit_code == 0
        assert len(diff.improvements) == 2

    def test_slowdown_within_tolerance_passes(self):
        base = _fake_entry("quick")
        slight = _fake_entry("quick", scale=1.05)
        assert compare_documents(slight, base, tolerance=0.10).exit_code == 0
        assert compare_documents(base, slight, tolerance=0.10).exit_code == 0

    def test_noise_band_blocks_gating_on_noisy_series(self):
        noisy = bench_document(
            "quick",
            [{
                "benchmark": "kernel.jittery",
                "metric": "seconds",
                "samples": [0.010, 0.030, 0.010, 0.030],
            }],
        )
        shifted = bench_document(
            "quick",
            [{
                "benchmark": "kernel.jittery",
                "metric": "seconds",
                "samples": [0.012, 0.036, 0.012, 0.036],
            }],
        )
        # 20% median shift, but MAD ≈ median shift: noise wins
        diff = compare_documents(noisy, shifted, tolerance=0.10, z=3.0)
        assert diff.exit_code == 0

    def test_microsecond_series_never_gate(self):
        fast = bench_document(
            "quick",
            [{"benchmark": "k", "metric": "seconds",
              "samples": [MIN_GATED_SECONDS / 10] * 3}],
        )
        slow = bench_document(
            "quick",
            [{"benchmark": "k", "metric": "seconds",
              "samples": [MIN_GATED_SECONDS / 3] * 3}],
        )
        assert compare_documents(fast, slow).exit_code == 0

    def test_added_and_removed_series_are_reported_not_gated(self):
        base = _fake_entry("quick")
        other = bench_document(
            "quick",
            [dict(base["rows"][0], benchmark="kernel.new")],
        )
        diff = compare_documents(base, other)
        verdicts = {r.key: r.verdict for r in diff.rows}
        assert verdicts["kernel.new"] == "added"
        assert verdicts["kernel.a"] == "removed"
        assert diff.exit_code == 0

    def test_trace_documents_diff_by_level_phase(self, measured_trace):
        diff = compare_documents(measured_trace, measured_trace)
        assert diff.exit_code == 0
        assert any(r.key.startswith("L0/") for r in diff.rows)

    def test_diff_to_dict_schema(self):
        diff = compare_documents(_fake_entry("q"), _fake_entry("q", 2.0))
        payload = diff.to_dict()
        assert payload["schema"] == "repro.perf-diff/v1"
        assert payload["verdict"] == "regression"


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCli:
    def test_unknown_dataset_exits_2_with_list(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["trace", "no-such-dataset"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unknown dataset" in err
        assert "Aniso40-scaled" in err

    def test_check_unknown_dataset_exits_2(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["check", "bogus"])
        assert exc.value.code == 2
        assert "valid datasets" in capsys.readouterr().err

    def test_dataset_resolution_is_case_insensitive(self):
        from repro.cli import resolve_dataset
        from repro.workloads import ANISO40_SCALED

        assert resolve_dataset("aniso40-scaled") is ANISO40_SCALED
        assert resolve_dataset("Aniso40") is ANISO40_SCALED

    def test_perf_trend_is_not_a_command(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["perf", "trend"])
        assert exc.value.code == 2
        assert "invalid choice: 'trend'" in capsys.readouterr().err

    def test_bench_list(self, capsys):
        from repro.cli import main

        assert main(["bench", "list"]) == 0
        out = capsys.readouterr().out
        assert "quick:" in out and "mg.solve" in out

    def test_perf_diff_cli_exit_codes(self, tmp_path, capsys):
        from repro.cli import main

        base = tmp_path / "base.json"
        slow = tmp_path / "slow.json"
        base.write_text(json.dumps(_fake_entry("quick")))
        slow.write_text(json.dumps(_fake_entry("quick", 2.0)))

        assert main(["perf", "diff", str(base), str(base)]) == 0
        assert main(["perf", "diff", str(base), str(slow)]) == 1
        # warn-only never fails (the CI smoke mode) but prints the verdict
        out_json = tmp_path / "diff.json"
        assert main([
            "perf", "diff", str(base), str(slow),
            "--warn-only", "--json", str(out_json),
        ]) == 0
        assert "REGRESSED" in capsys.readouterr().out
        assert json.loads(out_json.read_text())["verdict"] == "regression"

    def test_perf_diff_header_names_where_each_side_was_measured(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        base, new = _fake_entry("quick"), _fake_entry("quick")
        base["meta"].update(git={"rev": "f265aacd1093"}, timestamp=1792217413.0)
        base["host"]["python"] = "3.11.7"
        new["meta"]["git"] = {}
        paths = [tmp_path / "base.json", tmp_path / "new.json"]
        for path, doc in zip(paths, (base, new)):
            path.write_text(json.dumps(doc))
        assert main(["perf", "diff", *map(str, paths)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == "  baseline: rev f265aac, 2026-10-17, python 3.11.7"
        assert lines[2] == f"  candidate: python {new['host']['python']}"

    def test_perf_diff_cli_bad_input_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        missing = tmp_path / "nope.json"
        assert main(["perf", "diff", str(missing), str(missing)]) == 2
        assert "error:" in capsys.readouterr().out

    def test_perf_diff_cli_unsupported_schema_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        report = tmp_path / "verify.json"
        report.write_text(json.dumps({"schema": "repro.verify/v1"}))
        assert main(["perf", "diff", str(report), str(report)]) == 2
        assert "error:" in capsys.readouterr().out

    def test_perf_diff_cli_mixed_schemas_exit_2(self, tmp_path, capsys):
        from repro.cli import main

        entry = tmp_path / "entry.json"
        trace = tmp_path / "trace.json"
        entry.write_text(json.dumps(_fake_entry("quick")))
        trace.write_text(json.dumps(
            {"schema": telemetry.SCHEMA, "version": 1, "spans": [], "metrics": {}}
        ))
        assert main(["perf", "diff", str(entry), str(trace)]) == 2
        assert main(["perf", "diff", str(trace), str(entry)]) == 2
        assert "error:" in capsys.readouterr().out


# ----------------------------------------------------------------------
# Prometheus exposition
# ----------------------------------------------------------------------
def parse_prometheus(text: str) -> dict:
    """Minimal text-format 0.0.4 parser: validates and indexes samples.

    Grammar enforced: HELP/TYPE comment lines, sample lines of
    ``name{labels} value``, metric and label names matching the
    Prometheus charset, float-parseable values, trailing newline.
    """
    import re

    name_re = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
    label_re = re.compile(r'(\w+)="((?:[^"\\]|\\.)*)"')
    samples: dict[str, list[tuple[dict, float]]] = {}
    types: dict[str, str] = {}
    assert text.endswith("\n"), "exposition must end with a newline"
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("# HELP "):
            assert name_re.match(line.split()[2])
            continue
        if line.startswith("# TYPE "):
            _, _, metric, kind = line.split(None, 3)
            assert kind in ("counter", "gauge", "summary", "histogram", "untyped")
            types[metric] = kind
            continue
        assert not line.startswith("#"), f"unknown comment: {line}"
        m = re.match(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{(.*)\})?\s+(\S+)$", line)
        assert m, f"unparseable sample line: {line!r}"
        name, _, labelstr, value = m.groups()
        labels = dict(label_re.findall(labelstr)) if labelstr else {}
        samples.setdefault(name, []).append((labels, float(value)))
    return {"samples": samples, "types": types}


class TestExposition:
    @pytest.fixture()
    def registry(self):
        from repro.telemetry.metrics import MetricsRegistry

        reg = MetricsRegistry()
        reg.enabled = True
        return reg

    def test_expose_text_parses(self, registry):
        registry.counter("serve.requests", op="aniso").inc(5)
        registry.gauge("serve.queue_depth").set(3)
        registry.gauge("serve.in_flight").set(1)
        h = registry.histogram("serve.request_latency_s", op="aniso")
        for v in (0.01, 0.02, 0.04, 0.08):
            h.observe(v)
        parsed = parse_prometheus(registry.expose_text())
        assert parsed["types"]["repro_serve_requests"] == "counter"
        assert parsed["types"]["repro_serve_queue_depth"] == "gauge"
        assert parsed["types"]["repro_serve_request_latency_s"] == "summary"
        ((labels, value),) = parsed["samples"]["repro_serve_requests"]
        assert labels == {"op": "aniso"} and value == 5.0
        count = parsed["samples"]["repro_serve_request_latency_s_count"]
        assert count[0][1] == 4.0
        quantiles = {
            lbl["quantile"]: v
            for lbl, v in parsed["samples"]["repro_serve_request_latency_s"]
        }
        assert set(quantiles) == {"0.5", "0.9", "0.95", "0.99"}
        assert quantiles["0.5"] <= quantiles["0.99"]

    def test_expose_text_escapes_and_sanitizes(self, registry):
        registry.counter("weird.name", note='say "hi"\nback\\slash').inc()
        text = registry.expose_text()
        parsed = parse_prometheus(text)
        assert "repro_weird_name" in parsed["samples"]
        ((labels, _),) = parsed["samples"]["repro_weird_name"]
        assert labels["note"] == r'say \"hi\"\nback\\slash'

    def test_empty_registry_exposes_nothing(self, registry):
        assert registry.expose_text() == ""

    def test_serve_bench_rows_have_p99(self):
        from repro.serve.bench import render_table

        doc = {
            "schema": "repro.serve-bench/v1",
            "dataset": "x", "n_requests": 1, "tol": 1e-8,
            "rows": [{
                "max_batch": 1, "throughput_rps": 2.0,
                "p50_s": 0.1, "p95_s": 0.2, "p99_s": 0.3,
                "max_dev_vs_batch1": 0.0,
            }],
            "speedups_vs_batch1": {"1": 1.0},
            "setup_cache": {"hits": 0, "misses": 1, "evictions": 0},
        }
        table = render_table(doc)
        assert "p99 ms" in table and "300.0" in table


# ----------------------------------------------------------------------
# serve structured logs
# ----------------------------------------------------------------------
class TestServeSlog:
    def test_log_event_is_silent_by_default(self, capsys):
        from repro.serve import slog

        slog.log_event("enqueued", request_id=1)
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == ""

    def test_configured_logger_emits_json_lines(self):
        import io

        from repro.serve import slog

        stream = io.StringIO()
        slog.configure(stream=stream)
        try:
            slog.log_event("enqueued", request_id=7, op="aniso")
            slog.log_event("completed", request_id=7, latency_s=0.25)
        finally:
            slog.disable()
        lines = [json.loads(l) for l in stream.getvalue().splitlines()]
        assert [l["event"] for l in lines] == ["enqueued", "completed"]
        assert lines[0]["request_id"] == 7 and lines[0]["op"] == "aniso"
        assert "ts" in lines[0]
        # silent again after disable
        slog.log_event("enqueued", request_id=8)
        assert len(stream.getvalue().splitlines()) == 2
