"""Performance forensics: critical-path extraction, the halo overlap
model, Perfetto trace-event export and span-granular trace diffing (the
trace side of ``repro perf diff``).

Everything here runs on synthetic ``repro.telemetry/v1`` span forests
(plus real :class:`~repro.telemetry.Tracer` round-trips for the export
paths), so the suite is fast and deterministic.  The serve-integration
side (ragged batches, shard tracks from a live service) lives in
``test_obs_serve.py``.  Run the group with ``pytest -q -m obs``.
"""

from __future__ import annotations

import json

import pytest

from repro.obs.forensics import (
    COMM_SPAN_NAMES,
    critical_path,
    overlap_report,
    perfetto_document,
    render_critical_path,
    render_overlap,
    write_perfetto,
)
from repro.cli import main
from repro.perf.diff import compare_documents, series_from_document
from repro.telemetry import Tracer, span_table, trace_document

pytestmark = pytest.mark.obs


# ----------------------------------------------------------------------
# synthetic span forests
# ----------------------------------------------------------------------
def span(name, start, end, level=None, children=(), attrs=None, events=(),
         wall0=1_000.0):
    """One serialized span; wall_start offset from a fixed epoch."""
    a = dict(attrs or {})
    if level is not None:
        a["level"] = level
    return {
        "name": name,
        "attrs": a,
        "children": list(children),
        "start_s": start,
        "end_s": end,
        "duration_s": end - start,
        "wall_start": wall0 + start,
        "trace_id": "t" * 32,
        "span_id": f"{abs(hash(name)) % 10**16:016d}",
        "parent_id": None,
        "events": list(events),
        "dropped_events": 0,
    }


def doc_of(*roots, meta=None):
    return {
        "schema": "repro.telemetry/v1",
        "version": 1,
        "meta": dict(meta or {}),
        "spans": list(roots),
        "metrics": {},
    }


def solve_forest():
    """A two-level solve: smoothing dominates level 0."""
    halo = span("halo.exchange", 0.10, 0.30,
                attrs={"mu": 0, "sign": 1, "bytes": 1024.0})
    smooth = span("smoother", 0.30, 0.90, level=0,
                  attrs={"flops": 2e9, "bytes": 1e9, "roofline_fraction": 0.4})
    coarse = span("solve.gcr", 0.90, 0.95, level=1)
    return span("mg.solve", 0.0, 1.0, level=0,
                children=[halo, smooth, coarse])


# ----------------------------------------------------------------------
# critical path
# ----------------------------------------------------------------------
class TestCriticalPath:
    def test_follows_heaviest_chain(self):
        rep = critical_path([solve_forest()])
        assert [n.name for n in rep.nodes] == ["mg.solve", "smoother"]
        assert rep.nodes[0].depth == 0
        assert rep.nodes[1].depth == 1

    def test_self_times_and_shares(self):
        rep = critical_path([solve_forest()])
        # mg.solve self: 1.0 - (0.2 + 0.6 + 0.05); smoother self: 0.6
        assert rep.nodes[0].self_s == pytest.approx(0.15)
        assert rep.nodes[1].self_s == pytest.approx(0.60)
        assert rep.path_s == pytest.approx(0.75)
        assert rep.nodes[1].share == pytest.approx(0.6 / 0.75)
        assert rep.nodes[1].cumulative_s == pytest.approx(0.75)
        assert rep.coverage == pytest.approx(0.75)

    def test_level_inherited_from_ancestor(self):
        # smoother has no level attr of its own here
        inner = span("smoother", 0.1, 0.9)
        root = span("solve.gcr", 0.0, 1.0, level=2, children=[inner])
        rep = critical_path([root])
        assert [n.level for n in rep.nodes] == [2, 2]

    def test_picks_heaviest_root(self):
        light = span("setup", 0.0, 0.2)
        heavy = solve_forest()
        rep = critical_path([light, heavy])
        assert rep.nodes[0].name == "mg.solve"
        assert rep.root_s == pytest.approx(1.0)
        assert rep.total_s == pytest.approx(1.2)

    def test_roofline_attrs_carried(self):
        rep = critical_path([solve_forest()])
        assert rep.nodes[1].attrs["roofline_fraction"] == pytest.approx(0.4)
        assert "flops" in rep.nodes[1].attrs

    def test_empty_forest(self):
        rep = critical_path([])
        assert rep.nodes == [] and rep.path_s == 0.0
        assert rep.coverage == 0.0
        assert "empty trace" in render_critical_path(rep)

    def test_render_and_to_dict(self):
        # the report is rendered, never serialised: the table prints the
        # path, shares and coverage the report holds
        rep = critical_path([solve_forest()])
        text = render_critical_path(rep)
        assert "critical path" in text and "smoother" in text
        assert "share" in text and "roof%" in text
        assert [n.name for n in rep.nodes] == ["mg.solve", "smoother"]
        assert [n.share for n in rep.nodes] == pytest.approx([0.2, 0.8])
        assert rep.coverage == pytest.approx(0.75)
        assert "80.0%" in text and "(75.0% of the 1s root" in text

    def test_span_table_aggregates_across_paths(self):
        # the same kernel twice on different branches sums into one bucket
        a = span("smoother", 0.0, 0.3, level=0)
        b = span("smoother", 0.4, 0.9, level=0)
        root = span("mg.solve", 0.0, 1.0, level=0, children=[a, b])
        table = span_table([root])
        key, row = max(table.items(), key=lambda kv: kv[1]["self_s"])
        assert key == (0, "smoother")
        assert row["self_s"] == pytest.approx(0.8)


# ----------------------------------------------------------------------
# overlap headroom
# ----------------------------------------------------------------------
class TestOverlap:
    def test_fully_hideable(self):
        rep = overlap_report([solve_forest()])
        assert len(rep.groups) == 1
        g = rep.groups[0]
        assert g.comm_s == pytest.approx(0.2)
        # parent self 0.15 + smoother 0.6 + coarse 0.05
        assert g.compute_s == pytest.approx(0.8)
        assert g.hideable_s == pytest.approx(0.2)
        assert g.spans[0].verdict == "hideable"
        assert rep.headroom_fraction == pytest.approx(1.0)
        assert rep.ideal_s == pytest.approx(0.8)

    def test_partial_and_exposed_when_budget_short(self):
        # two exchanges, compute only covers 1.5 of the 4 comm seconds
        h1 = span("halo.exchange", 0.0, 1.0)
        h2 = span("halo.exchange", 1.0, 4.0)
        parent = span("comm.partitioned_apply", 0.0, 5.5,
                      children=[h1, h2])
        rep = overlap_report([parent])
        g = rep.groups[0]
        assert g.compute_s == pytest.approx(1.5)
        assert [s.verdict for s in g.spans] == ["hideable", "partial"]
        assert g.spans[1].hidden_s == pytest.approx(0.5)
        assert rep.exposed_s == pytest.approx(2.5)

    def test_exposed_when_no_compute(self):
        h = span("halo.exchange", 0.0, 1.0)
        parent = span("apply", 0.0, 1.0, children=[h])
        rep = overlap_report([parent])
        assert rep.groups[0].spans[0].verdict == "exposed"
        assert rep.headroom_fraction == pytest.approx(0.0)

    def test_no_comm_spans(self):
        rep = overlap_report([span("mg.solve", 0.0, 1.0)])
        assert rep.groups == []
        assert "no halo-exchange spans" in render_overlap(rep)

    def test_comm_alias_and_attrs(self):
        assert "comm.halo" in COMM_SPAN_NAMES
        rep = overlap_report([solve_forest()])
        attrs = rep.groups[0].spans[0].attrs
        assert attrs == {"mu": 0, "sign": 1, "bytes": 1024.0}

    def test_to_dict_schema(self):
        # the report is rendered, never serialised: the text carries the
        # groups, verdicts and headroom the report holds
        rep = overlap_report([solve_forest()])
        assert [(g.parent, g.level) for g in rep.groups] == [("mg.solve", 0)]
        assert [s.verdict for s in rep.groups[0].spans] == ["hideable"]
        assert rep.headroom_fraction == pytest.approx(1.0)
        assert rep.exposed_s == pytest.approx(0.0)
        text = render_overlap(rep)
        assert "(100.0% headroom)" in text
        assert "halo spans: 1 hideable, 0 partial, 0 exposed" in text


# ----------------------------------------------------------------------
# Perfetto export
# ----------------------------------------------------------------------
class TestPerfetto:
    def test_complete_events_with_args(self):
        p = perfetto_document(doc_of(solve_forest()))
        x = [e for e in p["traceEvents"] if e["ph"] == "X"]
        assert {e["name"] for e in x} == {
            "mg.solve", "halo.exchange", "smoother", "solve.gcr"
        }
        smoother = next(e for e in x if e["name"] == "smoother")
        assert smoother["dur"] == 600_000  # microseconds
        assert smoother["args"]["flops"] == 2e9
        assert smoother["cat"] == "smoother"
        assert smoother["args"]["trace_id"] == "t" * 32

    def test_monotone_ts_and_nesting(self):
        p = perfetto_document(doc_of(solve_forest()))
        timed = [e for e in p["traceEvents"] if e["ph"] in ("X", "i")]
        ts = [e["ts"] for e in timed]
        assert ts == sorted(ts)
        by_name = {e["name"]: e for e in timed if e["ph"] == "X"}
        parent, child = by_name["mg.solve"], by_name["smoother"]
        assert parent["ts"] <= child["ts"]
        assert child["ts"] + child["dur"] <= parent["ts"] + parent["dur"]

    def test_level_threads_and_metadata(self):
        p = perfetto_document(doc_of(solve_forest()))
        meta = [e for e in p["traceEvents"] if e["ph"] == "M"]
        names = {e["args"]["name"] for e in meta}
        assert {"repro", "level 0", "level 1"} <= names
        x = {e["name"]: e for e in p["traceEvents"] if e["ph"] == "X"}
        assert x["mg.solve"]["tid"] != x["solve.gcr"]["tid"]

    def test_span_events_become_instants(self):
        ev = [{"name": "iteration", "t_s": 0.25, "severity": "info",
               "attrs": {"residual": 0.5}}]
        root = span("solve.gcr", 0.0, 1.0, events=ev)
        p = perfetto_document(doc_of(root))
        inst = [e for e in p["traceEvents"] if e["ph"] == "i"]
        assert len(inst) == 1
        assert inst[0]["name"] == "solve.gcr:iteration"
        assert inst[0]["s"] == "t"
        assert inst[0]["ts"] == 250_000
        assert inst[0]["args"]["residual"] == 0.5

    def test_fleet_stitching_one_track_per_shard(self):
        a = doc_of(span("serve.batch", 0.0, 1.0, attrs={"shard": "node-a"}))
        b = doc_of(span("serve.batch", 0.5, 1.5, attrs={"shard": "node-b"},
                        wall0=1_000.5))
        p = perfetto_document([a, b])
        x = [e for e in p["traceEvents"] if e["ph"] == "X"]
        assert len({e["pid"] for e in x}) == 2
        names = {e["args"]["name"]
                 for e in p["traceEvents"] if e["name"] == "process_name"}
        assert names == {"shard node-a", "shard node-b"}

    def test_child_clamped_into_parent(self):
        # monotonic duration leaks the child past the parent's end
        child = span("smoother", 0.9, 2.0)
        parent = span("mg.solve", 0.0, 1.0, children=[child])
        p = perfetto_document(doc_of(parent))
        x = {e["name"]: e for e in p["traceEvents"] if e["ph"] == "X"}
        pa, ch = x["mg.solve"], x["smoother"]
        assert ch["ts"] + ch["dur"] <= pa["ts"] + pa["dur"]

    def test_write_round_trip_from_live_tracer(self, tmp_path):
        tr = Tracer(enabled=True)
        with tr.span("mg.solve", level=0):
            with tr.span("smoother", level=0) as sm:
                sm.event("iteration", iteration=0, residual=1.0)
        doc = trace_document(tracer=tr, meta={"dataset": "unit"})
        out = write_perfetto(tmp_path / "t.perfetto.json", doc)
        loaded = json.loads(out.read_text())
        assert loaded["displayTimeUnit"] == "ms"
        assert loaded["otherData"]["dataset"] == "unit"
        phases = {e["ph"] for e in loaded["traceEvents"]}
        assert {"X", "i", "M"} <= phases


# ----------------------------------------------------------------------
# trace diff
# ----------------------------------------------------------------------
class TestTraceDiff:
    def _pair(self, slow=2.0):
        a = doc_of(solve_forest())
        b_root = solve_forest()
        # slow the smoother down in the candidate
        b_root["children"][1]["end_s"] = 0.3 + 0.6 * slow
        b_root["children"][1]["duration_s"] = 0.6 * slow
        b_root["end_s"] = b_root["duration_s"] = 1.0 + 0.6 * (slow - 1)
        b = doc_of(b_root)
        return a, b

    def test_nodes_keyed_by_level_and_name(self):
        nodes = series_from_document(doc_of(solve_forest()))
        assert set(nodes) == {
            "L0/mg.solve", "L0/halo.exchange", "L0/smoother", "L1/solve.gcr"
        }
        assert nodes["L0/smoother"].median == pytest.approx(0.6)
        assert nodes["L0/smoother"].flops == pytest.approx(2e9)

    def test_schema_checked(self):
        with pytest.raises(ValueError, match="cannot diff"):
            series_from_document({"schema": "nope", "spans": []})

    def test_regression_detected_and_sorted(self):
        diff = compare_documents(*self._pair())
        assert diff.rows[0].key == "L0/smoother"  # biggest mover first
        assert diff.rows[0].verdict == "regression"
        assert diff.rows[0].ratio == pytest.approx(1.0)
        assert diff.exit_code == 1

    def test_tolerance_band_holds(self):
        a, b = self._pair(slow=1.1)  # +10% < default 25% tolerance
        diff = compare_documents(a, b)
        assert diff.regressions == []
        assert diff.exit_code == 0

    def test_noise_floor_never_gates(self):
        a = doc_of(span("tiny", 0.0, 10e-6))
        b = doc_of(span("tiny", 0.0, 40e-6))  # 4x but under 50us floor
        diff = compare_documents(a, b)
        assert diff.rows[0].verdict == "ok"

    def test_added_and_removed_nodes(self):
        a = doc_of(span("mg.solve", 0.0, 1.0))
        b = doc_of(span("mg.setup", 0.0, 1.0))
        verdicts = {r.key: r.verdict
                    for r in compare_documents(a, b).rows}
        assert verdicts == {"L0/mg.solve": "removed", "L0/mg.setup": "added"}

    def test_flops_ratio_flags_algorithm_change(self):
        a = doc_of(span("smoother", 0.0, 1.0, attrs={"flops": 1e9}))
        b = doc_of(span("smoother", 0.0, 1.0, attrs={"flops": 2e9}))
        row = compare_documents(a, b).rows[0]
        assert row.flops_ratio == pytest.approx(1.0)
        assert "flops +100.0%" in row.render()

    def test_cost_from_zero_is_strict_json_null(self):
        a = doc_of(span("smoother", 0.0, 1.0))
        b = doc_of(span("smoother", 0.0, 1.0, attrs={"flops": 2e9}))
        diff = compare_documents(a, b)
        assert diff.rows[0].flops_ratio is None
        assert "flops added" in diff.rows[0].render()

        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        text = json.dumps(diff.to_dict())
        (row,) = json.loads(text, parse_constant=reject)["rows"]
        assert row["flops_ratio"] is None

    def test_cli_json_and_warn_only(self, tmp_path, capsys):
        a, b = self._pair()
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        pa.write_text(json.dumps(a))
        pb.write_text(json.dumps(b))
        out = tmp_path / "diff.json"
        rc = main(
            ["perf", "diff", str(pa), str(pb), "--warn-only", "--json", str(out)]
        )
        assert rc == 0  # warn-only despite the regression
        payload = json.loads(out.read_text())
        assert payload["schema"] == "repro.perf-diff/v1"
        assert payload["verdict"] == "regression"
        assert "REGRESSED" in capsys.readouterr().out
        assert main(["perf", "diff", str(pa), str(pb)]) == 1

    def test_cli_bad_input_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc = main(["perf", "diff", str(bad), str(bad)])
        assert rc == 2
        assert "error:" in capsys.readouterr().out
