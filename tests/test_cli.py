"""The command-line entry point."""

import json

import pytest

from repro.cli import COMMANDS, build_parser, main
from repro.obs.blackbox import blackbox_document, iso_ts, write_blackbox
from repro.telemetry import Tracer, write_trace


class TestCli:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Aniso40" in out and "Iso64" in out

    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        assert "5x5x2x8" in capsys.readouterr().out

    def test_fig2(self, capsys):
        assert main(["fig2"]) == 0
        assert "baseline (Nc=24)" in capsys.readouterr().out

    def test_table3_replay(self, capsys):
        assert main(["table3", "--mode", "replay"]) == 0
        out = capsys.readouterr().out
        assert "BiCGStab" in out and "24/32" in out

    def test_fig4_replay(self, capsys):
        assert main(["fig4"]) == 0
        assert "coarsest fraction" in capsys.readouterr().out

    def test_bad_artifact_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig9"])

    def test_out_dir_writes_files(self, tmp_path, capsys):
        assert main(["table1", "--out", str(tmp_path / "artifacts")]) == 0
        f = tmp_path / "artifacts" / "table1.txt"
        assert f.exists()
        assert "Aniso40" in f.read_text()

    def test_trace_rejects_unknown_dataset(self):
        with pytest.raises(SystemExit):
            main(["trace", "NoSuchDataset"])

    def test_replay_mode_does_not_enable_telemetry(self, tmp_path, capsys):
        from repro import telemetry

        assert main(["fig4", "--out", str(tmp_path)]) == 0
        assert not telemetry.enabled()
        assert not (tmp_path / "trace.json").exists()

    def test_measured_out_persists_trace(self, tmp_path, monkeypatch, capsys):
        """Measured-mode solve traces are persisted, not discarded."""
        import repro.reporting.fig4 as fig4_mod
        from repro import telemetry
        from repro.telemetry import load_trace

        def fake_render(mode="replay", n_rhs=2, trace=None):
            with telemetry.span("mg.solve", level=0):
                pass
            return "fig4 stub"

        monkeypatch.setattr(fig4_mod, "render", fake_render)
        assert main(["fig4", "--mode", "measured", "--out", str(tmp_path)]) == 0
        assert not telemetry.enabled()  # toggled back off after the run
        doc = load_trace(tmp_path / "trace.json")
        assert doc["meta"] == {"kind": "artifact", "artifact": "fig4", "mode": "measured"}
        assert doc["spans"] and doc["spans"][0]["name"] == "mg.solve"

    def test_measured_telemetry_flag_writes_named_file(self, tmp_path, monkeypatch, capsys):
        import repro.reporting.fig4 as fig4_mod
        from repro.telemetry import load_trace

        monkeypatch.setattr(fig4_mod, "render", lambda mode="replay", n_rhs=2, trace=None: "stub")
        out = tmp_path / "run.json"
        assert main(["fig4", "--mode", "measured", "--telemetry", str(out)]) == 0
        assert load_trace(out)["meta"]["artifact"] == "fig4"

    def test_check_gauge_subset(self, tmp_path, capsys):
        """`repro check` with a cheap invariant subset writes the report."""
        import json

        out = tmp_path / "verify.json"
        code = main([
            "check", "Aniso40",
            "--invariants", "gauge.unitarity,gauge.plaquette",
            "--json", str(out),
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["schema"] == "repro.verify/v1"
        assert doc["critical_passed"] is True
        assert {r["name"] for r in doc["reports"]} == {
            "gauge.unitarity", "gauge.plaquette",
        }
        assert "all invariants PASS" in capsys.readouterr().out

    def test_check_max_needs_gauge(self, tmp_path, capsys):
        """--max-needs gauge runs without building any hierarchy."""
        import json

        out = tmp_path / "verify.json"
        assert main(["check", "Aniso40", "--max-needs", "gauge",
                     "--json", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert all(r["name"].startswith("gauge.") for r in doc["reports"])

    def test_check_rejects_unknown_dataset(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", "NoSuchDataset", "--max-needs", "gauge"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unknown dataset" in err and "valid datasets" in err


@pytest.mark.obs
class TestBlackboxCommand:
    """``repro blackbox``: the only reader of dumps on disk."""

    @pytest.fixture()
    def dumps(self, tmp_path):
        paths = []
        for ts, reason in ((1000.0, "timeout"), (2000.0, "stall")):
            doc = blackbox_document(reason, trace_id=reason[0] * 32, meta={"op": "w"})
            doc["meta"]["ts"], doc["meta"]["ts_iso"] = ts, iso_ts(ts)
            paths.append(write_blackbox(tmp_path, doc))
        return paths

    def test_a_directory_lists_dumps_newest_first(self, dumps, tmp_path, capsys):
        assert main(["blackbox", str(tmp_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("2 blackbox dump(s)")
        assert [line.split()[0] for line in lines[1:]] == [
            dumps[1].name, dumps[0].name
        ]
        assert "reason=stall" in lines[1] and "reason=timeout" in lines[2]

    def test_a_file_renders_the_incident(self, dumps, capsys):
        assert main(["blackbox", str(dumps[0]), "--events", "5"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("blackbox dump — reason: timeout")
        assert "trace_id: " + "t" * 32 in out and "meta: op=w" in out

    def test_a_missing_path_exits_2(self, tmp_path, capsys):
        assert main(["blackbox", str(tmp_path / "absent.json")]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_a_foreign_json_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "verify.json"
        path.write_text(json.dumps({"schema": "repro.verify/v1"}))
        assert main(["blackbox", str(path)]) == 2
        assert "unknown trace schema" in capsys.readouterr().err
        # a trace is a dump's format, but without the ring it is no dump
        write_trace(path, tracer=Tracer(enabled=True))
        assert main(["blackbox", str(path)]) == 2
        assert "not a dump" in capsys.readouterr().err

    def test_a_directory_named_like_a_dataset_is_listed(
        self, dumps, tmp_path, monkeypatch, capsys
    ):
        aniso = tmp_path / "Aniso40"
        aniso.mkdir()
        dumps[0].rename(aniso / dumps[0].name)
        monkeypatch.chdir(tmp_path)
        assert main(["blackbox", "Aniso40"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "1 blackbox dump(s) under Aniso40/ (newest first):"
        # no path lists the current directory
        assert main(["blackbox"]) == 0
        assert dumps[1].name in capsys.readouterr().out

    def test_perf_diff_reads_dumps_as_traces(self, dumps, capsys):
        assert main(["perf", "diff", str(dumps[0]), str(dumps[0])]) == 0
        assert "verdict: OK" in capsys.readouterr().out


class TestCommandTree:
    """One parser: each command accepts exactly the options it reads."""

    def test_option_pairs(self):
        parser = build_parser()
        (sub,) = [a for a in parser._actions if a.dest == "command"]
        pairs = {
            (name, flag)
            for name in COMMANDS
            for action in sub.choices[name]._actions
            for flag in action.option_strings
            if flag not in ("-h", "--help")
        }
        assert len(pairs) == 44
        assert ("table1", "--out") in pairs and ("table1", "--mode") not in pairs
        assert ("blackbox", "--events") in pairs

    @pytest.mark.parametrize(
        "argv",
        [
            ["table1", "--shards", "3"],
            ["table1", "--mode", "measured"],
            ["fig4", "--otlp", "x.json"],
            ["blackbox", "--skew", "hot"],
            ["perf", "trend"],
        ],
    )
    def test_an_option_the_command_does_not_read_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, usage",
        [
            (["table1", "--shards", "3"], "usage: repro table1 "),
            (["bench", "run", "--shards", "3"], "usage: repro bench run "),
        ],
    )
    def test_an_unread_option_is_reported_against_the_command_usage(
        self, argv, usage, capsys
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(usage)
        assert "unrecognized arguments: --shards 3" in err
