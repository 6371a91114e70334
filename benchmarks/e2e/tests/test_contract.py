"""BENCHMARK.json against the limits of the benchmark contract."""

import json
import os
import re

import workloads as wl
from conftest import REPO

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def contract():
    with open(os.path.join(REPO, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_keys_and_limits():
    c = contract()
    assert set(c) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert c["paths"] == ["benchmarks/e2e"]
    assert all(len(part) <= 200 for part in c["command"]) and len(c["command"]) <= 32
    assert isinstance(c["run_seconds"], int) and 1 <= c["run_seconds"] <= 60
    assert 2 <= len(c["workloads"]) <= 8
    assert 1 <= len(c["end_to_end"]) <= 16
    assert 1 <= len(c["per_layer"]) <= 128
    assert os.path.getsize(os.path.join(REPO, "BENCHMARK.json")) <= 64 * 1024
    # 4 + 22 runs per workload, each run_seconds plus start-up, within the cap
    runs = 4 + 22 * len(c["workloads"])
    assert runs * (c["run_seconds"] + 6) <= 3420


def test_names_units_and_bounds():
    c = contract()
    names = [w["name"] for w in c["workloads"]]
    for w in c["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in c["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in c["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in c["end_to_end"] + c["per_layer"]:
        names.append(m["name"])
        assert NAME.match(m["name"]), m["name"]
        assert UNIT.match(m["unit"]), m["unit"]
        assert m["better"] in ("lower", "higher")
    assert len(names) == len(set(names)), "a name is used once"
    setup = next(m for m in c["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in c["end_to_end"])


def test_contract_matches_the_harness():
    c = contract()
    assert [w["name"] for w in c["workloads"]] == list(wl.WORKLOADS)
    assert {w["name"]: w["why"] for w in c["workloads"]} == {
        w.name: w.why for w in wl.WORKLOADS.values()
    }
    assert [m["name"] for m in c["end_to_end"]] == list(wl.END_TO_END)
