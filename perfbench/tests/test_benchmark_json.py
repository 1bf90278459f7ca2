"""BENCHMARK.json names exactly the workloads and metrics the runner produces."""

import json
import re
from pathlib import Path

import gen
import run

DOC = json.loads((Path(run.HERE).parent / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


def test_workloads_match_the_generators():
    assert [w["name"] for w in DOC["workloads"]] == list(gen.WORKLOADS)
    assert all(0 < len(w["why"]) <= 200 and "\n" not in w["why"] for w in DOC["workloads"])


def test_metrics_match_the_runner():
    assert {m["name"]: m["unit"] for m in DOC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in DOC["per_layer"]} == run.PER_LAYER


def test_names_bounds_and_setup():
    names = [m["name"] for m in DOC["end_to_end"] + DOC["per_layer"]] + [
        w["name"] for w in DOC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    bounds = {m["name"]: m["bound"] for m in DOC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
