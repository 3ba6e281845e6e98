"""BENCHMARK.json is well formed and names run.py's workloads."""

import streams
from run import SPEC


def test_setup_time_is_an_end_to_end_metric():
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in SPEC["end_to_end"])


def test_workloads_and_limits():
    assert [w["name"] for w in SPEC["workloads"]] == list(streams.BUILDERS)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
