"""Self-tests of the benchmark harness.

    python3 -m pytest fanbench -q

Each workload is run briefly, traced and untraced, through run.main.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())

# The workload on which each layer does its work (the README's table), with
# the metrics whose work happens elsewhere.
HOME = {"separation": "mincap", "cdw": "space", "ordinals": "families", "walks": "families",
        "families": "families", "spaces": "space", "cli": "mincap"}
HOME_OVERRIDES = {
    "separation.oracle.self_s": "space",  # the oracle runs in the space checks only
    "walks.cache_hit_ratio": "mincap",  # repeated solver calls revisit the same pairs
}


def _run(*argv) -> tuple[dict, dict, float]:
    """run.main's (detail, result) lines and its wall time."""
    buffer = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buffer):
        assert run.main([str(a) for a in argv]) == 0
    wall = time.perf_counter() - start
    lines = buffer.getvalue().strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1]), wall


@pytest.fixture(scope="module")
def traced():
    """One short traced run per workload: {workload: (detail, result, wall)}."""
    return {
        name: _run("--workload", name, "--seed", 7, "--seconds", 3, "--trace", 1)
        for name in workloads.WORKLOADS
    }


def test_traced_run_is_correct_and_emits_every_per_layer_metric(traced):
    names = {m["name"] for m in BENCHMARK["per_layer"]}
    for name, (detail, result, _) in traced.items():
        assert result["correct"], detail["failures"]
        assert set(result["metrics"]) == names, name


@pytest.mark.parametrize("metric", [m["name"] for m in BENCHMARK["per_layer"]])
def test_layer_metric_is_nonzero_where_the_layer_works(traced, metric):
    layer = metric.split(".")[0]
    if metric.endswith(".errors"):
        for _, result, _ in traced.values():
            assert result["metrics"][metric]["value"] == 0
        return
    home = "mincap" if layer == "trace" else HOME_OVERRIDES.get(metric, HOME[layer])
    assert traced[home][1]["metrics"][metric]["value"] > 0


def test_traced_digest_equals_untraced(traced):
    for detail, _, _ in traced.values():
        assert detail["digest_traced"] == detail["digest"]


def test_self_times_are_non_negative_and_within_wall_time(traced):
    for detail, result, wall in traced.values():
        for phase in detail["layer_self_s"].values():
            assert all(v >= 0 for v in phase.values())
        total = sum(v for phase in detail["layer_self_s"].values() for v in phase.values())
        assert total <= wall
        for name, metric in result["metrics"].items():
            if name.endswith("self_s"):
                assert 0 <= metric["value"] <= total


def test_tracer_self_time_excludes_children(tmp_path):
    tracer = tracing.Tracer()

    def leaf():
        time.sleep(0.01)

    leaf_span = tracer.span("spaces.leaf", leaf)

    def outer():
        time.sleep(0.01)
        leaf_span()
        leaf_span()

    outer_span = tracer.span("cli.outer", outer)
    start = time.perf_counter()
    with tracer.phase("query"):
        outer_span()
    wall = time.perf_counter() - start
    self_s = tracer.self_times()
    assert all(v >= 0 for v in self_s.values())
    assert sum(self_s.values()) <= wall
    assert self_s[("query", "spaces.leaf")] >= 0.02
    assert 0.01 <= self_s[("query", "cli.outer")] < 0.02
    tracer.write(tmp_path / "spans.gz")
    header, columns = tracing.read_spans(tmp_path / "spans.gz")
    assert header["spans"] == 4 and columns["parent"].tolist() == [-1, 0, 1, 1]


def _corrupt_mincap(out):
    code, text = out["mincap"]
    doc = json.loads(text)
    doc["min_sum"] += 1
    out["mincap"] = (code, json.dumps(doc))


def _corrupt_families(out):
    code, text = out["bound_gamma"]
    doc = json.loads(text)
    doc["empirical_violations"] = [["0", "w"]]
    out["bound_gamma"] = (code, json.dumps(doc))


def _corrupt_space(out):
    out["clopen"][0] = False


@pytest.mark.parametrize("name, corrupt", [
    ("mincap", _corrupt_mincap), ("families", _corrupt_families), ("space", _corrupt_space),
])
def test_corrupted_output_raises_error_rate(monkeypatch, name, corrupt):
    cls = workloads.WORKLOADS[name]
    query = cls.query

    def corrupted(self, fl, inst):
        out = query(self, fl, inst)
        if inst.index == 0:
            corrupt(out)
        return out

    monkeypatch.setattr(cls, "query", corrupted)
    detail, result, _ = _run("--workload", name, "--seed", 3, "--seconds", 1, "--trace", 0)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert detail["error_rate"] > 0
    assert result["metrics"]["success_rate"]["value"] < 1


def test_untraced_run_reports_every_end_to_end_metric():
    detail, result, _ = _run("--workload", "space", "--seed", 1, "--seconds", 1, "--trace", 0)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert len(detail["digest"]) == 64
