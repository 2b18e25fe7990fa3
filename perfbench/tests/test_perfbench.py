"""Tests of the benchmark itself, on a shrunken bias-grid workload."""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import run  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def bench(monkeypatch, tmp_path, capsys):
    """Run bias-grid at 256 runs per point for one pass; return the result line."""
    small = dataclasses.replace(workloads.WORKLOADS["bias-grid"], runs=256)
    monkeypatch.setitem(workloads.WORKLOADS, "bias-grid", small)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)

    def bench_once(trace: int) -> dict:
        argv = ["--workload", "bias-grid", "--seed", "3", "--seconds", "0", "--trace", str(trace)]
        assert run.main(argv) == 0
        return json.loads(capsys.readouterr().out.splitlines()[-1])

    return bench_once


def test_printed_metrics_match_benchmark_json(bench, tmp_path):
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result = bench(trace)
        assert result["correct"] and result["failed"] == 0
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        assert printed == {m["name"]: m["unit"] for m in spec[key]}
    spans = json.loads((tmp_path / "bias-grid-seed3-trace1-spans.json").read_text())
    assert {"id", "name", "pass", "parent", "start", "end"} <= set(spans[0])


def test_forced_check_failure_raises_error_rate(bench, monkeypatch, tmp_path):
    reference = workloads.load_reference()
    for row in reference["bias-grid"].values():
        row["estimate"] += 0.5
    monkeypatch.setattr(workloads, "load_reference", lambda: reference)
    result = bench(0)
    assert not result["correct"]
    assert result["attempted"] >= 1 and result["failed"] == result["attempted"]
    summary = json.loads((tmp_path / "bias-grid-seed3-trace0.json").read_text())
    assert summary["error_rate"] == 1.0
