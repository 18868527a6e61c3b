"""Smoke test of the benchmark (run as ``pytest benchmarks/suite``; not
part of the tier-1 ``testpaths``).

Runs every workload at ``--smoke`` size (egos=24, 2 s windows), untraced
and traced, through the same command line the driver uses, and asserts
the output contract: every name of ``BENCHMARK.json`` is printed exactly
once per workload with its unit, nothing failed, and the result line is
the last line of stdout.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

SUITE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(SUITE))

with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as _handle:
    SPEC = json.load(_handle)

WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_benchmark(workload: str, trace: int) -> dict:
    command = SPEC["command"] + [
        "--workload", workload, "--seed", "7", "--seconds", "2",
        "--trace", str(trace), "--smoke",
    ]
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    return {"stdout": done.stdout, "result": json.loads(done.stdout.rstrip().split("\n")[-1])}


def test_catalogue_shape():
    assert WORKLOADS == ["point_lookup", "scan_analytics", "durable_lifecycle", "http_serve"]
    names = [e["name"] for e in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert any(
        e["name"] == "setup_s" and e["unit"] == "s" and e["better"] == "lower"
        for e in SPEC["end_to_end"]
    )
    sys.path.insert(0, SUITE)
    try:
        from predictions import LAYERS
    finally:
        sys.path.remove(SUITE)
    assert [(n, u, b) for n, u, b, *_ in LAYERS] == [
        (e["name"], e["unit"], e["better"]) for e in SPEC["per_layer"]
    ]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    run = run_benchmark(workload, trace=0)
    result = run["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == [e["name"] for e in SPEC["end_to_end"]]
    for entry in SPEC["end_to_end"]:
        metric = result["metrics"][entry["name"]]
        assert metric["unit"] == entry["unit"]
        assert metric["value"] > 0, entry["name"]
        printed = [
            line for line in run["stdout"].split("\n")
            if line.split()[:1] == [entry["name"]]
        ]
        assert len(printed) == 1 and printed[0].split()[-1] == entry["unit"]
    assert "failed_share" in run["stdout"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(workload):
    run = run_benchmark(workload, trace=1)
    result = run["result"]
    assert result["correct"] is True and result["failed"] == 0
    assert list(result["metrics"]) == [e["name"] for e in SPEC["per_layer"]]
    values = {name: m["value"] for name, m in result["metrics"].items()}
    for entry in SPEC["per_layer"]:
        printed = [
            line for line in run["stdout"].split("\n")
            if line.split()[:1] == [entry["name"]]
        ]
        assert len(printed) == 1 and entry["unit"] in printed[0].split()
    # Layer isolation: durable/WAL layers work only on durable_lifecycle,
    # the server only on http_serve.
    durable_only = values["wal.fsync_ms"] > 0 and values["durable.recover_s"] > 0
    assert durable_only == (workload == "durable_lifecycle")
    assert (values["server.overhead_ms"] > 0) == (workload == "http_serve")
    if workload == "scan_analytics":
        assert values["plancache.hit_rate"] >= 0.9
        assert values["frontend.share"] < 0.05
