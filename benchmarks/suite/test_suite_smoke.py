"""Smoke test of the benchmark itself: ``pytest benchmarks/suite``.

Not part of the tier-1 suite (``testpaths`` is ``tests``).  Every
workload runs once untraced and once traced with ``--smoke`` sizes, two
workloads at a time, and the result lines are validated against
BENCHMARK.json.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    DECLARED = json.load(_handle)


def run(workload: str, trace: int):
    finished = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "11", "--trace", str(trace), "--smoke"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=120)
    assert finished.returncode == 0, finished.stderr[-2000:]
    detail, contract = finished.stdout.strip().splitlines()[-2:]
    return json.loads(detail), json.loads(contract)


@pytest.fixture(scope="module")
def results():
    jobs = [(entry["name"], trace) for entry in DECLARED["workloads"]
            for trace in (0, 1)]
    with ThreadPoolExecutor(max_workers=2) as pool:
        outcomes = list(pool.map(lambda job: run(*job), jobs))
    return dict(zip(jobs, outcomes))


def test_declaration_is_consistent():
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import layers
    import workloads
    assert [entry["name"] for entry in DECLARED["workloads"]] \
        == list(workloads.WORKLOADS)
    assert [(entry["name"], entry["unit"], entry["better"])
            for entry in DECLARED["per_layer"]] == layers.PER_LAYER
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in DECLARED[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert "setup_s" in names
    assert all(0 < entry["bound"] <= 0.25 for entry in DECLARED["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
def test_every_workload_reports_every_declared_metric(results, trace):
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    for workload in DECLARED["workloads"]:
        detail, contract = results[workload["name"], trace]
        assert set(contract) == {"correct", "attempted", "failed", "metrics"}
        assert contract["correct"] and contract["failed"] == 0
        assert contract["attempted"] >= 1
        assert sorted(contract["metrics"]) == sorted(
            entry["name"] for entry in declared)
        for entry in declared:
            metric = contract["metrics"][entry["name"]]
            assert set(metric) == {"value", "unit"}
            assert metric["unit"] == entry["unit"]
            assert isinstance(metric["value"], (int, float))
        assert detail["seed"] == 11
        assert detail["host"]["cores"] >= 1
        assert detail["host"]["python"].count(".") == 2


def test_end_to_end_metrics_are_never_zero(results):
    for workload in DECLARED["workloads"]:
        _, contract = results[workload["name"], 0]
        assert all(metric["value"] > 0
                   for metric in contract["metrics"].values())


def test_traced_run_covers_the_operation(results):
    for workload in DECLARED["workloads"]:
        detail, _ = results[workload["name"], 1]
        metrics = detail["metrics"]
        assert 0.9 <= metrics["trace.coverage"]["value"] <= 1.1
        assert metrics["trace.overhead_ratio"]["value"] > 0
        for name, metric in metrics.items():
            # What a workload cannot measure is null with the reason.
            assert metric["value"] is not None or metric["reason"], name
