"""Smoke tests of the end-to-end benchmark: ``python -m pytest benchmarks/e2e``.

Every workload runs at a tiny size (``--smoke``), traced and untraced;
the tests check the output format, that tampered program outputs are
counted as failed, and that the inputs are a function of the seed.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys

import pytest

import bench

sys.path.insert(0, str(bench.SRC))

import workloads  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())


def run_cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(bench.HERE / "bench.py"), *args],
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_benchmark_json_matches_the_harness():
    assert [m["name"] for m in SPEC["end_to_end"]] == list(bench.END_TO_END)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == bench.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)
    assert list(workloads.WORKLOADS) == list(bench.WORKLOADS)
    for entry in SPEC["workloads"]:
        assert entry["why"] == workloads.WORKLOADS[entry["name"]].why
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert max(m["bound"] for m in SPEC["end_to_end"]) == next(
        m["bound"] for m in SPEC["end_to_end"] if m["name"] == "setup_s"
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_reports_every_metric(trace):
    proc = run_cli("--smoke", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= len(bench.WORKLOADS)
    expected = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    for workload in bench.WORKLOADS:
        for metric in expected:
            reported = result["metrics"][f"{workload}/{metric['name']}"]
            assert reported["unit"] == metric["unit"]
            assert math.isfinite(reported["value"])
            if trace == "0":
                assert reported["value"] > 0
    if trace == "1":
        for workload in bench.WORKLOADS:
            assert (bench.HERE / "out" / f"{workload}-seed0.jsonl").stat().st_size > 0


def test_traced_run_accounts_for_wall_time(tmp_path):
    record = bench.execute(
        "ccn-contention", 0, seconds=0, trace=True, smoke=True, trace_dir=tmp_path
    )
    summary = record["trace_summary"]
    assert summary["accounted_frac"] == pytest.approx(1.0, abs=0.05)
    assert summary["layer_self_s"]["ccn"] > 0 and summary["layer_self_s"]["catalog"] > 0
    assert record["metrics"]["ccn.fast_path_frac.relaxed"] > 0


def test_self_time_subtracts_children():
    tracer = Tracer()
    tracer.enabled = True
    with tracer.span("outer.call"):
        with tracer.span("inner.call"):
            pass
    spans = tracer.take()
    outer, inner = sorted(spans, key=lambda s: s["start"])
    wall = outer["end"] - outer["start"] + 1.0
    summary = self_times(spans, wall)
    assert inner["parent"] == outer["id"]
    assert summary["self_s"]["outer.call"] == pytest.approx(
        (outer["end"] - outer["start"]) - (inner["end"] - inner["start"])
    )
    assert sum(summary["self_s"].values()) + summary["unattributed_s"] == pytest.approx(wall)


def test_a_level_off_by_1e_6_is_counted_as_failed(monkeypatch):
    original = workloads.solve_batch

    def tampered(grid, **kwargs):
        strategy = original(grid, **kwargs)
        return dataclasses.replace(strategy, level=strategy.level + 1e-6)

    monkeypatch.setattr(workloads, "solve_batch", tampered)
    record = bench.execute("grid-plan", 0, seconds=0, smoke=True)
    assert record["failed"] > 0
    assert any("oracle" in failure for failure in record["failures"])


def test_one_extra_origin_hit_is_counted_as_failed(monkeypatch):
    original = workloads.DynamicSimulator.run

    def tampered(self, workload, count, *, batched=None, **kwargs):
        metrics = original(self, workload, count, batched=batched, **kwargs)
        if batched is False:
            return metrics
        return dataclasses.replace(
            metrics, origin_hits=metrics.origin_hits + 1, local_hits=metrics.local_hits - 1
        )

    monkeypatch.setattr(workloads.DynamicSimulator, "run", tampered)
    record = bench.execute("sim-policies", 0, seconds=0, smoke=True)
    assert record["failed"] > 0
    assert any("scalar" in failure for failure in record["failures"])


@pytest.mark.parametrize("name", bench.WORKLOADS)
def test_input_digest_is_a_function_of_the_seed(name):
    make = workloads.WORKLOADS[name]
    digest = make(0, smoke=True).input_digest()
    assert make(0, smoke=True).input_digest() == digest
    assert make(1, smoke=True).input_digest() != digest


@pytest.mark.parametrize(
    "base, new, better, verdict",
    [
        ([100, 101, 99], [100, 102, 98], "higher", "unchanged"),
        ([100, 101, 99], [80, 81, 79], "higher", "worse"),
        ([100, 101, 99], [80, 81, 79], "lower", "better"),
        ([100, 150, 60], [100, 160, 50], "lower", "unresolved"),
        ([100, 150, 60], [200, 210, 190], "lower", "worse"),
    ],
)
def test_compare_verdicts(base, new, better, verdict):
    assert bench.judge(base, new, better, 0.1) == verdict


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    skip = shutil.ignore_patterns("out", "__pycache__")
    for path in SPEC["paths"]:
        shutil.copytree(bench.ROOT / path, tmp_path / path, ignore=skip)
    args = ["--workload", "grid-plan", "--seed", "0", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], *args],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
