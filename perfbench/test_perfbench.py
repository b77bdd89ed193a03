"""Tests of the benchmark itself (not part of the tier-1 suite):

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import types

import pytest

import run
import tracing
from workloads import WORKLOADS

HS = run.import_program()

# Counts and ratios a trace reports; everything else it reports is a time.
COUNT_UNITS = ("count", "count/epoch", "ratio", "B")

# A seed with no pinned digest, so shortened scenarios are not compared
# against the full-length pins.
SEED = 7


def short_bench(workload: str, epochs: int) -> run.Bench:
    bench = run.Bench(HS, workload, SEED)
    scenario = bench.scenario
    scenario["epochs"] = epochs
    scenario["events"] = [e for e in scenario.get("events", []) if e["epoch"] <= epochs]
    return bench


def trace_counts(workload: str, epochs: int) -> tuple[dict, dict]:
    bench = short_bench(workload, epochs)
    metrics = bench.trace()
    assert bench.tally.problems == []
    assert bench.tally.failed == 0 and bench.tally.attempted > 0
    with open(os.path.join(run.OUT, f"{workload}.trace.json"), encoding="utf-8") as handle:
        per_epoch = json.load(handle)["calls_per_epoch"]
    counts = {name: value for name, (value, unit) in metrics.items()
              if unit in COUNT_UNITS and name != "trace_overhead"}
    return counts, per_epoch


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_generators_are_seeded_and_valid(workload):
    generate = WORKLOADS[workload][0]
    assert generate(3) == generate(3)
    assert generate(3) != generate(4)
    config = HS.config.parse_scenario(generate(3))
    assert config.name == workload


@pytest.mark.parametrize("workload,epochs", [
    ("renew-secp", 1), ("scale-nocurve", 3), ("churn-redeal", 3),
])
def test_two_traced_runs_count_the_same(workload, epochs):
    first, first_per_epoch = trace_counts(workload, epochs)
    second, second_per_epoch = trace_counts(workload, epochs)
    assert first == second
    assert first_per_epoch == second_per_epoch
    assert len(first_per_epoch["simnet.send"]) == epochs + 2
    if workload != "renew-secp":
        assert first["curve.scalar_mul.calls"] == 0
        assert first["curve.point_add.calls"] == 0
    if workload == "churn-redeal":
        assert first["proactive.verify_renewal.calls"] == 0
        assert first["snapshot.bytes"] > 0
    else:
        assert first["snapshot.bytes"] == 0


def test_trace_metrics_match_benchmark_json():
    with open(os.path.join(os.path.dirname(run.HERE), "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = {m["name"]: m["unit"] for m in json.load(handle)["per_layer"]}
    metrics = short_bench("scale-nocurve", 1).trace()
    assert {name: unit for name, (_value, unit) in metrics.items()} == declared


def test_self_times_partition_the_traced_time():
    bench = short_bench("scale-nocurve", 2)
    tracer = tracing.Tracer()
    bench.tracer = tracer
    with tracer:
        assert bench.complete_run() is not None
    summary = tracer.summary()
    roots = sum(end - start for start, end, parent
                in zip(tracer._start, tracer._end, tracer._parent) if parent < 0)
    assert sum(entry["self_s"] for entry in summary.values()) == pytest.approx(roots)
    assert all(entry["self_s"] >= 0 for entry in summary.values())


def test_tracer_restores_every_import_site():
    originals = (HS.curve.scalar_mul, HS.proactive.scalar_mul, HS.hierarchy.scalar_mul,
                 HS.hierarchy.HierarchyTree.children_of, HS.simnet.World.send)
    with tracing.Tracer():
        assert HS.proactive.scalar_mul is not originals[1]
        assert HS.proactive.scalar_mul is HS.hierarchy.scalar_mul is HS.curve.scalar_mul
        assert HS.simnet.World.send is not originals[4]
    assert (HS.curve.scalar_mul, HS.proactive.scalar_mul, HS.hierarchy.scalar_mul,
            HS.hierarchy.HierarchyTree.children_of, HS.simnet.World.send) == originals


def test_reference_clock_scales_by_the_kernel_around_each_step(monkeypatch):
    kernel = iter([0.002, 0.004, 0.003, 0.003])
    monkeypatch.setattr(run, "_kernel", lambda: next(kernel))
    clock = run.ReferenceClock()
    times = iter([10.0, 10.5, 20.0, 21.0])
    monkeypatch.setattr(run, "time", types.SimpleNamespace(perf_counter=lambda: next(times)))
    assert clock.stop(clock.start()) == pytest.approx(0.5 * run.REFERENCE_S / 0.003)
    assert clock.stop(clock.start()) == pytest.approx(1.0 * run.REFERENCE_S / 0.003)
    assert clock.scale() == pytest.approx(run.REFERENCE_S / 0.003)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_row_checks_fail_on_a_wrong_row(workload):
    generate, check_row, _ = WORKLOADS[workload]
    scenario = generate(SEED)
    scenario["epochs"] = 1
    scenario["events"] = [e for e in scenario.get("events", []) if e["epoch"] <= 1]
    world = HS.simnet.World(HS.config.parse_scenario(scenario))
    world.run()
    for row in world.report.rows:
        assert check_row(scenario, row) == []
        assert check_row(scenario, {**row, "secret_intact": False}) != []
        wrong = dict(row["messages"])
        wrong["reqm" if row["epoch"] == 0 else "renewal-delta"] = 1
        assert check_row(scenario, {**row, "messages": wrong}) != []


def test_tampered_digest_fails_the_final_operation():
    bench = short_bench("scale-nocurve", 1)
    bench.pinned_digest = "0" * 64
    assert bench.complete_run() is not None
    assert bench.tally.failed == 1
    assert "differs from the pinned" in bench.tally.problems[0]


def test_refuses_to_run_without_the_program(tmp_path):
    root = os.path.dirname(run.HERE)
    shutil.copy(os.path.join(root, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "renew-secp", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode != 0
    assert "{" not in result.stdout
