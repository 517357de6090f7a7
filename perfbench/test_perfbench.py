"""Smoke test of the benchmark harness at reduced input sizes.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import math
import shutil
import subprocess
import sys

import pytest

import run
import spans
import speed

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def expected_metrics(key):
    return {m["name"]: m["unit"] for m in BENCHMARK[key]}


def test_benchmark_json_matches_the_harness():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert expected_metrics("per_layer") == {name: unit for name, (unit, _, _) in spans.LAYER_METRICS.items()}
    assert {m["name"]: m["better"] for m in BENCHMARK["per_layer"]} == {
        name: better for name, (_, better, _) in spans.LAYER_METRICS.items()
    }


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_reduced_run_is_correct_and_reports_every_metric(workload):
    report, tracer = run.measure(workload, seed=3, seconds=0, trace=False, reduced=True)
    result = report["result"]
    assert tracer is None
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, report["failures"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected_metrics("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert report["digest"]

    traced, tracer = run.measure(workload, seed=3, seconds=0, trace=True, reduced=True)
    assert traced["result"]["correct"], traced["failures"]
    assert traced["digest"] == report["digest"]
    assert {k: v["unit"] for k, v in traced["result"]["metrics"].items()} == expected_metrics("per_layer")
    # every wrapper is gone again
    assert not tracer._patches
    import halfsquares.polytope

    assert not hasattr(halfsquares.polytope.GeneralPolytope.member, "__wrapped__")
    # the pass's self times add up to its traced time, and that is the traced run's wall_s
    (stats,) = tracer.pass_stats().values()
    assert math.isclose(sum(stats.self_s.values()), stats.total_s[spans.PASS_SPAN], rel_tol=1e-9)
    assert stats.calls[spans.PASS_SPAN] == 1 and len(stats.calls) > 1
    assert math.isclose(traced["layers"]["harness.pass.total_s"]["value"], traced["wall_s"]["median"], rel_tol=1e-3)


def test_quiet_seconds_scale_by_speed_and_add_up():
    probe = speed.SpeedProbe()
    ref = speed.REFERENCE_LOOP_S
    # samples 1 s apart: at the reference speed, then at half of it
    probe.starts = [0.0, 1.0, 2.0, 3.0]
    probe.durations = [ref, ref, 2 * ref, 2 * ref]
    clock = probe.clock()
    assert math.isclose(clock(1.0) - clock(0.0), 1.0 - ref)  # the sample's own time counts zero
    assert math.isclose(clock(2.0) - clock(1.0 + ref), 0.5 * (1.0 - ref))
    assert math.isclose(clock(3.0) - clock(0.5), (clock(3.0) - clock(1.7)) + (clock(1.7) - clock(0.5)))
    assert clock(0.0) == clock(ref / 2) == 0.0
    assert math.isclose(probe.slowdown(), 1.5)


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / run.HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "catalog", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
