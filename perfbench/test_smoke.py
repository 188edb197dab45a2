"""Smoke test of the benchmark itself (not part of the tilefold test suite).

    python3 -m pytest perfbench/test_smoke.py -q

Runs every workload once per trace mode at a tiny size and checks that the
last line names every metric of BENCHMARK.json with its unit and reports a
correct run.  `report all` has no smaller size, so its two cases take about
three minutes together; the others take seconds.
"""

import json
import os
import subprocess
import sys

import pytest

import cones
import run

BENCHMARK = os.path.join(run.ROOT, "BENCHMARK.json")


def _spec():
    with open(BENCHMARK, "r", encoding="utf-8") as fh:
        return json.load(fh)


def test_benchmark_json_matches_the_runner():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


def test_same_seed_same_cones_and_points():
    assert cones.make_cones(5, 12) == cones.make_cones(5, 12)
    assert cones.make_cones(5, 12) != cones.make_cones(6, 12)
    dims = [c["dim"] for c in cones.make_cones(5, len(cones.SHAPES))]
    assert dims == [d for d, _ in cones.SHAPES]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_workload_prints_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--scale", "0.06"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0, proc.stderr
    assert out["attempted"] >= 1
    key = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in _spec()[key]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    assert all(isinstance(v["value"], (int, float)) for v in out["metrics"].values())


def test_refuses_to_run_outside_a_checkout(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in ("run.py", "child.py", "tracer.py", "cones.py"):
        (bench / name).write_text(open(os.path.join(run.HERE, name), encoding="utf-8").read())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "group_verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
