"""Self-test of the benchmark.

Run from the repository root with `python3 -m pytest -q bench/test_bench.py`.
It runs every workload twice with the same seed, calling each instance once,
so it takes several minutes.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import END_TO_END, PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def bench(cwd, *args):
    done = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=900,
    )
    return done


def details_and_result(done):
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    details, result = json.loads(lines[-2]), json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, details["failures"]
    assert result["attempted"] >= 1
    return details, result


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_gives_same_outputs_and_counters(workload):
    args = ("--workload", workload, "--seed", "7", "--seconds", "0", "--trace", "0")
    first, result = details_and_result(bench(ROOT, *args))
    second, _ = details_and_result(bench(ROOT, *args))
    assert first["outputs"] == second["outputs"]
    assert first["deterministic"] == second["deterministic"]
    assert set(result["metrics"]) == set(END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_layer_metric(tmp_path):
    args = ("--workload", "bound", "--seed", "7", "--trace", "1", "--profile", str(tmp_path))
    details, result = details_and_result(bench(ROOT, *args))
    assert set(result["metrics"]) == set(PER_LAYER)
    assert sum(details["buckets_s"].values()) == pytest.approx(
        result["metrics"]["trace.wall_s"]["value"], rel=1e-6
    )
    assert result["metrics"]["bound.score_calls"]["value"] > 0
    assert (tmp_path / "bound.prof").is_file()


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = bench(tmp_path, "--workload", "bound", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
