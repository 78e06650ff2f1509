"""Checks of the benchmark itself.

    python3 -m pytest bench/tests -q

The count metrics of the traced run (calls, cosets enumerated, products,
closure sizes, stage orders, report bytes) must repeat exactly across runs
whose string hashing differs, so that later changes can be gated on them.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

from run import run_subprocess  # noqa: E402
from tracer import COUNT_UNITS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def bench_run(root, workload, trace, hash_seed=0):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    return run_subprocess(workload, 0, 1, trace, root=root, env=env)


def result_of(run) -> dict:
    proc, result = run
    assert result is not None, proc.stderr
    assert result["correct"] and result["failed"] == 0, proc.stderr
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_across_hash_seeds(workload):
    a = result_of(bench_run(ROOT, workload, 1, hash_seed=1))["metrics"]
    b = result_of(bench_run(ROOT, workload, 1, hash_seed=2))["metrics"]
    assert set(a) == {m["name"] for m in BENCHMARK["per_layer"]}
    counts = [m["name"] for m in BENCHMARK["per_layer"] if m["unit"] in COUNT_UNITS]
    assert {n: a[n]["value"] for n in counts} == {n: b[n]["value"] for n in counts}


def test_end_to_end_metrics_match_benchmark_json():
    metrics = result_of(bench_run(ROOT, "verify", 0))["metrics"]
    assert {n: m["unit"] for n, m in metrics.items()} == \
        {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in metrics.values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc, _ = bench_run(str(tmp_path), "verify", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
