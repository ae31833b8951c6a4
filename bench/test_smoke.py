"""Smoke test of the benchmark harness at ``--tiny`` sizes.

Not part of tier-1 (``testpaths`` stays ``tests``); run it explicitly:

    python -m pytest bench -q
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys
import time
from functools import lru_cache
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


@lru_cache(maxsize=None)
def run(workload: str, trace: int, seed: int = 1, attempt: int = 0) -> dict:
    """One tiny run (cached per argument tuple; ``attempt`` forces a rerun)."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--tiny",
         "--seconds", "1", "--seed", str(seed), "--trace", str(trace)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert time.perf_counter() - t0 < 30.0
    return json.loads(proc.stdout.splitlines()[-1])


def test_names_are_well_formed_and_unique():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + WORKLOADS
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    result = run(workload, 0)
    assert set(result) == RESULT_KEYS
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for spec in SPEC["end_to_end"]:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"]
        assert math.isfinite(metric["value"]) and metric["value"] > 0, spec["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_and_trace(workload):
    result = run(workload, 1)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    trace = json.loads((BENCH / "results" / f"trace-{workload}.json").read_text())
    assert trace["traceEvents"], "the traced pass recorded no span"


def test_every_layer_has_self_time_somewhere():
    layers = [m["name"] for m in SPEC["per_layer"] if m["name"].endswith(".self_share")]
    assert len(layers) == 10
    for name in layers:
        assert any(run(w, 1)["metrics"][name]["value"] > 0 for w in WORKLOADS), name


@pytest.mark.parametrize("workload", ["batch_insert", "batch_mixed", "kernels_static"])
def test_counts_repeat_for_a_seed_and_change_with_it(workload):
    def counts(result):
        return {m["name"]: result["metrics"][m["name"]]["value"]
                for m in SPEC["per_layer"] if m["unit"] == "count"}

    first = counts(run(workload, 1))
    assert any(first.values())
    assert counts(run(workload, 1, attempt=1)) == first
    assert counts(run(workload, 1, seed=2)) != first


PINNED_PARENT = """
import sys
sys.path.insert(0, sys.argv[1])
import common
common.use_checkout_source()
from serve import Child
own, other = common.ALLOWED_CPUS[0], common.ALLOWED_CPUS[-1]
common.pin_to_cpu(own)
child = Child(["--scale", "9", "--seed", "1", "--cpu", str(other)])
try:
    print(child.cpus == [other])
finally:
    child.kill()
"""


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two CPUs")
def test_child_of_a_pinned_parent_runs_on_the_cpu_it_was_given():
    """serve_churn's child once inherited the parent's one-CPU mask and stayed on its core."""
    proc = subprocess.run([sys.executable, "-c", PINNED_PARENT, str(BENCH)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "True"


def test_leaves_no_process_behind():
    """The pool's resource tracker, which ends only after its parent, once outlived kernels_static."""
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "run.py"), "--workload", "kernels_static", "--tiny",
         "--seconds", "1", "--seed", "1", "--trace", "0"],
        stdout=subprocess.DEVNULL, start_new_session=True,
    )
    assert proc.wait(timeout=120) == 0
    with pytest.raises(ProcessLookupError):  # nobody left in the session it led
        os.killpg(proc.pid, 0)


def test_fails_without_the_program(tmp_path):
    """A directory holding only the benchmark has nothing to measure."""
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "batch_insert", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
