"""Smoke run of every benchmark workload: each runs, every op passes its output
check and every metric named in BENCHMARK.json is reported with its unit.
Nothing here looks at a timing.

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in BENCH["workloads"]]


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_workload_runs_clean(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0.5", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["failed"] == 0 and result["correct"], proc.stderr
    assert result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted


def test_workload_reasons_match_benchmark_json():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        from workloads import WORKLOADS
    finally:
        del sys.path[:2]
    assert {name: w.why for name, w in WORKLOADS.items()} == {
        w["name"]: w["why"] for w in BENCH["workloads"]
    }


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", NAMES[0], "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
