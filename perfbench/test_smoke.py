"""Smoke test of the benchmark: every workload at a tiny size, both modes.

Checks that each run prints every metric named in BENCHMARK.json with its
unit, both on a line of its own and in the final JSON object, and that the
benchmark refuses to run where the program is missing.  golden-march runs
here too, although BENCHMARK.json leaves it out of the timed set.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = ["golden-march"] + [w["name"] for w in SPEC["workloads"]]


def run_bench(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    named = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in named}
    for m in named:
        assert any(line.split()[:1] == [m["name"]] and m["unit"] in line.split()
                   for line in lines), m["name"]
    assert any(line.startswith("fail_ratio ") for line in lines)
    prov = json.loads(next(line for line in lines
                           if line.startswith("provenance "))[len("provenance "):])
    why = {w["name"]: w["why"] for w in SPEC["workloads"]}
    assert prov["why"] == why.get(workload, prov["why"])
    for key in ("git_revision", "nproc", "python", "numpy", "scipy", "sizes"):
        assert key in prov


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "formal-series", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
