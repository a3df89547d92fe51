"""Smoke tests of the benchmark itself: tiny sizes, every workload, check and
span. Run with `python3 -m pytest -q perfbench/test_smoke.py`."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def _run(cwd, *args, timeout=180):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


def test_per_layer_table_matches_benchmark_json():
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == [
        (name, unit, better) for name, unit, better, *_ in tracing.PER_LAYER]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run(workload, trace):
    proc = _run(ROOT, "--smoke", "--workload", workload, "--seed", "1",
                "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 1
    expected = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected}
    if trace:
        spans_file = ROOT / ".perfbench" / f"spans-{workload}-seed1.jsonl"
        records = [json.loads(line) for line in spans_file.read_text().splitlines()]
        assert records[0]["kind"] == "run" and "env" in records[0]
        spans = records[1:]
        assert spans and all({"name", "start", "end", "thread", "parent"} <= set(s)
                             for s in spans)
        assert result["metrics"]["trace.span_coverage"]["value"] > 0.9
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_smoke_other_seed_passes_property_checks():
    proc = _run(ROOT, "--smoke", "--workload", "trial_plan", "--seed", "5",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"]


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "cli_points", "--seed", "1", "--seconds", "1",
                "--trace", "0", timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
