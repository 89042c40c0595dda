"""Smoke test of the benchmark at tiny run lengths.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that every metric declared in BENCHMARK.json is reported, that no
op fails, and that input generation depends on the seed and on nothing else.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SEED = 3

def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "0.3", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    shown, conditions = {}, None
    for line in lines:
        if line.startswith("# metric "):
            name, value, unit = line.split()[2:5]
            shown[name] = (float(value), unit)
        elif line.startswith("# conditions "):
            conditions = json.loads(line[len("# conditions "):])
    return json.loads(lines[-1]), shown, conditions


def test_workloads_match_spec():
    assert [w["name"] for w in _spec()["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_depend_only_on_seed(workload):
    first = workloads.digest(workloads.generate(workload, 1))
    assert workloads.digest(workloads.generate(workload, 1)) == first
    assert workloads.digest(workloads.generate(workload, 2)) != first


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_reported_and_no_op_fails(workload, trace):
    result, shown, conditions = _run(workload, trace)
    assert conditions["inputs_sha256"] == workloads.digest(workloads.generate(workload, SEED))
    declared = _spec()["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert shown[metric["name"]][1] == metric["unit"]
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert shown["fail_ratio"] == (0.0, "ratio")
