"""Tiny-size smoke runs of every workload.

    python3 -m pytest perfbench -q

Each workload runs once with tracing off and once with it on, at
``--tiny`` sizes for two seconds. The result line must carry exactly
the metric names and units ``BENCHMARK.json`` lists, and the answer
checks must have run and passed.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run(workload: str, trace: int):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "2", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=300, cwd=str(HERE.parent),
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    report = json.loads("\n".join(lines[:-1]))
    return report, json.loads(lines[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_prints_every_metric_and_checks_answers(workload, trace, key):
    report, result = run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, report["problems"]
    assert result["attempted"] >= 1
    assert report["checks"] > 0
    expected = {m["name"]: m["unit"] for m in SPEC[key]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == expected
    if trace:
        assert report["answers_compared"] > 0
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_a_checkout_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "batch-solve",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120, cwd=str(tmp_path),
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
