"""Smoke test for the benchmark: one op per workload and mode at tiny sizes.

Run from the repository root with:  python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, *flags: str) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3", "--smoke", *flags],
        capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_metric_is_reported_with_its_unit(workload, trace, kind):
    result = _run(workload, "--trace", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in SPEC[kind]}
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], (int, float)) and math.isfinite(entry["value"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrong_reference_is_a_failed_op_not_a_crash(workload):
    result = _run(workload, "--trace", "0", "--wrong-reference")
    assert result["correct"] is False
    assert result["attempted"] == result["failed"] == 1
