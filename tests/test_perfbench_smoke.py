"""Smoke run of the benchmark: every workload, untraced and traced, for one
second.  The benchmark checks its own outputs (traced solves bit-identical to
untraced ones, combined_pcg's iteration count equal to pcg's, combined loads
below pcg's at 256 KiB, the operator proxy of the traced run); this makes
those checks part of the test suite."""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
WORKLOADS = [w["name"] for w in
             json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_benchmark_round_is_correct(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0
    for name, metric in result["metrics"].items():
        value = metric["value"]
        assert value is not None and math.isfinite(value), name
