"""The benchmark's output checks, on the small size of every declared workload.

Each run compares its model against the pinned sha256 and `total_cycles`
of its workload, so a change that alters the trained bytes fails here.
Nothing is timed.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_small_run_is_correct(workload):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "0", "--trace", "0", "--small"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, out.stdout
