"""The benchmark runs end to end: every workload at toy size, traced,
checks its own work and reports exactly the per-layer metrics
BENCHMARK.json declares.  Nothing here looks at a time.

Each run is made from a copy of perfbench/ in a temporary directory
whose src/ links to the checkout's, so the results it writes under
.perfbench/ land there and leave the checkout's own results alone."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload",
                         [w["name"] for w in BENCHMARK["workloads"]])
def test_toy_run_is_correct_and_reports_every_per_layer_metric(workload,
                                                               tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", workload,
         "--seed", "1", "--seconds", "0", "--size", "toy", "--trace", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert list(result["metrics"]) \
        == [m["name"] for m in BENCHMARK["per_layer"]]
