"""Smoke test of the benchmark itself.

Runs every workload of BENCHMARK.json at its smallest size with tracing on
and checks that the result file holds every end-to-end and per-layer
metric with its unit, that no op failed, and that the last line of stdout
is the summary the benchmark contract asks for. Run from the repository
root:

    python3 -m pytest bench/test_smoke.py
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_at_tiny_size(workload):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", "1", "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    summary = json.loads(lines[-1])
    assert summary["correct"] and summary["failed"] == 0
    assert summary["attempted"] >= 1
    assert {m["name"] for m in SPEC["per_layer"]} == set(summary["metrics"])

    path = re.search(r"result file (\S+)", proc.stdout).group(1)
    result = json.loads(Path(path).read_text())
    assert result["end_to_end"]["fail_frac"]["value"] == 0
    for section in ("end_to_end", "per_layer"):
        for metric in SPEC[section]:
            reported = result[section][metric["name"]]
            assert reported["unit"] == metric["unit"], metric["name"]
            assert isinstance(reported["value"], (int, float)), metric["name"]
    for name in ("cpu_model", "nproc", "python", "numpy", "scipy", "blas_threads"):
        assert name in result["machine"]


def test_refuses_to_run_without_sources(tmp_path):
    """In a directory with only the benchmark, it exits non-zero and
    prints no result."""
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "run.py").write_text((ROOT / "bench" / "run.py").read_text())
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "cli_batch",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
