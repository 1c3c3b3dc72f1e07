"""Smoke test for the benchmark harness at a tiny size (one-second runs).

Run from the repository root with ``python3 -m pytest perfbench/test_smoke.py``.
It takes about a minute; it is not part of the package's test suite.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_with_unit(workload, trace):
    out = run_bench(ROOT, workload, trace)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        printed = [ln.split() for ln in lines if ln.split()[:1] == [m["name"]]]
        assert printed and printed[0][-1] == m["unit"]
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"]
    if not trace:
        frac = [ln.split() for ln in lines if ln.startswith("failed_frac ")]
        assert frac == [["failed_frac", "0", "fraction"]]


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    out = run_bench(tmp_path, "factor_small", 0)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
