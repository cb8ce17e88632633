"""Smoke self-test of the benchmark.

Run from the root of a checkout:

    python3 -m pytest -q bench/test_smoke.py      (or: python3 bench/test_smoke.py)

Runs every workload of BENCHMARK.json for one second, untraced and
traced, and checks that the result line carries every metric that
BENCHMARK.json names, with its unit, and that all outputs were correct.
Also checks that the benchmark refuses to run without the gk3 sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    argv = list(SPEC["command"]) + [
        "--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)


def _check(workload: str, trace: int) -> None:
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]
        if not trace:
            assert got["value"] > 0, m["name"]


def test_end_to_end_metrics_emitted():
    for w in SPEC["workloads"]:
        _check(w["name"], 0)


def test_per_layer_metrics_emitted():
    for w in SPEC["workloads"]:
        _check(w["name"], 1)


def test_refuses_without_sources():
    bare = ROOT / ".bench_work" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for p in SPEC["paths"]:
            shutil.copytree(ROOT / p, bare / p, ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(SPEC["workloads"][0]["name"], 0, cwd=bare)
        assert proc.returncode != 0
        assert proc.stdout.strip() == ""
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    for test in (test_end_to_end_metrics_emitted, test_per_layer_metrics_emitted, test_refuses_without_sources):
        test()
        print(f"{test.__name__}: ok")
