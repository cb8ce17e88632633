"""Run the benchmark over several seeds and write a run record.

Usage (from the root of a checkout):

    python3 bench/record.py

Runs bench/run.py on every workload of BENCHMARK.json with seeds 1..10,
one run at a time, with the run length of BENCHMARK.json, then one traced
run per workload at seed 1.  The record holds the machine (nproc, Python
version, platform), the git sha when the checkout is a git repository,
every run's metrics, and per workload and metric the median, the
quartiles and the spread (quartile distance over median) next to the
metric's bound.  It goes to bench/records/BENCH_<date>.json and a table
to stdout.
"""

from __future__ import annotations

import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SEEDS = range(1, 11)


def git_sha() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "git_sha": git_sha(),
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform()},
        "run_seconds": seconds,
        "seeds": list(SEEDS),
        "workloads": {},
    }
    print(f"{'workload':8} {'metric':12} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in record["seeds"]:
            res = run_once(workload, seed, seconds, 0)
            runs.append({"seed": seed} | res)
            print(f"  {workload} seed {seed}: attempted {res['attempted']} failed {res['failed']}",
                  file=sys.stderr)
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        summary = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            summary[name] = summarize(values) | {
                "unit": runs[0]["metrics"][name]["unit"], "bound": bounds.get(name)}
            s = summary[name]
            print(f"{workload:8} {name:12} {s['median']:12.6g} {s['q1']:12.6g} {s['q3']:12.6g} "
                  f"{s['spread']:8.4f} {s['bound']:6}")
        entry = {
            "runs": runs,
            "summary": summary,
            "error_rate": {"value": failed / attempted, "failed": failed, "attempted": attempted},
        }
        print(f"{workload:8} {'error_rate':12} {failed}/{attempted}")
        entry["trace"] = run_once(workload, SEEDS[0], seconds, 1)
        record["workloads"][workload] = entry

    out = BENCH_DIR / "records" / f"BENCH_{datetime.date.today().isoformat()}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"record written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
