"""The gk3 benchmark: one workload, one seed, one JSON line of metrics.

Usage (from the root of a checkout):

    python3 bench/run.py --workload survey|rank22|cli --seed N --seconds S --trace 0|1

The load is a closed loop with one client: each op starts when the
previous one has finished, in a fresh interpreter per run (per command
for cli), so gk3's memo caches start empty as they do for a CLI user.

--trace 0 prints the end-to-end metrics of BENCHMARK.json: setup_s (the
median of SETUP_REPEATS cold starts up to the first ready op), ops_per_s,
op_p50_ms / op_p90_ms (time per op; a survey call counts as its samples)
and peak_rss_mb (the process that runs the ops; on cli the largest gk3
command, not the harness).  --trace 1 runs the workload's first ops under the
tracer, replays the same ops untraced, and prints the per-layer metrics
with trace_overhead_ratio.  The last line of stdout is the JSON result;
a summary goes to stderr.  The exit code is 0 when the run completed,
whether or not every output was correct ("correct" says that).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 7
RUN_BUDGET_S = 170  # every run of this script ends well within 180 s


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]) of a non-empty list."""
    ordered = sorted(values)
    k = max(0, min(len(ordered) - 1, -(-len(ordered) * q // 100) - 1))
    return ordered[int(k)]


class Runner:
    def __init__(self, workload: str, seed: int, seconds: int):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.started = time.monotonic()
        self.env = workloads.env_with_src(ROOT)
        self.workdir = ROOT / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"

    def child(self, mode: str, ops: int = 0, spans: Path | None = None) -> tuple[float, dict]:
        """Run child.py; returns (seconds from spawn to ready, its JSON result)."""
        argv = [
            sys.executable,
            str(BENCH_DIR / "child.py"),
            "--workload", self.workload,
            "--seed", str(self.seed),
            "--mode", mode,
            "--seconds", str(self.seconds),
            "--ops", str(ops),
            "--workdir", str(self.workdir),
        ]
        if spans is not None:
            argv += ["--spans", str(spans)]
        budget = RUN_BUDGET_S - (time.monotonic() - self.started)
        spawned = time.monotonic()
        proc = subprocess.run(
            argv, cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=max(budget, 1)
        )
        if proc.returncode != 0:
            raise RuntimeError(f"child {mode} exited {proc.returncode}: {proc.stderr[-2000:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        return result["ready"] - spawned, result

    def end_to_end(self) -> tuple[dict, dict]:
        # half the cold starts before the run and half after it, so that the
        # median does not rest on one moment of the machine's speed
        setups = [self.child("setup")[0] for _ in range(SETUP_REPEATS // 2)]
        ready_s, res = self.child("run")
        setups.append(ready_s)
        setups += [self.child("setup")[0] for _ in range(SETUP_REPEATS // 2)]
        times, units = res["times"], res["units"]
        per_op_ms = [1000 * t / max(n, 1) for t, n in zip(times, units)]
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "ops_per_s": (sum(units) / sum(times), "1/s"),
            "op_p50_ms": (statistics.median(per_op_ms), "ms"),
            "op_p90_ms": (percentile(per_op_ms, 90), "ms"),
            "peak_rss_mb": (res["rss_kb"] / 1024, "MB"),
        }
        return metrics, res

    def per_layer(self) -> tuple[dict, dict]:
        cls = workloads.WORKLOADS[self.workload]
        spans = ROOT / ".bench_out" / f"spans-{self.workload}-{self.seed}.jsonl"
        spans.parent.mkdir(exist_ok=True)
        _, traced = self.child("trace", ops=cls.trace_ops, spans=spans)
        _, plain = self.child("replay", ops=len(traced["times"]))
        traced_s, plain_s = sum(traced["times"]), sum(plain["times"])
        metrics = layer_metrics(traced["trace"])
        metrics["trace_overhead_ratio"] = (traced_s / plain_s, "ratio")
        metrics["trace.traced_s"] = (traced_s, "s")
        metrics["trace.untraced_s"] = (plain_s, "s")
        print(f"spans in {spans.relative_to(ROOT)}; not loaded or removed: {traced['trace']['absent']}",
              file=sys.stderr)
        merged = {
            "times": traced["times"] + plain["times"],
            "units": traced["units"] + plain["units"],
            "failures": traced["failures"] + plain["failures"],
        }
        return metrics, merged


def layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric name with its unit, in BENCHMARK.json order."""
    names = [("scalars.QuadScalar.constructed", "count"), ("scalars.check_field_tag.calls", "count")]
    for modname, fnames in tracer.SPANNED.items():
        for fname in fnames:
            names += [(f"{modname[4:]}.{fname}.calls", "count"), (f"{modname[4:]}.{fname}.self_s", "s")]
    names += [
        ("intlinalg.max_entry_bits", "bits"),
        ("mukai.exponential_class.distinct", "count"),
        ("mukai.exponential_class.distinct_ratio", "ratio"),
        ("cli.import_s", "s"),
    ]
    for cname in tracer.CACHES:
        base = "cache." + cname.lstrip("_")
        names += [
            (f"{base}.present", "count"),
            (f"{base}.hits", "count"),
            (f"{base}.misses", "count"),
            (f"{base}.hit_ratio", "ratio"),
        ]
    names += [("trace_overhead_ratio", "ratio"), ("trace.traced_s", "s"), ("trace.untraced_s", "s")]
    return names


def layer_metrics(snap: dict) -> dict:
    units = dict(layer_names())
    out = {}
    for name, (calls, self_s) in snap["layers"].items():
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.self_s"] = (self_s, "s")
    for name, count in snap["counts"].items():
        out[name] = (count, "count")
    out["intlinalg.max_entry_bits"] = (snap["max_entry_bits"], "bits")
    calls, distinct = snap["exp_calls"], snap["exp_distinct"]
    out["mukai.exponential_class.distinct"] = (distinct, "count")
    out["mukai.exponential_class.distinct_ratio"] = (distinct / calls if calls else 0.0, "ratio")
    imports = snap.get("import_n", 0)
    out["cli.import_s"] = (snap.get("import_s", 0.0) / imports if imports else 0.0, "s")
    for cname, hm in snap["caches"].items():
        base = "cache." + cname.lstrip("_")
        hits, misses = hm if hm is not None else (0, 0)
        out[f"{base}.present"] = (int(hm is not None), "count")
        out[f"{base}.hits"] = (hits, "count")
        out[f"{base}.misses"] = (misses, "count")
        out[f"{base}.hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0, "ratio")
    # a function that no longer exists is reported as zero calls
    for name, unit in units.items():
        out.setdefault(name, (0, unit))
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "gk3" / "__init__.py").is_file():
        print(f"no gk3 sources under {ROOT / 'src'}; run from a gk3 checkout", file=sys.stderr)
        return 2

    runner = Runner(args.workload, args.seed, args.seconds)
    runner.workdir.mkdir(parents=True, exist_ok=True)
    try:
        metrics, res = runner.per_layer() if args.trace else runner.end_to_end()
    finally:
        shutil.rmtree(runner.workdir, ignore_errors=True)

    attempted, failed = len(res["times"]), len(res["failures"])
    for i, msg in res["failures"][:10]:
        print(f"FAILED op {i}: {msg}", file=sys.stderr)
    print(
        f"{args.workload} seed {args.seed}: {attempted} ops attempted ({sum(res['units'])} units), "
        f"{failed} failed (error_rate {failed / attempted:.4f})",
        file=sys.stderr,
    )
    if not args.trace:
        for name, (value, unit) in metrics.items():
            print(f"  {name} = {value:.6g} {unit}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
