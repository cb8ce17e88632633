"""One benchmark process: set up a workload, run its ops, print one JSON line.

run.py starts this file in a fresh interpreter with ``src`` on PYTHONPATH,
so every process starts with gk3's caches empty.  Modes:

  setup    import gk3 and build the inputs, report when the first op is ready
  run      run ops, one after another, for about --seconds of op time,
           ending on the round boundary of the workload nearest to it
  trace    as run, under the tracer, for at most --ops ops
  replay   run exactly --ops ops without the tracer (the overhead baseline)
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout()


def _peak_rss_kb(workload: str) -> int:
    """Peak resident set of the process that does the work: this one, or for
    cli the largest of the gk3 commands it has run."""
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "run", "trace", "replay"))
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--ops", type=int, default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spans", help="file for the spans of a traced run")
    args = ap.parse_args()

    gk3 = workloads.import_gk3()
    golden = workloads.load_golden()
    cls = workloads.WORKLOADS[args.workload]
    workdir = Path(args.workdir)
    kwargs = {}
    trace_file = workdir / "command-trace.json"
    if args.mode == "trace" and args.workload == "cli":
        kwargs["trace_out"] = trace_file
    wl = cls(args.seed, gk3, workdir, golden.get(args.workload), **kwargs)
    ready = time.monotonic()
    if args.mode == "setup":
        print(json.dumps({"ready": ready}))
        return 0

    tracer = None
    spans_fh = None
    snapshot = None
    if args.mode == "trace":
        from tracer import Tracer, merge

        spans_fh = open(args.spans, "w", encoding="utf-8")
        if args.workload != "cli":
            tracer = Tracer()
            tracer.install()

    signal.signal(signal.SIGALRM, _alarm)
    times, units, failures = [], [], []
    measured = 0.0
    i = 0
    rss_kb = None
    try:
        while True:
            if args.mode in ("run", "trace") and i and i % wl.round_size == 0:
                # end on the round boundary nearest to --seconds of op time
                round_s = measured * wl.round_size / i
                if measured + round_s / 2 >= args.seconds:
                    break
            if args.mode in ("trace", "replay") and i >= args.ops:
                break
            item = wl.item(i)
            if tracer is not None:
                tracer.op = i
            error = None
            result = None
            signal.setitimer(signal.ITIMER_REAL, wl.timeout_s + 5)
            start = time.perf_counter()
            try:
                result = wl.run(item)
            except OpTimeout:
                error = "timeout"
            except Exception as e:  # a failing op is counted, the run goes on
                error = f"{type(e).__name__}: {e}"
            finally:
                elapsed = time.perf_counter() - start
                signal.setitimer(signal.ITIMER_REAL, 0)
            n = 1
            if error is None:
                try:
                    error = wl.check(item, result)
                    n = wl.units(item, result)
                except Exception:
                    error = "check raised: " + traceback.format_exc(limit=3)
            if args.mode == "trace" and args.workload == "cli" and trace_file.exists():
                with open(trace_file, encoding="utf-8") as fh:
                    part = json.load(fh)
                trace_file.unlink()
                snapshot = merge(snapshot, part["snapshot"])
                for name, start_s, end_s, parent, _ in part["spans"]:
                    spans_fh.write(json.dumps([name, start_s, end_s, parent, i]) + "\n")
            times.append(elapsed)
            units.append(n)
            if error is not None:
                failures.append([i, error[:500]])
            measured += elapsed
            i += 1
            if i == wl.rss_ops:
                rss_kb = _peak_rss_kb(args.workload)
    finally:
        if tracer is not None:
            snapshot = tracer.snapshot()
            for row in tracer.span_rows():
                spans_fh.write(json.dumps(row) + "\n")
        if spans_fh is not None:
            spans_fh.close()

    if rss_kb is None:
        rss_kb = _peak_rss_kb(args.workload)
    print(
        json.dumps(
            {
                "ready": ready,
                "times": times,
                "units": units,
                "failures": failures,
                "rss_kb": rss_kb,
                "trace": snapshot,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
