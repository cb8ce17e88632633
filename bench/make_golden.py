"""Record the golden digests that the benchmark's checks compare against.

Usage (from the root of a checkout, on code whose output is trusted):

    python3 bench/make_golden.py

Writes bench/golden.json with the sha256 of the canonical output of
  - every command of the fixed cli corpus (README commands, the
    Shioda-Inose builder for n = 1..10, mirror check on its families,
    and the expected-error documents);
  - the survey's criterion-7 call (the same in every run), checked
    against `gk3 rigid survey --max-det 16 --denom-bound 4 --sqrt-d 2`;
  - the other survey calls up to SURVEY_CALLS at the default seed.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

DEFAULT_SEED = 1
SURVEY_CALLS = 16


def main() -> int:
    os.environ.update(workloads.env_with_src(ROOT))
    gk3 = workloads.import_gk3()
    workdir = ROOT / ".bench_work" / "golden"
    workdir.mkdir(parents=True, exist_ok=True)
    golden = {"cli": {}, "survey": {}}
    try:
        cli = workloads.CliWorkload(DEFAULT_SEED, gk3, workdir, None)
        for i, cmd in enumerate(cli.corpus):
            if not cmd.golden:
                continue
            proc = cli.run(cmd)
            error = cli.check(cmd, proc)
            if error:
                raise SystemExit(f"fixed command fails its structural check: {error}")
            golden["cli"][cmd.name] = workloads.sha256(proc.stdout)

        survey = workloads.SurveyWorkload(DEFAULT_SEED, gk3, workdir, None)
        for i in range(SURVEY_CALLS):
            item = survey.item(i)
            report = survey.run(item)
            error = survey.check(item, report)
            if error:
                raise SystemExit(f"survey call {i} fails its structural check: {error}")
            golden["survey"][survey.golden_key(item)] = workloads.sha256(survey.render(report))
            print(f"survey call {i}: {report.samples} samples", file=sys.stderr)
        proc = subprocess.run(
            [sys.executable, "-c", workloads.CLI_BOOT, "rigid", "survey",
             "--max-det", "16", "--denom-bound", "4", "--sqrt-d", "2"],
            env=workloads.env_with_src(ROOT), capture_output=True, text=True, check=True,
        )
        if workloads.sha256(proc.stdout) != golden["survey"]["criterion7"]:
            raise SystemExit("survey rendering differs from the CLI's canonical output")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(BENCH_DIR / "golden.json", "w", encoding="utf-8") as fh:
        fh.write(workloads.canonical(golden))
    return 0


if __name__ == "__main__":
    sys.exit(main())
