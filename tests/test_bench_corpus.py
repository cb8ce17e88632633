"""The benchmark's CLI corpus, run in process.

Every command of the seed-1 ``CliWorkload`` in ``bench/workloads.py`` goes
through ``gk3.cli.main`` from the directory that holds its documents, and
the workload's own check judges the result: exit code, canonical JSON, the
oracle checks and, for the fixed corpus, the sha256 digest pinned in
``bench/golden.json``.  So every golden digest is checked by the test suite.
"""

from __future__ import annotations

from pathlib import Path
from types import SimpleNamespace

from gk3.cli import main

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_bench_cli_corpus_matches_its_golden_digests(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(BENCH))  # workloads imports its sibling oracle
    import workloads

    golden = workloads.load_golden()["cli"]
    workload = workloads.CliWorkload(1, None, tmp_path, golden)
    assert {cmd.name for cmd in workload.corpus if cmd.golden} == set(golden)
    monkeypatch.chdir(tmp_path)
    failures = []
    for cmd in workload.corpus:
        code = main(workload.argv(cmd))
        proc = SimpleNamespace(returncode=code, stdout=capsys.readouterr().out, stderr="")
        failures.append(workload.check(cmd, proc))
    assert len(workload.corpus) == 120
    assert [msg for msg in failures if msg] == []
