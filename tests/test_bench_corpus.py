"""The benchmark's workloads, run in process.

Every command of the seed-1 ``CliWorkload`` in ``bench/workloads.py`` goes
through ``gk3.cli.main`` from the directory that holds its documents, and
the workload's own check judges the result: exit code, canonical JSON, the
oracle checks and, for the fixed corpus, the sha256 digest pinned in
``bench/golden.json``.  The seed-1 survey calls 0..15 and one round of
rank-22 cases go through ``SurveyWorkload.check`` and ``Rank22Workload.check``
the same way.  So every golden digest is checked by the test suite.
"""

from __future__ import annotations

from pathlib import Path
from types import SimpleNamespace

import pytest

from gk3.cli import main

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # workloads imports its sibling oracle
    import workloads

    return workloads


def test_bench_cli_corpus_matches_its_golden_digests(workloads, tmp_path, monkeypatch, capsys):
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


def test_bench_survey_calls_match_their_golden_digests(workloads, tmp_path):
    golden = workloads.load_golden()["survey"]
    workload = workloads.SurveyWorkload(1, workloads.import_gk3(), tmp_path, golden)
    items = [workload.item(i) for i in range(16)]
    assert {workload.golden_key(item) for item in items} == set(golden)
    failures = [workload.check(item, workload.run(item)) for item in items]
    assert [msg for msg in failures if msg] == []


def test_bench_rank22_round_passes_its_checks(workloads, tmp_path):
    workload = workloads.Rank22Workload(1, workloads.import_gk3(), tmp_path, None)
    items = [workload.item(i) for i in range(workload.round_size)]
    failures = [workload.check(item, workload.run(item)) for item in items]
    assert len(items) == 12 and [msg for msg in failures if msg] == []
