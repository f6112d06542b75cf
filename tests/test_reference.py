"""The benchmark's output contract, run as a test: every call of each
workload's seed-0 ladder (bench/ladder.py), run in-process through
`minent.cli.main`, passes the per-call checks of bench/run.py (the
independent checks of bench/checks.py and the comparison with the recorded
outputs under bench/reference). Nothing under bench/ is written."""

import os
import sys

import pytest

from minent import cli

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
sys.path.insert(0, BENCH_DIR)

import checks  # noqa: E402
import ladder  # noqa: E402
import run as bench_run  # noqa: E402


@pytest.mark.parametrize("workload", sorted(ladder.WORKLOADS))
def test_seed_0_ladder_passes_its_checks_and_references(workload, tmp_path):
    reference = checks.load_reference(BENCH_DIR, workload)["0"]
    calls = ladder.build(workload, 0, str(tmp_path))
    assert sorted(c.cid for c in calls) == sorted(reference)
    p = bench_run.run_pass(cli, calls, reference)
    assert [(r.cid, r.problems) for r in p.failed()] == []
