"""Self-test of the benchmark: run with `python3 -m pytest -q bench/test_bench.py`.

A smoke-sized ladder must emit every metric named in BENCHMARK.json with its
unit, and deliberately corrupted outputs must be counted as failures, so the
output checks are shown not to be vacuous.
"""

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import checks  # noqa: E402
import ladder  # noqa: E402
import run as bench_run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def minent():
    return bench_run.import_minent()


@pytest.fixture()
def workdir(tmp_path):
    return str(tmp_path)


def test_workloads_match_the_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(ladder.WORKLOADS)


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", sorted(ladder.WORKLOADS))
def test_smoke_run_emits_every_metric(workload, trace, key):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0.05",
                "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[key]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_ladder_is_a_function_of_the_seed(tmp_path):
    def files(seed, sub):
        d = tmp_path / sub
        d.mkdir()
        calls = ladder.build("bulk-greedy", seed, str(d), smoke=True)
        return [c.argv[:-3] for c in calls], sorted(
            (p.name, p.read_text()) for p in d.iterdir())
    assert files(5, "a") == files(5, "b")
    assert files(5, "a2")[1] != files(6, "c")[1]


def _pass(minent, workload, workdir):
    calls = ladder.build(workload, 0, workdir, smoke=True)
    p = bench_run.run_pass(minent.cli, calls, {})
    assert not p.failed(), [r.problems for r in p.failed()]
    return {c.cid: c for c in calls}, {r.cid: r.report for r in p.results}


def _first(reports, prefix):
    return next(cid for cid in reports if cid.startswith(prefix))


def test_recoloured_vertex_is_a_failure(minent, workdir):
    calls, reports = _pass(minent, "interval-sweep", workdir)
    cid = _first(reports, "interval-n")
    bad = copy.deepcopy(reports[cid])
    classes = bad["classes"]
    # Move the first vertex of class 2 into class 1, which it must intersect
    # (interval_mec puts a vertex in a later class only if it conflicts).
    iv = calls[cid].inst.ivs
    v = next(v for v in classes[1] if any(checks._intersect(iv[v], iv[u]) for u in classes[0]))
    classes[1].remove(v)
    classes[0].append(v)
    assert checks.check_call(calls[cid], bad, {})


def test_flipped_edge_is_a_failure(minent, workdir):
    calls, reports = _pass(minent, "bulk-greedy", workdir)
    cid = _first(reports, "orient-biased")
    bad = copy.deepcopy(reports[cid])
    bad["direction"][0].reverse()
    assert checks.check_call(calls[cid], bad, reports)
    head = bad["direction"][0][1]
    bad["indegrees"][head] += 1                  # keep the tally consistent
    bad["indegrees"][bad["direction"][0][0]] -= 1
    assert checks.check_call(calls[cid], bad, reports)


def test_infeasible_cover_and_dual_are_failures(minent, workdir):
    calls, reports = _pass(minent, "exact-certify", workdir)
    cid = _first(reports, "setcover-exact")
    bad = copy.deepcopy(reports[cid])
    s = calls[cid].inst
    x = 0
    bad["assignment"][x] = next(i for i, m in enumerate(s.sets) if x not in m)
    assert checks.check_call(calls[cid], bad, {})
    cid = _first(reports, "certify")
    bad = copy.deepcopy(reports[cid])
    bad["certificate"]["y"][0] += 1.0
    assert checks.check_call(calls[cid], bad, {})


def test_dependent_support_set_is_a_failure(minent, workdir):
    calls, reports = _pass(minent, "fw-entropy", workdir)
    cid = _first(reports, "gnm")
    bad = copy.deepcopy(reports[cid])
    u, v = calls[cid].inst.edges[0]
    bad["support"][0] = sorted({*bad["support"][0], u, v})
    assert checks.check_call(calls[cid], bad, {})


def test_reference_catches_changed_outputs(minent, workdir):
    calls, reports = _pass(minent, "exact-certify", workdir)
    cid = _first(reports, "color-exact")
    ref = checks.reference_entry(reports[cid])
    assert checks.compare_reference(reports[cid], ref) == []
    moved = copy.deepcopy(reports[cid])
    moved["entropy_bits"] += 1e-6
    assert checks.compare_reference(moved, ref)
    relabelled = copy.deepcopy(reports[cid])
    relabelled["classes"] = relabelled["classes"][::-1]
    assert checks.compare_reference(relabelled, ref)


def test_corrupted_call_is_counted_in_a_pass(minent, workdir):
    calls = ladder.build("bulk-greedy", 0, workdir, smoke=True)
    target = _first({c.cid: c for c in calls}, "orient-biased")

    class CorruptingCli:
        """Runs the real CLI, then flips one edge of the target's output."""

        @staticmethod
        def main(argv):
            rc = minent.cli.main(argv)
            if any(c.cid == target and c.argv == argv for c in calls):
                report = json.loads(sys.stdout.getvalue())
                report["direction"][0].reverse()
                sys.stdout.seek(0)
                sys.stdout.truncate()
                print(json.dumps(report))
            return rc

    p = bench_run.run_pass(CorruptingCli, calls, {})
    assert [r.cid for r in p.failed()] == [target]


def test_run_without_the_program_fails(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run("--workload", "interval-sweep", "--seed", "0", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
