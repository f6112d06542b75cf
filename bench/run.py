"""Seeded benchmark of `minent` CLI calls, end to end and per layer.

Run from the repository root:

    python3 bench/run.py --workload interval-sweep --seed 0 --seconds 25 --trace 0

Each workload writes its seeded instances to files and runs them as
in-process `minent.cli.main([...])` calls (parse, build, solve, certify,
emit), one process and one thread, in a closed loop: the next call starts when
the previous one returns. Every output is checked (see checks.py). The last
line of stdout is one JSON object with `correct`, `attempted`, `failed` and
`metrics`; with `--trace 0` the metrics are the end-to-end ones, timed in
reference seconds against a sampled reference loop (see hostspeed.py), with
`--trace 1` the per-layer ones from a traced run (see tracing.py).

    python3 bench/run.py --record-reference [SEED ...]

records the reference outputs that later runs must match, for the given seeds
or for the ladder's tuning and held-out seeds.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from typing import Optional

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, BENCH_DIR)

import checks  # noqa: E402
import ladder  # noqa: E402
from hostspeed import REFERENCE_S, Sampler  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402

SETUP_REPS = 5
# Seeds the ladder was tuned on, and seeds kept back to re-check a claim on
# inputs it was not tuned on. References are recorded for both.
TUNING_SEEDS = tuple(range(24))
HELD_OUT_SEEDS = (9001, 9002, 9003, 9004)


# --------------------------------------------------------------------------
# one call, one pass


@dataclass
class CallResult:
    cid: str
    group: str
    seconds: float            # wall time, less any time the sampler took
    problems: list
    report: Optional[dict]
    out_bytes: int            # JSON output is ASCII, so characters are bytes
    start: float = 0.0
    end: float = 0.0
    ref_s: float = 0.0        # `seconds` in reference seconds (see hostspeed.py)


class Stopwatch:
    """Times a stretch of wall time, leaving out the sampler's handler."""

    def __init__(self, sampler: Optional[Sampler]):
        self.sampler = sampler

    def __enter__(self) -> "Stopwatch":
        self.taken = self.sampler.handler_s if self.sampler else 0.0
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.end = time.perf_counter()
        taken = (self.sampler.handler_s if self.sampler else 0.0) - self.taken
        self.seconds = self.end - self.start - taken


def run_call(cli, call, tracer=None, sampler=None) -> CallResult:
    """Run one call through `cli.main`, looked up per call so that a traced
    `main` is the one that runs."""
    out, err = io.StringIO(), io.StringIO()
    if tracer is not None:
        tracer.begin_call(call.cid)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with Stopwatch(sampler) as sw:
            try:
                rc = cli.main(call.argv)
            except SystemExit as exc:          # argparse rejects the arguments
                rc = exc.code
            except Exception:                  # any traceback is a failed call
                rc = "raised " + traceback.format_exc(limit=-1).strip().splitlines()[-1]
    text = out.getvalue()
    if rc != 0:
        detail = err.getvalue().strip().splitlines()[-1:] or [""]
        report, problems = None, [f"exit {rc} {detail[0]}"]
    else:
        try:
            report, problems = json.loads(text), []
        except ValueError:
            report, problems = None, ["output is not JSON"]
    return CallResult(call.cid, call.group, sw.seconds, problems, report, len(text),
                      sw.start, sw.end)


def check_result(call, res: CallResult, prior: dict, reference: dict) -> None:
    if res.report is None:
        return
    try:
        res.problems += checks.check_call(call, res.report, prior)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        res.problems.append(f"malformed report: {exc!r}")
    if call.cid in reference:
        res.problems += checks.compare_reference(res.report, reference[call.cid])


class Pass:
    def __init__(self, results: list, excess: float):
        self.results = results
        self.excess = excess
        self.seconds = math.fsum(r.seconds for r in results)

    def ref_s(self) -> float:
        return math.fsum(r.ref_s for r in self.results)

    def failed(self) -> list:
        return [r for r in self.results if r.problems]


def run_pass(cli, calls, reference: dict, tracer=None, sampler=None) -> Pass:
    """Run every call once; the pass time is the sum of the call times, so
    the benchmark's own checking is not in it."""
    results, prior, excess = [], {}, []
    for call in calls:
        res = run_call(cli, call, tracer, sampler)
        check_result(call, res, prior, reference)
        if res.report is not None:
            prior[call.cid] = res.report
            if not res.problems:
                try:
                    value = checks.excess_bits(call, res.report, prior)
                except (KeyError, TypeError) as exc:
                    res.problems.append(f"no bound to compare: {exc!r}")
                    value = None
                if value is not None:
                    excess.append(value)
        if tracer is not None:
            tracer.count("cli.out_bytes", res.out_bytes)
        results.append(res)
    return Pass(results, math.fsum(excess))


# --------------------------------------------------------------------------
# statistics


def high_percentile(values: list):
    """The highest of p99.9/p99/p90/p50 with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    for p in (99.9, 99.0, 90.0, 50.0):
        if n * (1 - p / 100) >= 10:
            return p, ordered[min(n - 1, math.ceil(n * p / 100) - 1)]
    return None, None


def describe(values: list, unit: str, scale: float = 1.0) -> str:
    """Raw wall times: median, sample count and tail percentile."""
    p, v = high_percentile(values)
    tail = (f", p{p:g} {v * scale:.4g} {unit}" if p is not None
            else ", no percentile has 10 samples beyond it")
    return (f"wall median {statistics.median(values) * scale:.4g} {unit}, "
            f"n={len(values)}{tail}")


# --------------------------------------------------------------------------
# stamp


def _git_sha():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:])) as f:
            return f.read().strip()
    except OSError:
        return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _src_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "minent")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as f:
                h.update(name.encode() + b"\0" + f.read())
    return h.hexdigest()[:16]


def stamp(args) -> dict:
    import numpy
    role = ("tuning" if args.seed in TUNING_SEEDS
            else "held-out" if args.seed in HELD_OUT_SEEDS else "unrecorded")
    return {"workload": args.workload, "seed": args.seed, "seed_role": role,
            "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
            "git_sha": _git_sha(), "src_sha256": _src_digest(),
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": _cpu_model()}


# --------------------------------------------------------------------------
# metrics


def trimmed_mean(values: list, cut: float = 0.1) -> float:
    """Mean of the values left after dropping `cut` of them at each end."""
    ordered = sorted(values)
    k = int(len(ordered) * cut)
    return statistics.fmean(ordered[k:len(ordered) - k])


def end_to_end(setup_s: float, passes: list, attempted: int, failed: int) -> tuple:
    """Timings are means in reference seconds (hostspeed.py): a mean, unlike
    a median, moves smoothly with the share of time the host was slow, and
    the reference loop sampled alongside takes that share out. The notes
    give the raw wall times."""
    pass_s = [p.seconds for p in passes]
    largest = [r for p in passes for r in p.results if r.group == "largest"]
    small = [r for p in passes for r in p.results if r.group == "small"]
    metrics = {
        "setup_s": (setup_s, "s"),
        "pass_s": (statistics.fmean(p.ref_s() for p in passes), "s"),
        "largest_s": (statistics.fmean(r.ref_s for r in largest), "s"),
        "small_call_ms": (trimmed_mean([r.ref_s for r in small]) * 1000.0, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_frac": ((attempted - failed) / attempted, "ratio"),
        "excess_bits": (statistics.median(p.excess for p in passes), "bits"),
    }
    notes = {"pass_s": describe(pass_s, "s"),
             "largest_s": describe([r.seconds for r in largest], "s"),
             "small_call_ms": describe([r.seconds for r in small], "ms", 1000.0),
             "ok_frac": f"failed_frac {failed / attempted:.4g} ({failed}/{attempted})"}
    return metrics, notes


SELF_SPANS = (
    "cli.main", "core.Graph", "core.SetSystem", "core.SetSystem.sets_containing",
    "core.Graph.complement", "core.interval_graph", "core.max_point_depth",
    "coloring.interval_mec", "coloring.coloring_entropy", "coloring.greedy_coloring",
    "coloring.exact_mis", "coloring.approx_mis", "coloring.exact_coloring",
    "graphent.enumerate_maximal_independent_sets", "graphent.graph_entropy",
    "setcover.verify_dual_feasibility", "setcover.exact_cover", "setcover.greedy_cover",
    "setcover.cover_entropy", "setcover.likelihood", "orientation.exact_orientation",
    "orientation.biased_orientation", "orientation.orientation_entropy",
    "orientation.estimate_entropy", "apps.haplotype_instance", "apps.confusability_graph",
)
CALL_COUNTS = ("core.max_point_depth", "core.entropy_of_counts", "coloring.exact_mis",
               "orientation.local_indegree")
COUNTERS = (
    ("cli.out_bytes", "bytes"), ("io.parse.bytes", "bytes"),
    ("core.interval_graph.edges", "count"), ("coloring.interval_mec.layers", "count"),
    ("graphent.mis_sets", "count"), ("graphent.support_size", "count"),
    ("setcover.verify.checked", "count"), ("setcover.exact_cover.leaves", "count"),
    ("setcover.greedy_cover.rounds", "count"), ("orientation.exact_orientation.rows", "count"),
    ("apps.haplotype.sets", "count"),
)


def per_layer(tr: Tracer, traced: list, untraced: list) -> dict:
    """Per-pass layer metrics from the traced passes; the overhead is
    against the untraced passes run alternately with them."""
    k = len(traced)
    total = math.fsum(p.seconds for p in traced) / k
    m = {}
    for layer, s in tr.layer_self_s().items():
        m[f"layer.{layer}.self_s"] = (s / k, "s")
        m[f"layer.{layer}.share"] = (s / k / total, "ratio")
    for name in SELF_SPANS:
        m[f"{name}.self_s"] = (tr.self_s(name) / k, "s")
    parse_s = sum(acc[2] for name, acc in tr.agg.items() if name.startswith("io.parse_")) / k
    m["io.parse.self_s"] = (parse_s, "s")
    for name in CALL_COUNTS:
        m[f"{name}.calls"] = (tr.calls(name) / k, "count")
    for name, unit in COUNTERS:
        m[name] = (tr.counters.get(name, 0) / k, unit)
    parse_bytes = m["io.parse.bytes"][0]
    m["io.parse.mb_per_s"] = (parse_bytes / 1e6 / parse_s if parse_s else 0.0, "MB/s")
    intervals = tr.counters.get("coloring.interval_mec.intervals", 0)
    m["core.max_point_depth.calls_per_interval"] = (
        tr.calls("core.max_point_depth") / intervals if intervals else 0.0, "count")
    mis = m["graphent.mis_sets"][0]
    m["graphent.support_frac"] = (m["graphent.support_size"][0] / mis if mis else 0.0, "ratio")
    traced_s = statistics.median(p.seconds for p in traced)
    base_s = statistics.median(p.seconds for p in untraced)
    m["trace.pass_s"] = (traced_s, "s")
    m["trace.overhead_s"] = (traced_s - base_s, "s")
    m["trace.overhead_frac"] = ((traced_s - base_s) / base_s, "ratio")
    return m


def layer_report(tr: Tracer, metrics: dict) -> list:
    lines = ["per-layer (traced, per pass):", f"  {'layer':<12} {'self_s':>10} {'share':>7}"]
    for layer in LAYERS:
        lines.append(f"  {layer:<12} {metrics[f'layer.{layer}.self_s'][0]:>10.4f} "
                     f"{metrics[f'layer.{layer}.share'][0]:>7.1%}")
    top = sorted(tr.agg.items(), key=lambda kv: -kv[1][2])[:12]
    lines.append("  top spans by self time, summed over the traced passes:")
    for name, acc in top:
        lines.append(f"    {name:<48} self {acc[2]:9.4f} s  calls {acc[0]}")
    counts = [f"{name}={value:.6g}" for name, (value, unit) in metrics.items()
              if value and unit != "s" and not name.startswith(("layer.", "trace."))]
    lines.append("  counters (per pass): " + (", ".join(counts) or "none"))
    return lines


# --------------------------------------------------------------------------
# entry points


def import_minent():
    if not os.path.exists(os.path.join(SRC, "minent", "__init__.py")):
        raise SystemExit(f"error: no minent package under {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    import minent
    import minent.cli
    if not os.path.abspath(minent.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: imported minent from {minent.__file__}, not {SRC}")
    return minent


def setup(args, workdir: str, cli, sampler=None) -> tuple:
    """Generate and write the workload's instances and make one warm-up
    call; return the Stopwatch that timed it, the calls and the warm-up."""
    with Stopwatch(sampler) as sw:
        calls = ladder.build(args.workload, args.seed, workdir, args.smoke)
        first = next(c for c in calls if c.group == "small")
        res = run_call(cli, first, sampler=sampler)
    check_result(first, res, {}, {})
    return sw, calls, res


def setup_once(args) -> int:
    """One whole set-up in this fresh process: import, then `setup`. Prints
    its time in reference seconds; exits 1 if the warm-up call fails."""
    sampler = Sampler()
    sampler.start()
    try:
        with Stopwatch(sampler) as sw:
            minent = import_minent()
            workdir = tempfile.mkdtemp(prefix=".bench-", dir=ROOT)
            try:
                _, _, res = setup(args, workdir, minent.cli, sampler)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
    finally:
        sampler.stop()
    if res.problems:
        print(f"FAIL {res.cid}: {'; '.join(res.problems[:3])}", file=sys.stderr)
        return 1
    print(json.dumps({"setup_s": sw.seconds * sampler.scale(sw.start, sw.end)}))
    return 0


def child_setups(args) -> list:
    """Set up SETUP_REPS times, each in a fresh process, one after another
    (the import is only paid once in a process); return their times."""
    argv = [sys.executable, os.path.abspath(__file__), "--setup-once",
            "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_REPS):
        proc = subprocess.run(argv + (["--smoke"] if args.smoke else []), cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up failed: {proc.stderr.strip()}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def measure(args) -> int:
    # An end-to-end run samples the host's speed from before the import to
    # the last call; a trace run does not, so that the sampler's handler adds
    # nothing to the layer times.
    setups = [] if args.trace else child_setups(args)
    sampler = None if args.trace else Sampler()
    if sampler is not None:
        sampler.start()
    try:
        with Stopwatch(sampler) as imported:
            minent = import_minent()
        cli = minent.cli
        info = stamp(args)
        print("stamp: " + json.dumps(info, sort_keys=True))
        # References are recorded for the full ladder only.
        reference = {} if args.smoke else checks.load_reference(
            BENCH_DIR, args.workload).get(str(args.seed), {})
        print(f"reference: {len(reference)} recorded outputs for seed {args.seed}"
              if reference else "reference: none for this ladder and seed; "
              "independent checks only")
        workdir = tempfile.mkdtemp(prefix=".bench-", dir=ROOT)
        try:
            built, calls, warm, passes, untraced, tracer = run_passes(
                args, minent, workdir, reference, sampler)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    finally:
        if sampler is not None:
            sampler.stop()

    results = [warm] + [r for p in passes + untraced for r in p.results]
    bad = [r for r in results if r.problems]
    for r in bad[:10]:
        print(f"FAIL {r.cid}: {'; '.join(r.problems[:3])}", file=sys.stderr)
    excess = {p.excess for p in passes}
    if len(excess) > 1:
        print(f"warning: excess_bits differs between passes: {sorted(excess)}",
              file=sys.stderr)
    attempted, failed = len(results), len(bad)
    if tracer is None:
        def ref_s(span) -> float:
            return span.seconds * sampler.scale(span.start, span.end)

        for r in results:
            r.ref_s = ref_s(r)
        metrics, notes = end_to_end(statistics.median(setups), passes, attempted, failed)
        notes["setup_s"] = ("median of " + ", ".join(f"{t:.4g}" for t in setups) +
                            f"; this process: import {ref_s(imported):.4g} s + build "
                            f"{ref_s(built):.4g} s")
        loop_s = statistics.fmean(sampler.loop_s)
        print(f"calls per pass: {len(calls)}; passes: {len(passes)}; host speed: reference "
              f"loop {loop_s * 1e6:.4g} us on average ({len(sampler.loop_s)} samples), "
              f"nominal {REFERENCE_S * 1e6:.4g} us")
        for name, (value, unit) in metrics.items():
            print(f"  {name:<14} {value:12.6g} {unit:<6} {notes.get(name, '')}")
    else:
        metrics = per_layer(tracer, passes, untraced)
        print("\n".join(layer_report(tracer, metrics)))
        print(f"tracing overhead: {metrics['trace.overhead_s'][0]:.4g} s per pass "
              f"({metrics['trace.overhead_frac'][0]:.1%}); spans kept: {len(tracer.spans)}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"stamp": info, "metrics": metrics,
                       "pass_s": [p.seconds for p in passes],
                       "spans": tracer.spans if tracer else []}, f)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


def run_passes(args, minent, workdir: str, reference: dict, sampler) -> tuple:
    """Set up, then run passes for about --seconds."""
    cli = minent.cli
    built, calls, warm = setup(args, workdir, cli, sampler)
    tracer = Tracer() if args.trace else None
    passes, untraced = [], []      # untraced: the trace run's paired baseline
    start = time.perf_counter()

    def traced_pass() -> Pass:
        tracer.install(minent)
        try:
            return run_pass(cli, calls, reference, tracer)
        finally:
            tracer.uninstall()

    # Start another pass while it would end nearer the deadline than
    # stopping now does, so a run measures about --seconds. A trace run
    # pairs each traced pass with an untraced one, alternating which runs
    # first, so the overhead compares passes made under the same load.
    while True:
        if tracer is None:
            passes.append(run_pass(cli, calls, reference, sampler=sampler))
            for r in passes[-1].results:   # checked; memory must not grow with passes
                r.report = None
        else:
            untraced_first = len(passes) % 2 == 0
            if untraced_first:
                untraced.append(run_pass(cli, calls, reference))
            passes.append(traced_pass())
            if not untraced_first:
                untraced.append(run_pass(cli, calls, reference))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) / 2 >= args.seconds:
            break
    return built, calls, warm, passes, untraced, tracer


def record(args) -> int:
    """Record reference outputs: one pass per seed, after the independent
    checks pass."""
    minent = import_minent()
    seeds = args.record_reference or list(TUNING_SEEDS + HELD_OUT_SEEDS)
    workloads = [args.workload] if args.workload else list(ladder.WORKLOADS)
    for workload in workloads:
        table = checks.load_reference(BENCH_DIR, workload)
        for seed in seeds:
            workdir = tempfile.mkdtemp(prefix=".bench-", dir=ROOT)
            try:
                calls = ladder.build(workload, seed, workdir)
                p = run_pass(minent.cli, calls, {})
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            if p.failed():
                r = p.failed()[0]
                print(f"{workload} seed {seed}: {r.cid} failed: {r.problems}", file=sys.stderr)
                return 1
            table[str(seed)] = {r.cid: checks.reference_entry(r.report) for r in p.results}
            print(f"{workload} seed {seed}: {len(p.results)} outputs recorded", flush=True)
        checks.save_reference(BENCH_DIR, workload, table)
    return 0


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(ladder.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0,
                   help="measure for about this long; at least one full pass runs")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-once", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--smoke", action="store_true",
                   help="seconds-long instance sizes, for the self-test")
    p.add_argument("--out", help="also write stamp, metrics and spans to this JSON file")
    p.add_argument("--record-reference", type=int, nargs="*", metavar="SEED",
                   help="record reference outputs (default: tuning and held-out seeds)")
    args = p.parse_args(argv)
    if args.record_reference is None and args.workload is None:
        p.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.record_reference is not None:
        return record(args)
    if args.setup_once:
        return setup_once(args)
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
