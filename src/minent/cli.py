"""`minent` command-line interface: one subcommand per solver, JSON reports."""

from __future__ import annotations

import argparse
import functools
import gc
import hashlib
import json
import math
import sys
import time

# Each handler imports the solver modules it runs, so a call compiles only those.
from . import io as mio
from .core import (LOG2_E, BudgetError, ConvergenceError, FeasibilityError, ValidationError,
                   interval_graph)


def _load_graph_like(text: str):
    """A graph file, or an intervals file converted to its intersection graph."""
    if text.split(None, 1)[:1] == ["intervals"]:
        return interval_graph(mio.parse_intervals(text))
    return mio.parse_graph(text)


def _emit(report: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report, sort_keys=True, check_circular=False))  # built fresh: acyclic
        return
    for key in sorted(report):
        if key in ("command", "input_digest"):
            continue
        print(f"{key}: {report[key]}")


def _cmd_setcover(args, text: str, report: dict) -> dict:
    from . import setcover
    system = mio.parse_setcover(text)
    if args.action == "exact":
        cover = setcover.exact_cover(system)
    else:
        cover, trace = setcover.greedy_cover(system)
    h = setcover.cover_entropy(cover)
    report.update(entropy_bits=h, counts=list(cover.induced_counts))
    if args.action == "greedy":
        report["rounds"] = [[i, list(new)] for i, new in trace.rounds]
    if args.action != "certify":
        report["assignment"] = list(cover.assignment)
        return {}
    y = setcover.dual_certificate(cover)
    fr = setcover.verify_dual_feasibility(system, y)
    sum_y = math.fsum(y)
    report.update(certificate={"y": list(y), "sum_y": sum_y, "g": h},
                  checked=fr.checked,
                  violations=[v["subset"] for v in fr.violations])
    return {"dual_feasible": not fr.violations,
            "dual_identity": abs(sum_y - (h - LOG2_E)) <= 1e-9}


def _cmd_orient(args, text: str, report: dict) -> dict:
    from . import orientation
    g = _load_graph_like(text)
    if args.action == "estimate":
        h, s = orientation.estimate_entropy(g, args.epsilon, args.delta, args.seed,
                                            one_sided=args.one_sided)
        report.update(H=h, s=s, epsilon=args.epsilon, delta=args.delta)
        return {}
    o = (orientation.biased_orientation(g) if args.action == "biased"
         else orientation.exact_orientation(g))
    # json writes tuples as lists; the text report prints the lists' repr
    report.update(entropy_bits=orientation.orientation_entropy(o),
                  indegrees=list(o.indegrees),
                  direction=o.direction if args.json else [list(d) for d in o.direction])
    return {}


def _cmd_color(args, text: str, report: dict) -> dict:
    from . import coloring
    if args.action == "interval":
        iv = mio.parse_intervals(text)
        g = interval_graph(iv)
        col, layers = coloring.interval_mec(iv)
        h = coloring.coloring_entropy(g, col)
        report.update(entropy_bits=h,
                      classes=col.classes(),
                      layers=[list(s) for s in layers.layers],
                      lower_bound_H=layers.lower_bound_H)
        return {"within_one_bit": h <= layers.lower_bound_H + 1.0 + 1e-9}
    g = _load_graph_like(text)
    if args.action == "greedy":
        col = coloring.greedy_coloring(g, oracle="exact")
    elif args.action == "greedy-approx":
        col = coloring.greedy_coloring(g, oracle="approx")
    else:  # exact
        col = coloring.exact_coloring(g)
    report.update(entropy_bits=coloring.coloring_entropy(g, col),
                  classes=col.classes())
    return {}


def _cmd_graphent(args, text: str, report: dict) -> dict:
    from . import graphent
    g = _load_graph_like(text)
    if args.action == "compute":
        h, w = graphent.graph_entropy(g, tol=args.tol)
        report.update(H_bits=h,
                      marginals=list(w.p),
                      support=[list(s) for s, q in zip(w.sets, w.q) if q > 1e-12])
        return {}
    if args.action == "split":
        gap = graphent.splitting_gap(g, tol=args.tol)
        report.update(gap_bits=gap)
        return {"splits_entropy": abs(gap) <= 2 * args.tol}
    rep = graphent.greedy_vs_entropy(g, constant=args.constant, tol=args.tol)
    report.update(g_bits=rep.g_bits, H_bits=rep.H_bits, bound_rhs=rep.bound_rhs)
    checks = {"greedy_bound": rep.bound_holds}
    if rep.chromatic_entropy is not None:
        report["chromatic_entropy"] = rep.chromatic_entropy
    if rep.chain_ok is not None:
        checks["relaxation_chain"] = rep.chain_ok
    return checks


# gen random --kind: (instance from the parsed options, its serializer)
_GEN_KINDS = {
    "graph": (lambda a: mio.random_graph(a.n, a.m, a.seed), mio.serialize_graph),
    "interval": (lambda a: mio.random_intervals(a.n, a.seed), mio.serialize_intervals),
    "setcover": (lambda a: mio.random_setcover(a.n, a.k, a.seed), mio.serialize_setcover),
    "regular": (lambda a: mio.random_regular_graph(a.n, a.delta, a.seed),
                mio.serialize_graph),
}


def _cmd_gen(args) -> None:
    if args.action == "jk":
        from . import coloring
        print(mio.serialize_intervals(coloring.gen_jk(args.k)), end="")
        return
    make, serialize = _GEN_KINDS[args.kind]
    print(serialize(make(args)), end="")


def _cmd_app(args, text: str, report: dict) -> dict:
    from . import apps
    if args.action == "haplotype":
        from . import setcover
        panel = mio.parse_genotypes(text)
        system, labels = apps.haplotype_instance(panel)
        cover, _ = setcover.greedy_cover(system)
        report.update(entropy_bits=setcover.cover_entropy(cover),
                      haplotypes=labels,
                      assignment=[labels[i] for i in cover.assignment],
                      log_likelihood=setcover.likelihood(cover))
        return {}
    from . import coloring
    table = mio.parse_joint_table(text)
    # refused before the graph's pair loop, not after it
    coloring.check_oracle_cap(len(table.x_labels), exact=args.color == "exact")
    g = apps.confusability_graph(table)
    col = (coloring.exact_coloring(g) if args.color == "exact"
           else coloring.greedy_coloring(g))
    report.update(edges=[[table.x_labels[u], table.x_labels[v]] for u, v in g.edges],
                  marginals=list(g.weights),
                  classes=[[table.x_labels[v] for v in cls]
                           for cls in col.classes()],
                  rate_bits=coloring.coloring_entropy(g, col))
    return {}


@functools.cache
def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The CLI parser and each command group's own parser, by group name,
    built once per process; parsing does not modify them."""
    parser = argparse.ArgumentParser(
        prog="minent",
        description="Minimum entropy combinatorial optimization solvers")
    sub = parser.add_subparsers(dest="group", required=True)

    def common(p, tol=False):
        p.add_argument("--input", required=True)
        p.add_argument("--json", action="store_true")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--assert-bound", action="store_true", dest="assert_bound")
        if tol:
            p.add_argument("--tol", type=float, default=1e-6)

    p = sub.add_parser("setcover")
    p.add_argument("action", choices=["greedy", "exact", "certify"])
    common(p)

    p = sub.add_parser("orient")
    p.add_argument("action", choices=["biased", "exact", "estimate"])
    common(p)
    p.add_argument("--epsilon", type=float, default=0.5)
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--one-sided", action="store_true", dest="one_sided")

    p = sub.add_parser("color")
    p.add_argument("action", choices=["greedy", "greedy-approx", "interval", "exact"])
    common(p)

    p = sub.add_parser("graphent")
    p.add_argument("action", choices=["compute", "split", "greedy-bound"])
    common(p, tol=True)
    p.add_argument("--constant", type=float, default=4.0)

    p = sub.add_parser("gen")
    p.add_argument("action", choices=["jk", "random"])
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--kind", choices=list(_GEN_KINDS), default="graph")
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--m", type=int, default=10)
    p.add_argument("--delta", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("app")
    p.add_argument("action", choices=["haplotype", "confusability"])
    common(p)
    p.add_argument("--color", choices=["greedy", "exact"], default="greedy")

    return parser, sub.choices


# handler(args, text, report): adds its results to the report, which already
# holds `command`, `input_digest` and `seed`, and returns the checks that
# `--assert-bound` enforces.
_HANDLERS = {
    "setcover": _cmd_setcover,
    "orient": _cmd_orient,
    "color": _cmd_color,
    "graphent": _cmd_graphent,
    "app": _cmd_app,
}


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse with the named group's parser alone, which is what the full
    parser runs after matching the group; anything else (no arguments,
    --help, an unknown group) takes the full parser and its messages."""
    parser, groups = build_parser()
    group = groups.get(argv[0]) if argv else None
    if group is None:
        return parser.parse_args(argv)
    args, extras = group.parse_known_args(argv[1:])
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    args.group = argv[0]
    return args


def main(argv=None) -> int:
    """Run one command with the cyclic garbage collector paused, and leave
    the collector on or off as the caller had it. A call makes no reference
    cycles (the tests check every command), so reference counting frees all
    it drops, and a collection while the instance is built would walk every
    new object to free nothing."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _main(sys.argv[1:] if argv is None else argv)
    finally:
        if enabled:
            gc.enable()


def _main(argv: list[str]) -> int:
    args = _parse_args(argv)
    start = time.perf_counter()
    try:
        if args.group == "gen":
            _cmd_gen(args)
            return 0
        with open(args.input) as f:
            text = f.read()
        report = {"command": " ".join(argv),
                  "input_digest": hashlib.sha256(text.encode()).hexdigest(),
                  "seed": args.seed}
        checks = _HANDLERS[args.group](args, text, report)
    except (mio.ParseError, ValidationError, FeasibilityError, BudgetError,
            ConvergenceError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report["checks"] = checks
    report["timing_ms"] = (time.perf_counter() - start) * 1000.0
    _emit(report, args.json)
    if args.assert_bound and not all(checks.values()):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
