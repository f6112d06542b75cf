"""Output checks for benchmark calls.

Each report is checked twice:

* independently of `minent`, against the benchmark's own copy of the
  instance: colourings are proper partitions, covers are feasible,
  directions match the edges, support sets are independent, and every
  reported entropy equals the entropy recomputed from the reported structure;
* against the recorded reference for the seed (see `reference_entry`), when
  one exists: structural fields exactly, floats within 1e-9 (relative above
  magnitude 1), graph-entropy values within a multiple of the solver `tol`.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import math
import os

LOG2_E = math.log2(math.e)
FLOAT_TOL = 1e-9
GRAPHENT_TOL = 1e-6          # the CLI's default --tol, used by every graphent call

# Fields whose values are the solution's structure; they must match exactly.
EXACT_KEYS = ("assignment", "classes", "layers", "direction", "indegrees", "support",
              "counts", "rounds", "edges", "haplotypes")

# Graph-entropy values carry the Frank-Wolfe tolerance: H within 2 tol, and
# values built from one or two H within the matching multiple.
SOLVER_TOL = {"H_bits": 2 * GRAPHENT_TOL, "gap_bits": 4 * GRAPHENT_TOL,
              "bound_rhs": 5 * GRAPHENT_TOL}

DROPPED = ("timing_ms", "command")


def entropy_of_counts(counts) -> float:
    counts = [c for c in counts if c]
    total = sum(counts)
    return math.log2(total) - math.fsum(c * math.log2(c) for c in counts) / total


def close(a: float, b: float, tol: float = FLOAT_TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


# --------------------------------------------------------------------------
# reference: digest of the structural fields plus every float leaf


def _float_leaves(obj, path=""):
    if isinstance(obj, float):
        yield path, obj
    elif isinstance(obj, dict):
        for k in sorted(obj):
            if k not in DROPPED:
                yield from _float_leaves(obj[k], f"{path}.{k}" if path else k)
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _float_leaves(v, f"{path}[{i}]")


def reference_entry(report: dict) -> list:
    """[digest of the exact fields, list of float leaves in key order]."""
    exact = {k: report[k] for k in EXACT_KEYS if k in report}
    digest = hashlib.sha256(json.dumps(exact, sort_keys=True).encode()).hexdigest()[:16]
    return [digest, [v for _, v in _float_leaves(report)]]


def compare_reference(report: dict, ref: list) -> list:
    digest, floats = reference_entry(report)
    problems = []
    if digest != ref[0]:
        problems.append("structure differs from the reference")
    leaves = list(_float_leaves(report))
    if len(leaves) != len(ref[1]):
        return problems + [f"{len(leaves)} float fields, reference has {len(ref[1])}"]
    for (path, value), want in zip(leaves, ref[1]):
        key = path.split(".")[-1].split("[")[0]
        tol = SOLVER_TOL.get(key)
        ok = abs(value - want) <= tol if tol is not None else close(value, want)
        if not ok:
            problems.append(f"{path} = {value!r}, reference {want!r}")
    return problems


def reference_path(bench_dir: str, workload: str) -> str:
    return os.path.join(bench_dir, "reference", f"{workload}.json.gz")


def load_reference(bench_dir: str, workload: str) -> dict:
    """{seed (str): {call id: entry}}, empty when nothing is recorded."""
    path = reference_path(bench_dir, workload)
    if not os.path.exists(path):
        return {}
    with gzip.open(path, "rt") as f:
        return json.load(f)


def save_reference(bench_dir: str, workload: str, table: dict) -> None:
    path = reference_path(bench_dir, workload)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    data = json.dumps(table, sort_keys=True, separators=(",", ":")).encode()
    # mtime=0 keeps the file byte-identical when the content is.
    with open(path, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as f:
        f.write(data)


# --------------------------------------------------------------------------
# independent checks


def _intersect(a, b) -> bool:
    """Open intervals: touching endpoints do not intersect."""
    return max(a[0], b[0]) < min(a[1], b[1])


def _max_depth(ivs) -> int:
    events = sorted([(lo, 1) for lo, _ in ivs] + [(hi, 0) for _, hi in ivs])
    depth = best = 0
    for _, opening in events:       # closes sort before opens at equal points
        depth += 1 if opening else -1
        best = max(best, depth)
    return best


def _partition(parts, n: int, what: str) -> list:
    flat = sorted(v for part in parts for v in part)
    return [] if flat == list(range(n)) else [f"{what} do not partition the {n} items"]


def _independent_sets(sets, adjacent, what="colour class") -> list:
    for members in sets:
        for i, u in enumerate(members):
            for v in members[i + 1:]:
                if adjacent(u, v):
                    return [f"{what} holds adjacent {u} and {v}"]
    return []


def _edge_set(g) -> set:
    return {(min(u, v), max(u, v)) for u, v in g.edges}


def _adjacency(edges: set):
    return lambda u, v: (min(u, v), max(u, v)) in edges


def _check_classes(report, n, adjacent) -> list:
    classes = report["classes"]
    problems = _partition(classes, n, "colour classes")
    problems += _independent_sets(classes, adjacent)
    if not problems and not close(report["entropy_bits"],
                                  entropy_of_counts(map(len, classes))):
        problems.append("entropy_bits differs from the class sizes' entropy")
    return problems


def check_interval(call, r) -> list:
    iv = call.inst.ivs
    problems = _check_classes(r, len(iv), lambda u, v: _intersect(iv[u], iv[v]))
    layers = r["layers"]
    problems += _partition(layers, len(iv), "layers")
    if problems:
        return problems
    for i in range(1, len(layers) + 1):
        prefix = [iv[v] for lay in layers[:i] for v in lay]
        if _max_depth(prefix) > i:
            return [f"layers 1..{i} are not {i}-colourable"]
    if not close(r["lower_bound_H"], entropy_of_counts(map(len, layers))):
        problems.append("lower_bound_H differs from the layer sizes' entropy")
    if r["entropy_bits"] > r["lower_bound_H"] + 1.0 + 1e-9:
        problems.append("colouring is more than 1 bit above the lower bound")
    return problems


def check_color(call, r) -> list:
    return _check_classes(r, call.inst.n, _adjacency(_edge_set(call.inst)))


def _dual_violations(s, y) -> int:
    """Exact dual check: the right-hand side depends only on |T|, so the
    worst T of each size t inside S is the t largest y-values of S."""
    n, bad = s.n, 0
    for members in s.sets:
        acc = []
        for v in sorted((y[v] for v in members), reverse=True):
            acc.append(v)
            t = len(acc)
            if math.fsum(acc) > -(t / n) * math.log2(t / n) + 1e-9:
                bad += 1
                break
    return bad


def check_setcover(call, r) -> list:
    s = call.inst
    counts = r["counts"]
    problems = []
    if len(counts) != len(s.sets) or sum(counts) != s.n:
        return ["counts do not match the set system"]
    if not close(r["entropy_bits"], entropy_of_counts(counts)):
        problems.append("entropy_bits differs from the counts' entropy")
    if "assignment" in r:
        a = r["assignment"]
        k = len(s.sets)
        if len(a) != s.n or any(not 0 <= i < k or x not in s.sets[i] for x, i in enumerate(a)):
            return problems + ["assignment is not a feasible cover"]
        tally = [0] * len(s.sets)
        for i in a:
            tally[i] += 1
        if tally != counts:
            problems.append("counts differ from the assignment")
    if "rounds" in r:
        covered = []
        for i, new in r["rounds"]:
            if not set(new) <= set(s.sets[i]) or any(r["assignment"][x] != i for x in new):
                return problems + [f"greedy round of set {i} is inconsistent"]
            covered += new
        if sorted(covered) != list(range(s.n)):
            problems.append("greedy rounds do not partition the universe")
    if "certificate" in r:
        cert = r["certificate"]
        y = cert["y"]
        if not close(cert["sum_y"], math.fsum(y)):
            problems.append("sum_y differs from the sum of y")
        if not close(cert["g"], r["entropy_bits"]):
            problems.append("certificate g differs from the greedy entropy")
        if not close(r["entropy_bits"] - cert["sum_y"], LOG2_E):
            problems.append("g - sum_y differs from log2(e)")
        feasible = _dual_violations(s, y) == 0
        if feasible != (not r["violations"]) or feasible != r["checks"]["dual_feasible"]:
            problems.append("reported dual feasibility disagrees with the exact check")
    return problems


def _orientation_entropy(indeg, m) -> float:
    return math.log2(m) - math.fsum(r * math.log2(r) for r in indeg if r) / m


def _degrees(g) -> list:
    degree = [0] * g.n
    for u, v in g.edges:
        degree[u] += 1
        degree[v] += 1
    return degree


def check_orient(call, r, prior) -> list:
    g = call.inst
    degree = _degrees(g)
    if call.argv[1] == "estimate":
        dmax = max(degree)
        b = max(dmax * math.log2(dmax), 1.0)
        s = math.ceil(b * b / (2 * r["epsilon"] ** 2) * math.log(2 / r["delta"]))
        problems = [] if r["s"] == s else [f"sample count {r['s']}, expected {s}"]
        if not math.isfinite(r["H"]):
            problems.append("estimate is not finite")
        if call.biased not in prior:
            problems.append("biased reference call missing from the pass")
        return problems
    direction, indeg = r["direction"], r["indegrees"]
    if len(direction) != len(g.edges):
        return ["one direction per edge required"]
    tally = [0] * g.n
    for (u, v), (tail, head) in zip(g.edges, direction):
        if {tail, head} != {u, v}:
            return [f"direction ({tail},{head}) does not match edge ({u},{v})"]
        tally[head] += 1
        if call.argv[1] == "biased":
            want = u if (degree[u], u) > (degree[v], v) else v
            if head != want:
                return [f"edge ({u},{v}) not oriented toward its higher-degree endpoint"]
    problems = [] if tally == indeg else ["indegrees differ from the directions"]
    if not close(r["entropy_bits"], _orientation_entropy(tally, len(g.edges))):
        problems.append("entropy_bits differs from the indegrees' entropy")
    return problems


def check_graphent(call, r) -> list:
    g = call.inst
    action = call.argv[1]
    if action == "compute":
        p = r["marginals"]
        if len(p) != g.n or any(not 0 < x <= 1 + 1e-9 for x in p):
            return ["marginals are not in (0, 1]"]
        problems = _independent_sets(r["support"], _adjacency(_edge_set(g)), "support set")
        h = -math.fsum(math.log2(x) for x in p) / g.n
        if not close(r["H_bits"], h):
            problems.append("H_bits differs from the entropy of the marginals")
        return problems
    if action == "split":
        if (abs(r["gap_bits"]) <= 2 * GRAPHENT_TOL) != r["checks"]["splits_entropy"]:
            return ["splits_entropy disagrees with gap_bits"]
        return []
    h, gb = r["H_bits"], r["g_bits"]
    problems = []
    if not close(r["bound_rhs"], h + math.log2(h + 1.0) + 4.0):
        problems.append("bound_rhs differs from H + log2(H + 1) + 4")
    if gb > r["bound_rhs"] + 1e-9:
        problems.append("greedy entropy exceeds the bound")
    chrom = r.get("chromatic_entropy")
    if chrom is not None and not (h <= chrom + GRAPHENT_TOL and chrom <= gb + 1e-9):
        problems.append("relaxation chain H <= chromatic <= greedy fails")
    return problems


def _explains(h: str, g: str) -> bool:
    return len(h) == len(g) and all(c == "?" or a == c for a, c in zip(h, g))


def check_haplotype(call, r) -> list:
    panel = call.inst
    labels, assignment = r["haplotypes"], r["assignment"]
    if len(assignment) != len(panel):
        return ["one haplotype per genotype required"]
    known = set(labels)
    for h, g in zip(assignment, panel):
        if h not in known or not _explains(h, g):
            return [f"haplotype {h} does not explain genotype {g}"]
    counts = {}
    for h in assignment:
        counts[h] = counts.get(h, 0) + 1
    problems = []
    if not close(r["entropy_bits"], entropy_of_counts(counts.values())):
        problems.append("entropy_bits differs from the phasing's entropy")
    n = len(panel)
    if not close(r["log_likelihood"], math.fsum(c * math.log2(c / n) for c in counts.values())):
        problems.append("log_likelihood differs from the phasing's counts")
    return problems


def check_confusability(call, r) -> list:
    t = call.inst
    nx = len(t.x_labels)
    pairs = {(a, b) for a in range(nx) for b in range(a + 1, nx)
             if any(p > 0 and q > 0 for p, q in zip(t.probs[a], t.probs[b]))}
    want = [[t.x_labels[a], t.x_labels[b]] for a, b in sorted(pairs)]
    if r["edges"] != want:
        return ["confusability edges differ from the table's zero pattern"]
    marg = [math.fsum(row) for row in t.probs]
    problems = [] if all(close(a, b) for a, b in zip(r["marginals"], marg)) else [
        "marginals differ from the table's row sums"]
    index = {x: i for i, x in enumerate(t.x_labels)}
    classes = [[index[x] for x in cls] for cls in r["classes"]]
    problems += _partition(classes, nx, "colour classes")
    problems += _independent_sets(classes, _adjacency(pairs))
    masses = [math.fsum(marg[v] for v in cls) for cls in classes]
    if not close(r["rate_bits"], -math.fsum(p * math.log2(p) for p in masses if p > 0)):
        problems.append("rate_bits differs from the weighted class entropy")
    return problems


def check_call(call, report: dict, prior: dict) -> list:
    """Independent problems with one report; `prior` maps call ids of the
    same pass to their reports."""
    group, action = call.argv[0], call.argv[1]
    if group == "color":
        return check_interval(call, report) if action == "interval" else check_color(call, report)
    if group == "setcover":
        return check_setcover(call, report)
    if group == "orient":
        return check_orient(call, report, prior)
    if group == "graphent":
        return check_graphent(call, report)
    if action == "haplotype":
        return check_haplotype(call, report)
    return check_confusability(call, report)


def excess_bits(call, report: dict, prior: dict):
    """Bits above the call's reported bound, or None when it reports none."""
    group, action = call.argv[0], call.argv[1]
    if (group, action) == ("color", "interval"):
        return report["entropy_bits"] - report["lower_bound_H"]
    if (group, action) == ("setcover", "certify"):
        return report["entropy_bits"] - report["certificate"]["sum_y"]
    if (group, action) == ("graphent", "split"):
        return abs(report["gap_bits"])
    if (group, action) == ("graphent", "greedy-bound"):
        return report["g_bits"] - report["H_bits"]
    if (group, action) == ("orient", "estimate"):
        return abs(report["H"] - prior[call.biased]["entropy_bits"])
    return None
