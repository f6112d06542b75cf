"""Seeded instance ladder: generators, workload definitions and file writers.

Every instance is generated here with the standard library, from the run seed,
and written to a text file; `minent` only ever sees the files. The benchmark
keeps its own copy of each instance so that outputs can be checked without
going through `minent`.

Instances whose cost or solution quality would otherwise swing with the seed
have a fixed *shape*, drawn once from a shape seed, and take only their
vertex or interval labels from the run seed: the interval sets, the
graph-entropy graphs and the small estimator graphs. Drawn fresh, their cost
moves by up to 2x between seeds (interval depth, MIS count) and so does their
excess over the bound, which no run length can average away. The set systems
take their members from the seed but have fixed set sizes or element
multiplicities, which fix the exact oracles' work. The remaining instances
(the bulk-greedy inputs, the exact-oracle graphs) are drawn fresh.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass
from typing import Optional


@dataclass
class Call:
    """One `minent` CLI call of a pass, with the instance it reads."""

    cid: str
    argv: list
    inst: object              # the benchmark's own copy of the instance
    group: str = "medium"     # "largest", "medium" or "small"
    biased: Optional[str] = None  # estimate calls: id of the biased call on the same graph


# --------------------------------------------------------------------------
# instance generators (benchmark-owned; independent of minent.io)


def rng_for(seed: int, name: str) -> random.Random:
    # str seeds are hashed with SHA-512 by `random`, so this is stable
    # across processes and PYTHONHASHSEED values.
    return random.Random(f"{seed}/{name}")


@dataclass
class GraphInst:
    n: int
    edges: list               # (u, v) with u < v, in file order


@dataclass
class IntervalInst:
    den: int
    ivs: list                 # (lo, hi) integer numerators over den


@dataclass
class SetInst:
    n: int
    sets: list                # sorted member lists


@dataclass
class TableInst:
    x_labels: list
    y_labels: list
    probs: list


def _norm(u: int, v: int) -> tuple:
    return (u, v) if u < v else (v, u)


def relabel(g: GraphInst, rng: random.Random) -> GraphInst:
    perm = list(range(g.n))
    rng.shuffle(perm)
    edges = [_norm(perm[u], perm[v]) for u, v in g.edges]
    rng.shuffle(edges)
    return GraphInst(g.n, edges)


def gnm(rng: random.Random, n: int, m: int) -> GraphInst:
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return GraphInst(n, rng.sample(pairs, m))


def cliques(count: int, size: int) -> GraphInst:
    """`count` disjoint cliques of `size` vertices each."""
    return GraphInst(count * size, [(c * size + a, c * size + b) for c in range(count)
                                    for a in range(size) for b in range(a + 1, size)])


def cycle(n: int) -> GraphInst:
    return GraphInst(n, [_norm(i, (i + 1) % n) for i in range(n)])


def regular6(rng: random.Random, n: int) -> GraphInst:
    """6-regular graph: union of three edge-disjoint random Hamiltonian cycles."""
    edges: set = set()
    order = []
    for _ in range(3):
        perm = list(range(n))
        rng.shuffle(perm)
        while True:
            bad = [i for i in range(n) if _norm(perm[i], perm[(i + 1) % n]) in edges]
            if not bad:
                break
            for i in bad:
                j = rng.randrange(n)
                k = (i + 1) % n
                perm[k], perm[j] = perm[j], perm[k]
        cyc = [_norm(perm[i], perm[(i + 1) % n]) for i in range(n)]
        edges.update(cyc)
        order.extend(cyc)
    return GraphInst(n, order)


def random_intervals(rng: random.Random, n: int) -> IntervalInst:
    """Endpoints drawn from a uniform grid over [0, 1], as minent.io does."""
    den = max(2 * n, 8)
    ivs = []
    for _ in range(n):
        a, b = rng.sample(range(den + 1), 2)
        ivs.append((min(a, b), max(a, b)))
    return IntervalInst(den, ivs)


def jk_intervals(k: int) -> IntervalInst:
    """The J_k gadget ((j-1)/i, j/i), 1 <= j <= i <= k, over lcm(1..k)."""
    den = math.lcm(*range(1, k + 1))
    return IntervalInst(den, [((j - 1) * den // i, j * den // i)
                              for i in range(1, k + 1) for j in range(1, i + 1)])


def shuffled_intervals(iv: IntervalInst, rng: random.Random) -> IntervalInst:
    ivs = list(iv.ivs)
    rng.shuffle(ivs)
    return IntervalInst(iv.den, ivs)


def sized_setcover(rng: random.Random, n: int, sizes: list) -> SetInst:
    """Sets of the given sizes with random members, redrawn until they cover."""
    while True:
        sets = [sorted(rng.sample(range(n), s)) for s in sizes]
        if len({x for s in sets for x in s}) == n:
            return SetInst(n, sets)


def multiplicity_setcover(rng: random.Random, n: int, k: int, c: int) -> SetInst:
    """Every element in exactly c of k sets, so an exhaustive search visits
    exactly c^n leaves whatever the seed."""
    while True:
        sets: list = [[] for _ in range(k)]
        for x in range(n):
            for i in rng.sample(range(k), c):
                sets[i].append(x)
        if all(sets):
            return SetInst(n, sets)


def dense_setcover(rng: random.Random, n: int, k: int) -> SetInst:
    """Each element in each set with probability 1/2."""
    while True:
        sets = []
        for _ in range(k):
            bits = rng.getrandbits(n)
            members = [x for x in range(n) if bits >> x & 1] or [rng.randrange(n)]
            sets.append(members)
        if len({x for s in sets for x in s}) == n:
            return SetInst(n, sets)


def genotype_panel(rng: random.Random, count: int, length: int, founders: int,
                   wildcards: int) -> list:
    """Genotypes copied from a few founder haplotypes, each with exactly
    `wildcards` positions masked as '?'."""
    bases = ["".join(rng.choice("01") for _ in range(length)) for _ in range(founders)]
    panel = []
    for _ in range(count):
        chars = list(rng.choice(bases))
        for pos in rng.sample(range(length), wildcards):
            chars[pos] = "?"
        panel.append("".join(chars))
    return panel


def joint_table(rng: random.Random, nx: int, ny: int, density: float) -> TableInst:
    weights = [[rng.randrange(1, 10) if rng.random() < density else 0
                for _ in range(ny)] for _ in range(nx)]
    for row in weights:
        if not any(row):
            row[rng.randrange(ny)] = 1
    total = sum(map(sum, weights))
    probs = [[w / total for w in row] for row in weights]
    return TableInst([f"x{i}" for i in range(nx)], [f"y{j}" for j in range(ny)], probs)


# --------------------------------------------------------------------------
# text formats (the ones minent.io reads)


def graph_text(g: GraphInst) -> str:
    out = [f"graph {g.n} {len(g.edges)}"] + [f"{u} {v}" for u, v in g.edges]
    return "\n".join(out) + "\n"


def intervals_text(iv: IntervalInst) -> str:
    out = [f"intervals {len(iv.ivs)}"]
    out += [f"{lo}/{iv.den} {hi}/{iv.den}" for lo, hi in iv.ivs]
    return "\n".join(out) + "\n"


def setcover_text(s: SetInst) -> str:
    out = [f"setcover {s.n} {len(s.sets)}"] + [" ".join(map(str, m)) for m in s.sets]
    return "\n".join(out) + "\n"


def table_text(t: TableInst) -> str:
    out = ["," + ",".join(t.y_labels)]
    out += [x + "," + ",".join(repr(p) for p in row) for x, row in zip(t.x_labels, t.probs)]
    return "\n".join(out) + "\n"


_TEXT = {"graph": graph_text, "intervals": intervals_text, "setcover": setcover_text,
         "genotypes": lambda panel: "\n".join(panel) + "\n", "table": table_text}


# --------------------------------------------------------------------------
# workloads
#
# Sizes per workload: "full" is the measured ladder, "smoke" a seconds-long
# version for the self-test. Shape seeds fix the structure of cost-dominant
# instances (see the module docstring); the run seed relabels them.
# Tuples: graphs (n, m[, shape seed]); certify (n, set sizes); exact_cover
# (n, k, sets per element); small and setcover (n, k); panel (genotypes,
# length, founders, wildcards per genotype); table (|X|, |Y|, nonzero density).

SIZES = {
    "interval-sweep": {
        "full": {"largest_n": 100, "medium_n": [40, 80], "jk": [10, 12],
                 "small_n": 6, "small_count": 60},
        "smoke": {"largest_n": 16, "medium_n": [8], "jk": [3], "small_n": 5,
                  "small_count": 4},
    },
    "fw-entropy": {
        "full": {"gnm": (36, 54, 2), "cycle": 30, "bound_graph": (12, 18),
                 "small_cliques": [(2, 3), (3, 2), (2, 2)], "small_count": 60},
        "smoke": {"gnm": (10, 12, 1), "cycle": 7, "bound_graph": (7, 9),
                  "small_cliques": [(2, 2)], "small_count": 3},
    },
    "exact-certify": {
        "full": {"certify": (24, [16, 16, 16, 14, 14, 14] + [10] * 24),
                 "exact_cover": (11, 8, 3), "orient_exact": (9, 20),
                 "color_exact": (12, 20), "color_greedy": (30, 45),
                 "small": (5, 3), "small_count": 60},
        "smoke": {"certify": (8, [6, 5, 4, 3]), "exact_cover": (5, 4, 2),
                  "orient_exact": (5, 6), "color_exact": (6, 7),
                  "color_greedy": (8, 10), "small": (4, 3), "small_count": 4},
    },
    "bulk-greedy": {
        "full": {"setcover": (3000, 500), "regular_n": 10_000,
                 "panel": (400, 24, 12, 3), "approx": (1000, 2500),
                 "table": (12, 16, 0.2), "small_n": 40, "small_graphs": 8,
                 "small_estimates": 40},
        "smoke": {"setcover": (30, 8), "regular_n": 40, "panel": (12, 8, 3, 2),
                  "approx": (20, 30), "table": (5, 6, 0.4), "small_n": 12,
                  "small_graphs": 2, "small_estimates": 3},
    },
}

SHAPE_SEED = 1


class Writer:
    """Writes instance files into one directory and builds Calls."""

    def __init__(self, root: str):
        self.root = root
        self.calls: list = []

    def add(self, cid: str, argv: list, kind: str, inst, group: str = "medium",
            path: Optional[str] = None, biased: Optional[str] = None) -> str:
        """Write `inst` in format `kind` (unless `path` already holds it) and
        append the call; return the instance's path."""
        if path is None:
            path = os.path.join(self.root, cid + ".txt")
            with open(path, "w") as f:
                f.write(_TEXT[kind](inst))
        self.calls.append(Call(cid, argv + ["--input", path, "--json"], inst, group, biased))
        return path


def shaped_intervals(seed: int, name: str, n: int) -> IntervalInst:
    """A fixed random interval set of size n, in an order drawn from `seed`."""
    return shuffled_intervals(random_intervals(rng_for(SHAPE_SEED, name), n),
                              rng_for(seed, name))


def _interval_sweep(w: Writer, seed: int, sz: dict) -> None:
    cmd = ["color", "interval", "--assert-bound"]
    n = sz["largest_n"]
    w.add(f"interval-n{n}", cmd, "intervals", shaped_intervals(seed, f"interval-{n}", n),
          "largest")
    for n in sz["medium_n"]:
        w.add(f"interval-n{n}", cmd, "intervals", shaped_intervals(seed, f"interval-{n}", n))
    for k in sz["jk"]:
        w.add(f"jk-{k}", cmd, "intervals", jk_intervals(k))
    for i in range(sz["small_count"]):
        w.add(f"small-{i}", cmd, "intervals",
              shaped_intervals(seed, f"small-{i}", sz["small_n"]), "small")


def _fw_entropy(w: Writer, seed: int, sz: dict) -> None:
    n, m, shape = sz["gnm"]
    g = relabel(gnm(rng_for(shape, "fw-gnm"), n, m), rng_for(seed, "fw-gnm"))
    w.add(f"gnm-{n}-{m}", ["graphent", "compute"], "graph", g, "largest")
    c = relabel(cycle(sz["cycle"]), rng_for(seed, "fw-cycle"))
    w.add(f"cycle-{sz['cycle']}", ["graphent", "compute"], "graph", c)
    n, m = sz["bound_graph"]
    g = relabel(gnm(rng_for(SHAPE_SEED, "fw-bound"), n, m), rng_for(seed, "fw-bound"))
    path = w.add(f"split-{n}", ["graphent", "split", "--assert-bound"], "graph", g)
    w.add(f"greedy-bound-{n}", ["graphent", "greedy-bound", "--assert-bound"],
          "graph", g, path=path)
    # Small calls: disjoint equal cliques, where the uniform start is already
    # optimal and Frank-Wolfe stops at its first gap test, so the call costs
    # only its fixed part (random tiny graphs take 3 to 35 ms by iteration count).
    shapes = sz["small_cliques"]
    for i in range(sz["small_count"]):
        g = relabel(cliques(*shapes[i % len(shapes)]), rng_for(seed, f"small-{i}"))
        w.add(f"small-{i}", ["graphent", "compute"], "graph", g, "small")


def _exact_certify(w: Writer, seed: int, sz: dict) -> None:
    n, sizes = sz["certify"]
    w.add(f"certify-{n}", ["setcover", "certify", "--assert-bound"], "setcover",
          sized_setcover(rng_for(seed, "certify"), n, sizes), "largest")
    n, k, c = sz["exact_cover"]
    w.add(f"setcover-exact-{n}", ["setcover", "exact"], "setcover",
          multiplicity_setcover(rng_for(seed, "exact-cover"), n, k, c))
    n, m = sz["orient_exact"]
    w.add(f"orient-exact-m{m}", ["orient", "exact"], "graph",
          gnm(rng_for(seed, "orient-exact"), n, m))
    n, m = sz["color_exact"]
    w.add(f"color-exact-{n}", ["color", "exact"], "graph",
          gnm(rng_for(seed, "color-exact"), n, m))
    n, m = sz["color_greedy"]
    w.add(f"color-greedy-{n}", ["color", "greedy"], "graph",
          gnm(rng_for(seed, "color-greedy"), n, m))
    n, k = sz["small"]
    for i in range(sz["small_count"]):
        w.add(f"small-{i}", ["setcover", "exact"], "setcover",
              multiplicity_setcover(rng_for(seed, f"small-{i}"), n, k, 2), "small")


def _bulk_greedy(w: Writer, seed: int, sz: dict) -> None:
    n, k = sz["setcover"]
    w.add(f"setcover-greedy-{n}", ["setcover", "greedy"], "setcover",
          dense_setcover(rng_for(seed, "setcover"), n, k))
    n = sz["regular_n"]
    g = regular6(rng_for(seed, "regular"), n)
    path = w.add(f"orient-biased-{n}", ["orient", "biased"], "graph", g)
    w.add(f"orient-estimate-{n}", ["orient", "estimate", "--seed", str(seed)], "graph",
          g, path=path, biased=f"orient-biased-{n}")
    count, length, founders, wild = sz["panel"]
    w.add(f"haplotype-{count}", ["app", "haplotype"], "genotypes",
          genotype_panel(rng_for(seed, "panel"), count, length, founders, wild),
          "largest")
    n, m = sz["approx"]
    w.add(f"greedy-approx-{n}", ["color", "greedy-approx"], "graph",
          gnm(rng_for(seed, "approx"), n, m))
    nx, ny, dens = sz["table"]
    w.add(f"confusability-{nx}", ["app", "confusability"], "table",
          joint_table(rng_for(seed, "table"), nx, ny, dens))
    # Small calls: the estimator's error against the exact biased entropy of
    # the same graph. One |error| is half-normal (its quartiles are 3.6x
    # apart), so excess_bits pools 320 of them, with distinct estimator seeds
    # on fixed-shape graphs; epsilon 2 keeps each call at a few ms.
    per = sz["small_estimates"]
    for i in range(sz["small_graphs"]):
        g = relabel(regular6(rng_for(SHAPE_SEED, f"small-{i}"), sz["small_n"]),
                    rng_for(seed, f"small-{i}"))
        biased = f"small-{i}-biased"
        path = w.add(biased, ["orient", "biased"], "graph", g, "small")
        for j in range(per):
            est_seed = (seed * sz["small_graphs"] + i) * per + j
            w.add(f"small-{i}-est-{j}",
                  ["orient", "estimate", "--epsilon", "2", "--seed", str(est_seed)],
                  "graph", g, "small", path=path, biased=biased)


WORKLOADS = {
    "interval-sweep": _interval_sweep,
    "fw-entropy": _fw_entropy,
    "exact-certify": _exact_certify,
    "bulk-greedy": _bulk_greedy,
}


def build(workload: str, seed: int, root: str, smoke: bool = False) -> list:
    """Generate and write the workload's instances; return its calls in pass
    order, with the small calls spread evenly between the others so that
    they sample the whole pass, not one stretch of it."""
    w = Writer(root)
    WORKLOADS[workload](w, seed, SIZES[workload]["smoke" if smoke else "full"])
    small = [c for c in w.calls if c.group == "small"]
    other = [c for c in w.calls if c.group != "small"]
    calls, cut = [], 0
    for i, call in enumerate(other):
        end = len(small) * (i + 1) // (len(other) + 1)
        calls += small[cut:end] + [call]
        cut = end
    return calls + small[cut:]
