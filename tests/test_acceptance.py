"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Criterion 7c checks a numeric constant that is strictly unattainable
(0.1423 is a round-up of log2(3/e) = 0.14227, so the strict inequality fails
by about 3.3e-5); it is implemented as stated and expected to fail.
"""

import math
import random
from fractions import Fraction

from minent import coloring as col
from minent import graphent as ge
from minent import orientation as orr
from minent import setcover as sc
from minent.core import LOG2_E, Graph, interval_graph
from minent.io import random_graph, random_intervals, random_regular_graph, random_setcover
from oracles import (Distribution, class_counts, counts_to_distribution, dominates, entropy,
                     jk_rows, max_point_depth, random_bipartite_graph, random_connected_graph)


def _verdict(num, ok, desc):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def _setcover_family():
    from minent.core import SetSystem
    instances = []
    for seed in range(500):
        rng = random.Random(seed)
        instances.append(random_setcover(rng.randrange(1, 9), rng.randrange(1, 6),
                                         seed=seed))
    instances.append(SetSystem(4, [[0, 1, 2], [2, 3], [3]]))
    return instances


def test_criterion_1_greedy_set_cover_bound():
    ok = True
    for s in _setcover_family():
        gap = (sc.cover_entropy(sc.greedy_cover(s)[0])
               - sc.cover_entropy(sc.exact_cover(s)))
        if not (-1e-9 <= gap <= LOG2_E + 1e-9):
            ok = False
            break
    _verdict(1, ok, "greedy entropy within [OPT, OPT + log2 e] on 501 instances")


def test_criterion_2_dual_certificate():
    ok = True
    for s in _setcover_family():
        cover, _ = sc.greedy_cover(s)
        y = sc.dual_certificate(cover)
        sum_y = math.fsum(y)
        opt = sc.cover_entropy(sc.exact_cover(s))
        if abs(sum_y - (sc.cover_entropy(cover) - LOG2_E)) > 1e-9:
            ok = False
            break
        if sum_y > opt + 1e-9:
            ok = False
            break
        if sc.verify_dual_feasibility(s, y).violations:
            ok = False
            break
    _verdict(2, ok, "sum y = g - log2 e, sum y <= OPT, dual feasible everywhere")


def _orientation_family():
    graphs = []
    for seed in range(300):
        rng = random.Random(seed)
        n = rng.randrange(2, 9)
        m = rng.randrange(n - 1, min(14, n * (n - 1) // 2) + 1)
        graphs.append(random_connected_graph(n, m, seed=seed))
    graphs.append(Graph(5, [(i, i + 1) for i in range(4)]))          # path
    graphs.append(Graph(5, [(0, i) for i in range(1, 5)]))           # star
    graphs.append(Graph(6, [(i, (i + 1) % 6) for i in range(6)]))    # cycle
    graphs.append(Graph(5, [(u, v) for u in range(5) for v in range(u + 1, 5)]))
    return graphs


def test_criterion_3_biased_orientation_bound():
    tri = Graph(3, [(0, 1), (0, 2), (1, 2)])
    opt_tri = orr.orientation_entropy(orr.exact_orientation(tri))
    ok = abs(opt_tri - 0.9183) <= 1e-3
    for g in _orientation_family():
        gap = (orr.orientation_entropy(orr.biased_orientation(g))
               - orr.orientation_entropy(orr.exact_orientation(g)))
        if not (-1e-9 <= gap <= 1.0 + 1e-9):
            ok = False
            break
    _verdict(3, ok, "biased orientation within [OPT, OPT + 1] on 304 graphs")


def test_criterion_4_sampling_estimator():
    g = random_regular_graph(10, 3, seed=7)
    opt = orr.orientation_entropy(orr.exact_orientation(g))
    good = 0
    for seed in range(100):
        h, _ = orr.estimate_entropy(g, 0.5, 0.05, seed=seed, one_sided=True)
        if opt - 1e-9 <= h <= opt + 1.5:
            good += 1
    sweep, _ = orr.estimate_entropy(g, 0.5, 0.05, full_sweep=True)
    biased = orr.orientation_entropy(orr.biased_orientation(g))
    ok = good >= 95 and abs(sweep - biased) <= 1e-9
    _verdict(4, ok, f"one-sided estimate in [OPT, OPT+1.5] in {good}/100 runs; "
                    "full sweep matches biased entropy")


def _max_i_colorable_sizes(iv, n):
    best = [0] * (n + 1)
    # integer ranks of the endpoints keep their order, so every depth is
    # the same, and the 2^n depth sorts compare ints, not Fractions
    rank = {x: r for r, x in enumerate(sorted({x for ab in iv.intervals for x in ab}))}
    ivs = [(rank[lo], rank[hi]) for lo, hi in iv.intervals]
    for mask in range(1 << n):
        subset = [ivs[v] for v in range(n) if mask >> v & 1]
        d = max_point_depth(subset)
        size = len(subset)
        for i in range(d, n + 1):
            if size > best[i]:
                best[i] = size
    return best


def test_criterion_5_interval_algorithm():
    ok = True
    for seed in range(200):
        rng = random.Random(1000 + seed)
        n = rng.randrange(2, 13)
        iv = random_intervals(n, seed=seed)
        g = interval_graph(iv)
        coloring, layers = col.interval_mec(iv)
        alg = col.coloring_entropy(g, coloring)
        opt = col.coloring_entropy(g, col.exact_coloring(g))
        hp = layers.lower_bound_H
        if not (hp <= opt + 1e-9 and opt <= alg + 1e-9 and alg <= hp + 1.0 + 1e-9):
            ok = False
            break
        best = _max_i_colorable_sizes(iv, n)
        acc = 0
        for i, layer in enumerate(layers.layers, start=1):
            acc += len(layer)
            if acc != best[i]:
                ok = False
        for layer in layers.layers:  # bipartite: at most 2 colors per layer
            if len({coloring.colors[v] for v in layer}) > 2:
                ok = False
        if not ok:
            break
    _verdict(5, ok, "H' <= OPT <= algorithm <= H' + 1 with prefix-maximal, "
                    "bipartite layers on 200 instances")


def _random_proper_counts(g, rng):
    adj = g.adjacency_masks()
    order = list(range(g.n))
    rng.shuffle(order)
    masks, counts = [], []
    for v in order:
        options = [i for i in range(len(masks)) if not masks[i] & adj[v]]
        options.append(len(masks))
        i = rng.choice(options)
        if i == len(masks):
            masks.append(0)
            counts.append(0)
        masks[i] |= 1 << v
        counts[i] += 1
    return tuple(sorted(counts, reverse=True))


def _all_proper_counts(g):
    adj = g.adjacency_masks()
    masks, counts, out = [], [], set()

    def rec(v):
        if v == g.n:
            out.add(tuple(sorted(counts, reverse=True)))
            return
        for i in range(len(masks)):
            if not masks[i] & adj[v]:
                masks[i] |= 1 << v
                counts[i] += 1
                rec(v + 1)
                masks[i] &= ~(1 << v)
                counts[i] -= 1
        masks.append(1 << v)
        counts.append(1)
        rec(v + 1)
        masks.pop()
        counts.pop()

    rec(0)
    return out


def test_criterion_6_jk_gadget():
    ok = True
    for k in range(1, 6):
        g = interval_graph(col.gen_jk(k))
        coloring = col.exact_coloring(g)
        if sorted(class_counts(coloring), reverse=True) != list(range(k, 0, -1)):
            ok = False
        for row in jk_rows(k):
            if len({coloring.colors[v] for v in row}) != 1:
                ok = False
        rowwise = counts_to_distribution(list(range(k, 0, -1)))
        if k <= 4:
            realized = _all_proper_counts(g)
        else:
            rng = random.Random(5)
            realized = {_random_proper_counts(g, rng) for _ in range(10_000)}
        for counts in realized:
            if not dominates(rowwise, counts_to_distribution(counts)):
                ok = False
    _verdict(6, ok, "J_k optimum is rowwise (k,...,1) and dominates every "
                    "realizable coloring distribution, k = 1..5")


def _perfect_family():
    graphs = []
    for seed in range(25):
        rng = random.Random(seed)
        graphs.append(random_bipartite_graph(rng.randrange(2, 13), seed=seed))
    for seed in range(25):
        rng = random.Random(100 + seed)
        graphs.append(interval_graph(random_intervals(rng.randrange(2, 13),
                                                      seed=seed)))
    return graphs


def test_criterion_7a_greedy_exact_on_perfect_graphs():
    ok = True
    for g in _perfect_family():
        gap = (col.coloring_entropy(g, col.greedy_coloring(g))
               - col.coloring_entropy(g, col.exact_coloring(g)))
        if not (-1e-9 <= gap <= LOG2_E + 1e-9):
            ok = False
            break
    _verdict("7a", ok, "greedy(exact MIS) within log2 e of OPT on perfect families")


def test_criterion_7b_approximate_greedy_bound():
    ok = True
    for seed in range(60):
        rng = random.Random(seed)
        n = rng.randrange(2, 11)
        g = random_graph(n, rng.randrange(0, n * (n - 1) // 2 + 1), seed=seed)
        beta = (g.max_degree() + 2) / 3
        gap = (col.coloring_entropy(g, col.greedy_coloring(g, oracle="approx"))
               - col.coloring_entropy(g, col.exact_coloring(g)))
        if not (-1e-9 <= gap <= math.log2(beta) + LOG2_E + 1e-9):
            ok = False
            break
    _verdict("7b", ok, "greedy(approx MIS) within log2 beta + log2 e of OPT")


def test_criterion_7c_bounded_degree_constant():
    # Known red: 0.1423 rounds up log2(3/e) = 0.142267..., so the strict
    # inequality fails by about 3.3e-5 for every degree.
    ok = all(
        math.log2((d + 2) / 3) + LOG2_E < math.log2(d + 2) - 0.1423
        for d in range(1, 65))
    _verdict("7c", ok, "log2((D+2)/3) + log2 e < log2(D+2) - 0.1423 for D in [1,64]")


def test_criterion_8_graph_entropy():
    ok = True
    for n in (2, 3, 5, 8):
        kn = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
        if abs(ge.graph_entropy(kn)[0] - math.log2(n)) > 1e-6:
            ok = False
    if abs(ge.graph_entropy(Graph(5, []))[0]) > 1e-6:
        ok = False
    c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    if abs(ge.graph_entropy(c4)[0] - 1.0) > 1e-5:
        ok = False
    fixtures = _perfect_family()[:16] + [c4]
    for g in fixtures:
        if abs(ge.splitting_gap(g)) > 2e-6:
            ok = False
        if g.n <= 12:
            h, _ = ge.graph_entropy(g)
            chrom = col.coloring_entropy(g, col.exact_coloring(g))
            greedy = col.coloring_entropy(g, col.greedy_coloring(g))
            if not (h <= chrom + 1e-6 and chrom <= greedy + 1e-9):
                ok = False
            rep = ge.greedy_vs_entropy(g)
            if not rep.bound_holds:
                ok = False
    _verdict(8, ok, "K_n/edgeless/C4 values, splitting identity, relaxation "
                    "chain, and the g <= H + log2(H+1) + 4 check")


def _partitions(total, maxpart=None):
    if total == 0:
        yield ()
        return
    if maxpart is None:
        maxpart = total
    for first in range(min(total, maxpart), 0, -1):
        for rest in _partitions(total - first, first):
            yield (first,) + rest


def test_criterion_9_entropy_core():
    ok = abs(entropy(counts_to_distribution([5, 4, 2])) - 1.4949) <= 1e-3
    dists = sorted({tuple(Fraction(c, t) for c in p)
                    for t in range(1, 13) for p in _partitions(t)})
    ents = {d: entropy(Distribution(d)) for d in dists}
    for q in dists:
        for r in dists:
            if dominates(Distribution(r), Distribution(q)):
                if q == r:
                    if ents[q] != ents[r]:
                        ok = False
                elif not ents[q] > ents[r]:
                    ok = False
    _verdict(9, ok, "worked-example entropy and dominance-entropy monotonicity over "
                    "all count distributions with total <= 12")


def test_criterion_10_apps():
    from minent.apps import (GenotypePanel, JointTable, confusability_graph,
                             haplotype_instance)
    table = JointTable(["a", "b", "c"], ["0", "1"],
                       [[0.25, 0.25], [0.25, 0.0], [0.0, 0.25]])
    g = confusability_graph(table)
    ok = set(g.edges) == {(0, 1), (0, 2)}
    system, _ = haplotype_instance(GenotypePanel(["0?", "?1"]))
    cover, _ = sc.greedy_cover(system)
    if sc.cover_entropy(cover) != 0.0:
        ok = False
    scaled = [[3 * p for p in row] for row in table.probs]
    total = sum(p for row in scaled for p in row)
    rescaled = JointTable(table.x_labels, table.y_labels,
                          [[p / total for p in row] for row in scaled])
    if confusability_graph(rescaled).edges != g.edges:
        ok = False
    _verdict(10, ok, "confusability edges, zero-entropy phasing, rescaling invariance")
