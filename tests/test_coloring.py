import itertools
import math
import random
import time
from collections import Counter
from fractions import Fraction
from heapq import heapify, heappop, heappush

import pytest

from minent.coloring import (Coloring, _two_color_layer, coloring_entropy,
                             exact_coloring, exact_mis, gen_jk, greedy_coloring,
                             interval_mec)
from minent.core import (LOG2_E, BudgetError, FeasibilityError, Graph, IntervalSet,
                         _xlog2x, entropy_of_counts, interval_graph)
from minent.io import random_intervals
from oracles import (class_counts, counts_to_distribution, dominates, jk_rows,
                     max_point_depth, random_bipartite_graph)

P3 = Graph(3, [(0, 1), (1, 2)])
C5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
K3 = Graph(3, [(0, 1), (0, 2), (1, 2)])


def proper_colorings(g):
    """Every proper canonical color vector (colors 1..k in order of first
    appearance), in lexicographic order."""
    adj = g.adjacency_masks()
    masks, colors = [], [0] * g.n

    def rec(v):
        if v == g.n:
            yield tuple(colors)
            return
        for i in range(len(masks) + 1):
            if i == len(masks):
                masks.append(0)
            elif masks[i] & adj[v]:
                continue
            masks[i] |= 1 << v
            colors[v] = i + 1
            yield from rec(v + 1)
            masks[i] &= ~(1 << v)
            if not masks[i]:
                masks.pop()

    return rec(0)


def all_proper_partitions(g):
    """Sorted class-count tuples of every proper coloring."""
    return [tuple(sorted(Counter(c).values(), reverse=True)) for c in proper_colorings(g)]


def test_coloring_entropy_p3():
    c = Coloring([1, 2, 1])
    assert coloring_entropy(P3, c) == pytest.approx(0.9183, abs=1e-3)


def test_coloring_entropy_rainbow():
    g = Graph(5, [])
    assert coloring_entropy(g, Coloring([1, 2, 3, 4, 5])) == pytest.approx(
        math.log2(5), abs=1e-12)


def test_coloring_entropy_weighted_k2():
    g = Graph(2, [(0, 1)], weights=[0.9, 0.1])
    assert coloring_entropy(g, Coloring([1, 2])) == pytest.approx(0.469, abs=1e-3)


def test_coloring_entropy_rejects_improper():
    with pytest.raises(FeasibilityError):
        coloring_entropy(P3, Coloring([1, 1, 1]))


def test_coloring_classes_follow_their_first_vertex():
    # colour 3 comes first, then 7, then 1: classes go by first vertex, not colour
    assert Coloring([3, 7, 3, 1]).classes() == [[0, 2], [1], [3]]
    assert Coloring([2, 1, 1, 2, 5]).classes() == [[0, 3], [1, 2], [4]]


def _relabelled_sorted_classes(colors):
    """Classes as the reports listed them before: relabel the colours 1..t
    in order of first appearance, then list the classes by colour."""
    relabel: dict[int, int] = {}
    by_color: dict[int, list[int]] = {}
    for v, c in enumerate(colors):
        by_color.setdefault(relabel.setdefault(c, len(relabel) + 1), []).append(v)
    return [by_color[c] for c in sorted(by_color)]


def test_coloring_classes_match_relabel_then_sort():
    for seed in range(300):
        rng = random.Random(seed)
        n = rng.randrange(0, 30)
        palette = rng.sample(range(1, 1000), rng.randrange(1, 8))  # gaps between colours
        colors = [rng.choice(palette) for _ in range(n)]  # and repeats within them
        assert Coloring(colors).classes() == _relabelled_sorted_classes(colors), colors


def test_exact_mis():
    assert exact_mis(P3) == (0, 2)
    k4 = Graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    assert exact_mis(k4) == (0,)
    assert exact_mis(C5) == (0, 2)


def test_exact_mis_of_no_vertices_is_empty():
    # the search itself returns () when there is nothing to choose
    assert exact_mis(Graph(0, [])) == ()
    assert exact_mis(P3, []) == ()
    assert exact_mis(Graph(2, [(0, 1)], weights=[0.5, 0.5]), []) == ()


def test_exact_mis_weighted():
    assert exact_mis(Graph(3, P3.edges, weights=[0.1, 0.8, 0.1])) == (1,)


def test_exact_mis_matches_enumeration_tie_for_tie():
    # Over the chosen vertices, the search tries each vertex in before out,
    # so of the optima it returns the one whose membership vector, in vertex
    # order, is largest. Weights are multiples of 1/64, so every sum is exact.
    from minent.io import random_graph
    rng = random.Random(0)
    for seed in range(300):
        n = rng.randrange(1, 10)
        g = random_graph(n, rng.randrange(n * (n - 1) // 2 + 1), seed=seed)
        if seed % 2:
            raw = [rng.choice([0, 1, 1, 2, 3]) for _ in range(n - 1)]
            raw.append(64 - sum(raw))
            g = Graph(n, g.edges, [r / 64 for r in raw])
        vs = sorted(rng.sample(range(n), rng.randrange(n + 1)))
        weight = g.weights or [1.0] * n
        best = max((s for k in range(len(vs) + 1) for s in itertools.combinations(vs, k)
                    if g.is_independent_set(s)),
                   key=lambda s: (sum(weight[v] for v in s), [v in s for v in vs]))
        assert exact_mis(g, vs) == best, (seed, vs)
        if len(vs) == n:
            assert exact_mis(g) == best


def test_exact_mis_budget():
    with pytest.raises(BudgetError):
        exact_mis(Graph(41, []))


def _approx_class_one(g):
    """Class 1 of the approximate greedy coloring: the min-degree greedy
    independent set of the whole graph."""
    return tuple(v for v, c in enumerate(greedy_coloring(g, "approx").colors) if c == 1)


def test_approx_mis():
    assert _approx_class_one(P3) == (0, 2)
    assert _approx_class_one(Graph(4, [])) == (0, 1, 2, 3)
    k4 = Graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    assert len(_approx_class_one(k4)) == 1


def test_approx_mis_ratio_bound():
    for seed in range(30):
        rng = random.Random(seed)
        n = rng.randrange(2, 11)
        m = rng.randrange(0, n * (n - 1) // 2 + 1)
        from minent.io import random_graph
        g = random_graph(n, m, seed=seed)
        ratio_cap = max(1.0, (g.max_degree() + 2) / 3)
        assert len(exact_mis(g)) <= ratio_cap * len(_approx_class_one(g)) + 1e-9


def _min_degree_greedy(g):
    """The min-degree greedy recounting every live vertex's residual degree
    for each pick, ties to the smallest index."""
    alive = set(range(g.n))
    chosen = []
    while alive:
        v = min(alive, key=lambda u: (sum(1 for x in g.adjacency[u] if x in alive), u))
        chosen.append(v)
        alive.discard(v)
        alive -= set(g.adjacency[v])
    return tuple(sorted(chosen))


def _tied_graphs():
    """Graphs with many equal residual degrees: the empty graph, edgeless
    graphs, cycles, disjoint equal cliques, stars and 6-regular circulants
    (v joined to v +- 1, 2, 3) in seeded vertex orders."""
    yield Graph(0, [])
    for n in (1, 5):
        yield Graph(n, [])
    for n in range(3, 25):
        yield Graph(n, [(v, (v + 1) % n) for v in range(n)])
    for count, size in [(2, 2), (2, 3), (3, 3), (4, 2), (3, 4), (2, 5), (5, 3)]:
        yield Graph(count * size, [(b * size + u, b * size + v) for b in range(count)
                                   for u in range(size) for v in range(u + 1, size)])
    for n in range(2, 12):
        yield Graph(n, [(0, v) for v in range(1, n)])
        yield Graph(n, [(v, n - 1) for v in range(n - 1)])
    for n in (7, 8, 10, 13, 20, 41, 64):
        for seed in range(3):
            label = list(range(n))
            random.Random(seed).shuffle(label)
            yield Graph(n, [(label[v], label[(v + d) % n]) for v in range(n) for d in (1, 2, 3)])


def test_approx_mis_matches_recounting_greedy_tie_for_tie():
    from minent.io import random_graph
    graphs = list(_tied_graphs())
    for seed in range(300):
        rng = random.Random(seed)
        n = rng.randrange(1, 31)
        graphs.append(random_graph(n, rng.randrange(0, n * (n - 1) // 2 + 1), seed=seed))
    for g in graphs:
        assert _approx_class_one(g) == _min_degree_greedy(g), g.edges


def _branch_and_bound_mis(g, w):
    """Maximum-weight independent set of g under the weight list w (None:
    unit weights) by the suffix-sum branch and bound, include-first, so the
    lexicographically smallest optimum is found first."""
    n = g.n
    w = [1.0] * n if w is None else w
    adj = g.adjacency_masks()
    suffix = [0.0] * (n + 1)
    for v in range(n - 1, -1, -1):
        suffix[v] = suffix[v + 1] + w[v]
    best = [-1.0, ()]

    def recurse(v, chosen_mask, chosen, cur):
        if cur + suffix[v] <= best[0] + 1e-12:
            return
        if v == n:
            best[:] = [cur, tuple(chosen)]
            return
        if not (adj[v] & chosen_mask):
            recurse(v + 1, chosen_mask | (1 << v), chosen + [v], cur + w[v])
        recurse(v + 1, chosen_mask, chosen, cur)

    recurse(0, 0, [], 0.0)
    return best[1]


def _induced_greedy(g, oracle):
    """The greedy coloring that builds an induced Graph of the uncolored
    vertices for each color class and maps the oracle's picks back."""
    remaining = list(range(g.n))
    colors = [0] * g.n
    color = 0
    while remaining:
        index = {v: i for i, v in enumerate(remaining)}
        sub = Graph(len(remaining), [(index[u], index[v]) for (u, v) in g.edges
                                     if u in index and v in index])
        if oracle == "exact":
            w = None if g.weights is None else [g.weights[v] for v in remaining]
            picked = _branch_and_bound_mis(sub, w)
        else:
            picked = _min_degree_greedy(sub)
        color += 1
        taken = {remaining[i] for i in picked}
        for v in taken:
            colors[v] = color
        remaining = [v for v in remaining if v not in taken]
    return colors


def _normalized(raw):
    total = sum(raw)
    return [x / total for x in raw]


def test_greedy_coloring_matches_induced_graph_loop_tie_for_tie():
    from minent.io import random_graph
    graphs = [g for g in _tied_graphs() if g.n <= 20]
    for seed in range(300):
        rng = random.Random(seed)
        n = rng.randrange(1, 19)
        graphs.append(random_graph(n, rng.randrange(0, n * (n - 1) // 2 + 1), seed=seed))
    for i, g in enumerate(graphs):
        if g.n == 0:
            continue
        rng = random.Random(i)
        weighted = [Graph(g.n, g.edges, _normalized([rng.random() for _ in range(g.n)])),
                    Graph(g.n, g.edges, _normalized([rng.choice((1, 2)) for _ in range(g.n)]))]
        for h in [g] + weighted:
            for oracle in ("exact", "approx"):
                assert greedy_coloring(h, oracle).colors == tuple(_induced_greedy(h, oracle)), \
                    (oracle, h.edges, h.weights)


def _recounting_approx_coloring(g):
    """greedy_coloring(g, "approx") with each class's min-degree heap greedy
    recounting every uncolored vertex's residual degree first, so no degree
    is kept from one class to the next."""
    adjacency = g.adjacency
    remaining = list(range(g.n))
    colors = [0] * g.n
    color = 0
    while remaining:
        color += 1
        alive = [False] * g.n
        for v in remaining:
            alive[v] = True
        degree = [0] * g.n
        for v in remaining:
            degree[v] = sum(alive[u] for u in adjacency[v])
        heap = [(degree[v], v) for v in remaining]
        heapify(heap)
        while heap:
            d, v = heappop(heap)
            if not alive[v] or d != degree[v]:
                continue
            colors[v] = color
            removed = [v] + [u for u in adjacency[v] if alive[u]]
            for u in removed:
                alive[u] = False
            for u in removed:
                for w in adjacency[u]:
                    if alive[w]:
                        degree[w] -= 1
                        heappush(heap, (degree[w], w))
        remaining = [v for v in remaining if not colors[v]]
    return tuple(colors)


def test_greedy_approx_coloring_matches_recounting_loop_tie_for_tie():
    from minent.io import random_graph
    graphs = list(_tied_graphs())
    graphs += [Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)]) for n in range(1, 41)]
    for seed in range(200):
        rng = random.Random(seed)
        n = rng.randrange(1, 81)
        pairs = n * (n - 1) // 2
        m = rng.choice((min(pairs, 3 * n // 2), pairs * 7 // 10, rng.randrange(pairs + 1)))
        graphs.append(random_graph(n, m, seed=seed))  # sparse, dense, any
    for g in graphs:
        assert greedy_coloring(g, "approx").colors == _recounting_approx_coloring(g), g.edges


def test_greedy_approx_coloring_on_a_large_clique_is_fast():
    # One class per vertex. Recounting the uncolored degrees for each class
    # and lowering them on every deletion cost O(n^3): K_400 took 1.5 s.
    n = 400
    g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
    start = time.perf_counter()
    c = greedy_coloring(g, "approx")
    assert time.perf_counter() - start < 0.5
    assert c.colors == tuple(range(1, n + 1))


def test_greedy_coloring_p3_is_optimal():
    c = greedy_coloring(P3)
    assert coloring_entropy(P3, c) == pytest.approx(0.9183, abs=1e-3)
    assert c.classes() == [[0, 2], [1]]


def test_greedy_coloring_edgeless():
    g = Graph(4, [])
    assert coloring_entropy(g, greedy_coloring(g)) == 0.0


def test_greedy_exact_within_log2e_on_bipartite():
    for seed in range(40):
        rng = random.Random(seed)
        g = random_bipartite_graph(rng.randrange(2, 11), seed=seed)
        gap = (coloring_entropy(g, greedy_coloring(g))
               - coloring_entropy(g, exact_coloring(g)))
        assert -1e-9 <= gap <= LOG2_E + 1e-9


def test_greedy_approx_bound():
    for seed in range(30):
        rng = random.Random(100 + seed)
        from minent.io import random_graph
        n = rng.randrange(2, 11)
        g = random_graph(n, rng.randrange(0, n * (n - 1) // 2 + 1), seed=seed)
        beta = (g.max_degree() + 2) / 3
        gap = (coloring_entropy(g, greedy_coloring(g, oracle="approx"))
               - coloring_entropy(g, exact_coloring(g)))
        assert -1e-9 <= gap <= math.log2(beta) + LOG2_E + 1e-9


def test_exact_coloring_small():
    assert coloring_entropy(P3, exact_coloring(P3)) == pytest.approx(0.9183, abs=1e-3)
    assert coloring_entropy(K3, exact_coloring(K3)) == pytest.approx(
        math.log2(3), abs=1e-12)
    c5 = exact_coloring(C5)
    assert sorted(class_counts(c5), reverse=True) == [2, 2, 1]
    assert coloring_entropy(C5, c5) == pytest.approx(1.522, abs=1e-3)


def test_exact_coloring_matches_partition_enumeration():
    for seed in range(25):
        rng = random.Random(seed)
        from minent.io import random_graph
        n = rng.randrange(1, 8)
        g = random_graph(n, rng.randrange(0, n * (n - 1) // 2 + 1), seed=seed)
        got = coloring_entropy(g, exact_coloring(g))
        best = min(entropy_of_counts(p) for p in all_proper_partitions(g))
        assert got == pytest.approx(best, abs=1e-12)


def _first_optimal_coloring(g):
    """Brute force over every proper canonical color vector in lexicographic
    order: the first whose class-mass entropy is lowest (an improvement must
    exceed 1e-12)."""
    mass = g.weights or [1] * g.n
    total = sum(mass)
    best_h, best = math.inf, None
    for colors in proper_colorings(g):
        masses = Counter()
        for m, c in zip(mass, colors):
            masses[c] += m / total
        h = -sum(p * math.log2(p) for p in masses.values() if p)
        if h < best_h - 1e-12:
            best_h, best = h, colors
    return best


def test_exact_coloring_matches_brute_force_with_weights():
    from minent.io import random_graph
    for seed in range(150):
        rng = random.Random(seed)
        n = rng.randrange(1, 9)
        g = random_graph(n, rng.randrange(0, n * (n - 1) // 2 + 1), seed=seed)
        for h in (g, Graph(n, g.edges, _normalized([rng.random() for _ in range(n)])),
                  Graph(n, g.edges, _normalized([rng.choice((1, 2, 3)) for _ in range(n)]))):
            assert exact_coloring(h).colors == _first_optimal_coloring(h), (h.edges, h.weights)


def _resumming_exact_coloring(g):
    """The exact search as it was before it carried its objective: class
    masses are read through a table (integers) or x*log2(x) (weights), and
    every node re-sums them, in the leaf's entropy and in the envelope bound."""
    n = g.n
    adj = g.adjacency_masks()
    mass = g.weights or [1] * n
    table = [_xlog2x(c) for c in range(n + 1)]
    f = _xlog2x if g.weights else table.__getitem__
    rest = [0] * (n + 1)
    for v in range(n - 1, -1, -1):
        rest[v] = rest[v + 1] + mass[v]
    total = rest[0]
    log2_total = math.log2(total)
    best_h = coloring_entropy(g, greedy_coloring(g)) + 1e-9
    best = None
    class_masks, masses, colors = [], [], [0] * n

    def envelope(v):
        if not masses:
            return 0.0
        cmax = max(masses)
        acc = f(cmax + rest[v]) - f(cmax)
        acc += sum(f(c) for c in masses)
        return log2_total - acc / total

    def recurse(v):
        nonlocal best_h, best
        if v == n:
            h = log2_total - sum(f(c) for c in masses) / total
            if h < best_h - 1e-12:
                best_h, best = h, tuple(colors)
            return
        if envelope(v) >= best_h - 1e-12:
            return
        for i in range(len(class_masks)):
            if not (class_masks[i] & adj[v]):
                before = masses[i]
                class_masks[i] |= 1 << v
                masses[i] = before + mass[v]
                colors[v] = i + 1
                recurse(v + 1)
                class_masks[i] &= ~(1 << v)
                masses[i] = before
        class_masks.append(1 << v)
        masses.append(mass[v])
        colors[v] = len(class_masks)
        recurse(v + 1)
        class_masks.pop()
        masses.pop()

    recurse(0)
    return best


def test_exact_coloring_matches_resumming_search_tie_for_tie():
    from minent.io import random_graph
    graphs = [interval_graph(gen_jk(5))]
    for n in range(1, 15):
        for m in sorted({0, n, 3 * n // 2, 2 * n, n * (n - 1) // 4}):
            if m <= n * (n - 1) // 2:
                graphs.append(random_graph(n, m, seed=n * m))
    for g in graphs:
        rng = random.Random(g.n * 31 + g.m)
        n = g.n
        for h in (g, Graph(n, g.edges, _normalized([rng.random() for _ in range(n)])),
                  Graph(n, g.edges, [1 / n] * n)):
            assert exact_coloring(h).colors == _resumming_exact_coloring(h), (h.edges,
                                                                              h.weights)


def test_exact_coloring_weights_off_one_within_tolerance():
    # Weights summing to 1 +- 0.9e-9 pass Graph's check; the search must
    # still find a coloring at or below its greedy seed.
    from minent.io import random_graph
    for seed in range(200):
        rng = random.Random(seed)
        n = rng.randrange(2, 9)
        g = random_graph(n, rng.randrange(0, n * (n - 1) // 2 + 1), seed=seed)
        w = _normalized([rng.random() for _ in range(n)])
        w[w.index(max(w))] += rng.choice((0.9e-9, -0.9e-9))
        h = Graph(n, g.edges, w)
        assert coloring_entropy(h, exact_coloring(h)) <= \
            coloring_entropy(h, greedy_coloring(h)) + 1e-12


def test_exact_coloring_budget():
    with pytest.raises(BudgetError):
        exact_coloring(Graph(16, []))


def test_gen_jk():
    assert gen_jk(1).intervals == ((Fraction(0), Fraction(1)),)
    j5 = gen_jk(5)
    assert len(j5) == 15
    rows = jk_rows(5)
    assert [len(r) for r in rows] == [1, 2, 3, 4, 5]
    g = interval_graph(j5)
    for row in rows:
        assert g.is_independent_set(row)


def test_jk_row_intervals_match_definition():
    j3 = gen_jk(3)
    assert j3.intervals[1] == (Fraction(0), Fraction(1, 2))
    assert j3.intervals[2] == (Fraction(1, 2), Fraction(1))
    assert j3.intervals[5] == (Fraction(2, 3), Fraction(1))


def test_j3_rowwise_distribution_dominates_all_colorings():
    g = interval_graph(gen_jk(3))
    rowwise = counts_to_distribution([3, 2, 1])
    for counts in set(all_proper_partitions(g)):
        assert dominates(rowwise, counts_to_distribution(counts))


def test_jk_exact_coloring_is_rowwise():
    for k in range(1, 5):
        g = interval_graph(gen_jk(k))
        c = exact_coloring(g)
        assert sorted(class_counts(c), reverse=True) == list(range(k, 0, -1))
        for row in jk_rows(k):
            assert len({c.colors[v] for v in row}) == 1


def test_interval_mec_worked_example():
    iv = IntervalSet([(0, 2), (1, 3), (2, 4)])
    col, layers = interval_mec(iv)
    assert layers.layers == ((0, 2), (1,))
    assert layers.lower_bound_H == pytest.approx(0.9183, abs=1e-3)
    g = interval_graph(iv)
    assert coloring_entropy(g, col) == pytest.approx(0.9183, abs=1e-3)


def test_interval_mec_disjoint_intervals():
    iv = IntervalSet([(i, i + Fraction(1, 2)) for i in range(5)])
    col, layers = interval_mec(iv)
    assert len(layers.layers) == 1
    assert coloring_entropy(interval_graph(iv), col) == 0.0


def _max_i_colorable_sizes(iv, n):
    """Brute force: for each i, the largest subset whose interval graph has
    clique number (max point depth) at most i."""
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


def test_interval_mec_properties_random():
    for seed in range(60):
        rng = random.Random(seed)
        n = rng.randrange(2, 11)
        iv = random_intervals(n, seed=seed)
        g = interval_graph(iv)
        col, layers = interval_mec(iv)
        alg = coloring_entropy(g, col)
        opt = coloring_entropy(g, exact_coloring(g))
        hp = layers.lower_bound_H
        # Thm bound chain
        assert hp <= opt + 1e-9
        assert opt <= alg + 1e-9
        assert alg <= hp + 1.0 + 1e-9
        # layer prefix maximality
        best = _max_i_colorable_sizes(iv, n)
        acc = 0
        for i, layer in enumerate(layers.layers, start=1):
            acc += len(layer)
            assert acc == best[i]
        # layer bipartiteness: each layer uses at most 2 colors
        for layer in layers.layers:
            assert len({col.colors[v] for v in layer}) <= 2
        # layer distribution dominates every proper coloring's distribution
        if n <= 9:
            layer_dist = counts_to_distribution(
                sorted((len(s) for s in layers.layers), reverse=True))
            for counts in set(all_proper_partitions(g)):
                assert dominates(layer_dist, counts_to_distribution(counts))


def _bfs_two_color_layer(iv, layer, sorted_pos, even, odd, colors):
    """2-color a layer by pairwise adjacency and a search per component; the
    larger side takes `even`, a tie the side of the component's earliest
    interval in sorted order."""
    ivs = iv.intervals
    adj = {v: [u for u in layer
               if u != v and max(ivs[u][0], ivs[v][0]) < min(ivs[u][1], ivs[v][1])]
           for v in layer}
    side = {}
    for root in layer:
        if root in side:
            continue
        side[root] = 0
        comp, queue = [root], [root]
        while queue:
            u = queue.pop()
            for w in adj[u]:
                if w not in side:
                    side[w] = 1 - side[u]
                    comp.append(w)
                    queue.append(w)
                assert side[w] != side[u]
        zero = [v for v in comp if side[v] == 0]
        one = [v for v in comp if side[v] == 1]
        first = min(comp, key=lambda v: sorted_pos[v])
        if len(zero) > len(one) or (len(zero) == len(one) and side[first] == 0):
            big, small = zero, one
        else:
            big, small = one, zero
        for v in big:
            colors[v] = even
        for v in small:
            colors[v] = odd


def test_two_color_layer_rejects_a_triangle():
    iv = IntervalSet([(0, 3), (1, 4), (2, 5)])
    with pytest.raises(FeasibilityError, match="odd cycle"):
        _two_color_layer(iv, [0, 1, 2], 2, 3, [0, 0, 0])


def test_interval_mec_matches_pairwise_bfs_coloring():
    sets = [gen_jk(k) for k in range(1, 13)]
    for seed in range(1200):
        rng = random.Random(seed)
        n = rng.randrange(1, 13)
        grid = rng.randrange(4, 17) if seed % 3 else max(2 * n, 8)
        ivs = []
        for _ in range(n):
            a, b = rng.sample(range(grid + 1), 2)
            ivs.append((Fraction(min(a, b), grid), Fraction(max(a, b), grid)))
        sets.append(IntervalSet(ivs))
    for iv in sets:
        col, layers = interval_mec(iv)
        ivs = iv.intervals
        order = sorted(range(len(ivs)), key=lambda v: (ivs[v][1], ivs[v][0], v))
        sorted_pos = {v: i for i, v in enumerate(order)}
        colors = [0] * len(ivs)
        for u in layers.layers[0]:
            colors[u] = 1
        for i, layer in enumerate(layers.layers[1:], start=2):
            _bfs_two_color_layer(iv, list(layer), sorted_pos, 2 * i - 2, 2 * i - 1, colors)
        assert col.colors == tuple(colors), ivs


def _prefix_depth_interval_mec(iv):
    """interval_mec's layering and colouring as the event-sort version
    computed them: each candidate layer i rebuilds the endpoint list of the
    prefix union S_1..S_i plus v, and v joins it when max_point_depth <= i."""
    ivs = iv.intervals
    order = sorted(range(len(ivs)), key=lambda v: (ivs[v][1], ivs[v][0], v))
    layers = []
    for v in order:
        placed = False
        for i in range(len(layers)):
            candidate = [ivs[u] for lay in layers[:i + 1] for u in lay] + [ivs[v]]
            if max_point_depth(candidate) <= i + 1:
                layers[i].append(v)
                placed = True
                break
        if not placed:
            layers.append([v])
    colors = [0] * len(ivs)
    for u in layers[0]:
        colors[u] = 1
    for i, layer in enumerate(layers[1:], start=2):
        _two_color_layer(iv, layer, 2 * i - 2, 2 * i - 1, colors)
    return (tuple(colors), tuple(tuple(sorted(s)) for s in layers),
            entropy_of_counts([len(s) for s in layers]))


def test_interval_mec_matches_prefix_depth_layering_tie_for_tie():
    sets = [random_intervals(n, seed=n) for n in range(16, 41)]
    sets += [random_intervals(n, seed=seed) for n in range(3, 16) for seed in range(10)]
    sets += [gen_jk(k) for k in range(1, 13)]
    for seed in range(150):  # coarse grids: many shared and touching endpoints
        rng = random.Random(seed)
        grid = rng.randrange(2, 7)
        ivs = []
        for _ in range(rng.randrange(2, 21)):
            a, b = rng.sample(range(grid + 1), 2)
            ivs.append((Fraction(min(a, b), grid), Fraction(max(a, b), grid)))
        sets.append(IntervalSet(ivs))
    rng = random.Random(7)
    for iv in sets[::4]:
        ivs = list(iv.intervals)
        rng.shuffle(ivs)
        sets.append(IntervalSet(ivs))
    for iv in sets:
        col, layers = interval_mec(iv)
        assert (col.colors, layers.layers, layers.lower_bound_H) == \
            _prefix_depth_interval_mec(iv), iv.intervals
